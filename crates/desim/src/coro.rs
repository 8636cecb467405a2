//! Simulation processes as polled `async` state machines.
//!
//! The paper's SPASM simulator is *execution-driven*: application code
//! actually executes, and only operations that may touch the network are
//! simulated. SPASM ran each simulated processor as a CSIM process — a
//! cheap coroutine. We get the same structure from Rust's `async`
//! lowering: each processor's program is an `async` body that the
//! compiler turns into a resumable state machine, and the single-threaded
//! simulator *polls* it:
//!
//! * exactly one process runs at any instant — the simulator resumes a
//!   process by depositing a response and polling its future once; the
//!   poll returns when the process issues its next request (an `.await`
//!   on [`CoroCtx::call`]) or finishes;
//! * consequently the interleaving of processes is chosen entirely by the
//!   simulator's event queue, and simulations are fully deterministic;
//! * application code is ordinary Rust with `.await` at each simulated
//!   operation: control flow may depend on values computed from shared
//!   data (dynamic task queues, sparse structures), which is exactly what
//!   makes execution-driven simulation more faithful than trace-driven
//!   simulation.
//!
//! There is no executor here in the usual sense: no wake queue, no
//! reactor, no task scheduling. The event loop decides who runs and polls
//! that one future with a no-op waker. A suspended process is just a heap
//! allocation; terminating one (a finished run or a failed run)
//! is dropping its future.

use std::cell::Cell;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Identifier of a simulated processor / simulation process.
pub type ProcId = usize;

/// A simulation process's body: the state machine the pool polls.
pub type ProcFuture = Pin<Box<dyn Future<Output = ()>>>;

/// What a resumed process did with its time slice.
#[derive(Debug)]
pub enum Step<Q> {
    /// The process issued a request and is suspended awaiting the response.
    Request(Q),
    /// The process's body returned normally.
    Done,
    /// The process's body panicked; the payload is the panic message.
    Panicked(String),
}

/// The per-process slot a request leaves by and a response arrives by.
/// At most one value sits in each cell: a process issues one request per
/// resume and the simulator delivers one response per resume.
struct Chan<Q, R> {
    req: Cell<Option<Q>>,
    resp: Cell<Option<R>>,
}

/// The process-side handle used to issue simulation requests.
///
/// Passed (by value) to each process body; `ctx.call(req).await`
/// suspends the process (in real time) until the simulator responds (in
/// simulated time).
pub struct CoroCtx<Q, R> {
    me: ProcId,
    chan: Rc<Chan<Q, R>>,
}

impl<Q, R> std::fmt::Debug for CoroCtx<Q, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoroCtx")
            .field("me", &self.me)
            .finish_non_exhaustive()
    }
}

impl<Q, R> CoroCtx<Q, R> {
    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.me
    }

    /// Issues `req` to the simulator; the returned future resolves to the
    /// simulator's response.
    ///
    /// The first poll deposits the request and returns `Pending`, which
    /// suspends the whole process body and hands control back to the
    /// simulator; the next poll — the simulator's next
    /// [`CoroPool::resume`] of this process — yields the response.
    ///
    /// # Panics
    ///
    /// The poll panics (and the pool reports [`Step::Panicked`]) if the
    /// body has another request in flight, i.e. if it polls two `call`
    /// futures concurrently instead of awaiting them in turn.
    pub fn call(&self, req: Q) -> impl Future<Output = R> + '_ {
        let mut req = Some(req);
        std::future::poll_fn(move |_| match req.take() {
            Some(q) => {
                let prev = self.chan.req.replace(Some(q));
                assert!(
                    prev.is_none(),
                    "process {} has two simulation requests in flight",
                    self.me
                );
                Poll::Pending
            }
            None => Poll::Ready(
                self.chan
                    .resp
                    .take()
                    .expect("process resumed without a response"),
            ),
        })
    }
}

struct ProcSlot<Q, R> {
    /// `None` once the process finished or panicked.
    fut: Option<ProcFuture>,
    chan: Rc<Chan<Q, R>>,
}

/// A pool of simulation processes driven by the simulator.
///
/// Type parameters: `Q` is the request type processes send to the
/// simulator; `R` is the response type the simulator sends back.
///
/// # Protocol
///
/// Each process starts suspended before its first statement. The
/// simulator calls [`CoroPool::resume`] with a response value; the
/// process runs until it awaits its next request via [`CoroCtx::call`]
/// (returned as [`Step::Request`]), returns ([`Step::Done`]) or panics
/// ([`Step::Panicked`]). The very first `resume` of a process delivers
/// its "start" response, which no `call` observes.
///
/// # Example
///
/// ```
/// use spasm_desim::{CoroPool, Step};
///
/// // Processes that ask the simulator to double numbers.
/// let mut pool: CoroPool<u64, u64> = CoroPool::new(2, |id, ctx| async move {
///     let doubled = ctx.call(id as u64 + 1).await;
///     assert_eq!(doubled, (id as u64 + 1) * 2);
/// });
/// for p in 0..2 {
///     // First resume: the "start" value is not observed by the body.
///     let req = match pool.resume(p, 0) {
///         Step::Request(q) => q,
///         other => panic!("expected request, got {other:?}"),
///     };
///     assert!(matches!(pool.resume(p, req * 2), Step::Done));
/// }
/// ```
pub struct CoroPool<Q, R> {
    slots: Vec<ProcSlot<Q, R>>,
}

impl<Q, R> std::fmt::Debug for CoroPool<Q, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoroPool")
            .field("procs", &self.slots.len())
            .field(
                "live",
                &self.slots.iter().filter(|s| s.fut.is_some()).count(),
            )
            .finish()
    }
}

impl<Q: 'static, R: 'static> CoroPool<Q, R> {
    /// Creates `n` processes, each running `body(proc_id, ctx)`.
    ///
    /// Processes are suspended until their first [`CoroPool::resume`].
    pub fn new<F, Fut>(n: usize, body: F) -> Self
    where
        F: Fn(ProcId, CoroCtx<Q, R>) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        Self::from_bodies(
            (0..n)
                .map(|_| |id, ctx| Box::pin(body(id, ctx)) as ProcFuture)
                .collect(),
        )
    }

    /// Creates one process per element of `bodies`.
    ///
    /// Unlike [`CoroPool::new`], each process can have a distinct body,
    /// which is how per-processor application kernels are built.
    pub fn from_bodies<F>(bodies: Vec<F>) -> Self
    where
        F: FnOnce(ProcId, CoroCtx<Q, R>) -> ProcFuture,
    {
        let slots = bodies
            .into_iter()
            .enumerate()
            .map(|(id, body)| {
                let chan = Rc::new(Chan {
                    req: Cell::new(None),
                    resp: Cell::new(None),
                });
                let ctx = CoroCtx {
                    me: id,
                    chan: Rc::clone(&chan),
                };
                ProcSlot {
                    fut: Some(body(id, ctx)),
                    chan,
                }
            })
            .collect();
        CoroPool { slots }
    }

    /// Number of processes in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the pool has no processes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Resumes process `proc` with response `resp` and runs it to its
    /// next action.
    ///
    /// The poll runs under `catch_unwind`: a panicking body becomes
    /// [`Step::Panicked`]. A body that suspends without issuing a request
    /// (it awaited a future that is not a [`CoroCtx::call`]) is reported
    /// the same way, since no simulator event could ever resume it. A
    /// process that finishes or panics is dropped and never polled again.
    ///
    /// # Panics
    ///
    /// Panics if `proc` already finished (resuming a dead process is a
    /// simulator logic error).
    pub fn resume(&mut self, proc: ProcId, resp: R) -> Step<Q> {
        let slot = &mut self.slots[proc];
        let Some(fut) = slot.fut.as_mut() else {
            panic!("resumed process {proc} after it finished");
        };
        slot.chan.resp.set(Some(resp));
        let mut cx = Context::from_waker(Waker::noop());
        let step = match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => match slot.chan.req.take() {
                Some(q) => return Step::Request(q),
                None => Step::Panicked(format!(
                    "process {proc} suspended without issuing a simulation request"
                )),
            },
            Ok(Poll::Ready(())) => Step::Done,
            Err(payload) => Step::Panicked(panic_message(payload.as_ref())),
        };
        slot.fut = None;
        step
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    type Body = Box<dyn FnOnce(ProcId, CoroCtx<u32, u32>) -> ProcFuture>;

    /// Asserts that `proc` has finished: resuming it again must panic.
    fn assert_finished(pool: &mut CoroPool<u32, u32>, proc: ProcId) {
        let payload = catch_unwind(AssertUnwindSafe(|| pool.resume(proc, 0)))
            .expect_err("resuming a finished process must panic");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("after it finished"), "{msg}");
    }

    #[test]
    fn single_process_request_response_cycle() {
        let mut pool: CoroPool<u32, u32> = CoroPool::new(1, |_, ctx| async move {
            let a = ctx.call(10).await;
            let b = ctx.call(a + 1).await;
            assert_eq!(b, 22);
        });
        let q = match pool.resume(0, 0) {
            Step::Request(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q, 10);
        let q = match pool.resume(0, 11) {
            Step::Request(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q, 12);
        assert!(matches!(pool.resume(0, 22), Step::Done));
        assert_finished(&mut pool, 0);
    }

    #[test]
    fn many_processes_interleave_deterministically() {
        let n = 8;
        let mut pool: CoroPool<usize, usize> = CoroPool::new(n, |id, ctx| async move {
            for round in 0..3 {
                let echoed = ctx.call(id * 100 + round).await;
                assert_eq!(echoed, id * 100 + round);
            }
        });
        // Drive round-robin; every request must come from the resumed
        // proc, in program order.
        let mut pending: Vec<Option<usize>> = vec![None; n];
        let mut order = Vec::new();
        for p in 0..n {
            if let Step::Request(q) = pool.resume(p, 0) {
                order.push(q);
                pending[p] = Some(q);
            }
        }
        let mut done = 0;
        while done < n {
            for p in 0..n {
                if let Some(q) = pending[p].take() {
                    match pool.resume(p, q) {
                        Step::Request(q2) => {
                            order.push(q2);
                            pending[p] = Some(q2);
                        }
                        Step::Done => done += 1,
                        Step::Panicked(m) => panic!("{m}"),
                    }
                }
            }
        }
        let want: Vec<usize> = (0..3)
            .flat_map(|round| (0..n).map(move |id| id * 100 + round))
            .collect();
        assert_eq!(order, want);
    }

    #[test]
    fn distinct_bodies_per_process() {
        let bodies: Vec<Body> = vec![
            Box::new(|_, ctx| {
                Box::pin(async move {
                    ctx.call(1).await;
                })
            }),
            Box::new(|_, ctx| {
                Box::pin(async move {
                    ctx.call(2).await;
                })
            }),
        ];
        let mut pool = CoroPool::from_bodies(bodies);
        match pool.resume(0, 0) {
            Step::Request(1) => {}
            other => panic!("{other:?}"),
        }
        match pool.resume(1, 0) {
            Step::Request(2) => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(pool.resume(0, 0), Step::Done));
        assert!(matches!(pool.resume(1, 0), Step::Done));
    }

    #[test]
    fn panicking_body_is_reported_not_propagated() {
        let mut pool: CoroPool<u32, u32> = CoroPool::new(1, |_, ctx| async move {
            ctx.call(1).await;
            panic!("deliberate test panic");
        });
        assert!(matches!(pool.resume(0, 0), Step::Request(1)));
        match pool.resume(0, 0) {
            Step::Panicked(msg) => assert!(msg.contains("deliberate test panic")),
            other => panic!("{other:?}"),
        }
        assert_finished(&mut pool, 0);
    }

    #[test]
    fn suspending_on_a_foreign_future_is_reported_as_a_panic() {
        let mut pool: CoroPool<u32, u32> = CoroPool::new(1, |_, _| std::future::pending::<()>());
        match pool.resume(0, 0) {
            Step::Panicked(msg) => assert!(msg.contains("without issuing"), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert_finished(&mut pool, 0);
    }

    #[test]
    fn concurrent_requests_from_one_process_are_reported_as_a_panic() {
        let mut pool: CoroPool<u32, u32> = CoroPool::new(1, |_, ctx| async move {
            let mut a = std::pin::pin!(ctx.call(1));
            let mut b = std::pin::pin!(ctx.call(2));
            let mut cx = Context::from_waker(Waker::noop());
            let _ = a.as_mut().poll(&mut cx);
            let _ = b.as_mut().poll(&mut cx);
        });
        match pool.resume(0, 0) {
            Step::Panicked(msg) => assert!(msg.contains("two simulation requests"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn body_returning_without_requests_is_done_immediately() {
        let mut pool: CoroPool<u32, u32> = CoroPool::new(1, |_, _| async {});
        assert!(matches!(pool.resume(0, 0), Step::Done));
        assert_finished(&mut pool, 0);
    }

    #[test]
    fn dropping_pool_with_suspended_processes_runs_their_destructors() {
        struct Guard(Rc<Cell<u32>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let dropped = Rc::new(Cell::new(0));
        let d = Rc::clone(&dropped);
        let mut pool: CoroPool<u32, u32> = CoroPool::new(4, move |_, ctx| {
            let guard = Guard(Rc::clone(&d));
            async move {
                let _guard = guard;
                let _ = ctx.call(0).await;
                unreachable!("never resumed");
            }
        });
        for p in 0..4 {
            assert!(matches!(pool.resume(p, 0), Step::Request(0)));
        }
        assert_eq!(dropped.get(), 0);
        drop(pool);
        assert_eq!(dropped.get(), 4);
    }

    #[test]
    #[should_panic(expected = "after it finished")]
    fn resuming_a_finished_process_is_a_logic_error() {
        let mut pool: CoroPool<u32, u32> = CoroPool::new(1, |_, _| async {});
        assert!(matches!(pool.resume(0, 0), Step::Done));
        pool.resume(0, 0);
    }

    #[test]
    fn proc_id_visible_to_body() {
        let mut pool: CoroPool<usize, usize> = CoroPool::new(3, |id, ctx| async move {
            assert_eq!(ctx.id(), id);
            ctx.call(id).await;
        });
        for p in 0..3 {
            match pool.resume(p, 0) {
                Step::Request(q) => assert_eq!(q, p),
                other => panic!("{other:?}"),
            }
        }
    }
}
