//! Robustness of the polled engine: every way a run can stop early — a
//! panicking poll, a tripped budget, a cancellation — ends in a typed
//! [`RunError`], never a hang or an abort, and every processor future the
//! engine built is dropped exactly once by the time the engine is gone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spasm_machine::{
    proc_body, Engine, MachineConfig, MachineKind, Pred, ProcBody, RunBudget, RunError, SetupCtx,
};
use spasm_topology::Topology;

/// Counts processor futures built and dropped. Each body moves a
/// [`Guard`] into its future, so dropping the future (finish, failed
/// run, engine teardown) drops the guard.
#[derive(Default)]
struct Census {
    built: Arc<AtomicUsize>,
    dropped: Arc<AtomicUsize>,
}

struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

impl Census {
    fn guard(&self) -> Guard {
        self.built.fetch_add(1, Ordering::SeqCst);
        Guard(Arc::clone(&self.dropped))
    }

    fn built(&self) -> usize {
        self.built.load(Ordering::SeqCst)
    }

    fn dropped(&self) -> usize {
        self.dropped.load(Ordering::SeqCst)
    }
}

/// Processor 1 computes five times, then panics with `payload`; the
/// other processors wait on a flag nobody sets, so they are suspended
/// when the panic lands.
fn panicking_run(payload: fn() -> !) -> (RunError, Census) {
    let census = Census::default();
    let topo = Topology::full(4);
    let mut setup = SetupCtx::new(4);
    let flag = setup.alloc(0, 1);
    let bodies: Vec<ProcBody> = (0..4)
        .map(|me| {
            let guard = census.guard();
            proc_body(async move |_, mem| {
                let _guard = guard;
                if me == 1 {
                    for _ in 0..5 {
                        mem.compute(10).await;
                    }
                    payload();
                }
                mem.wait_until(flag, Pred::Eq(1)).await;
            })
        })
        .collect();
    let mut engine = Engine::new(MachineKind::Target, &topo, setup, bodies);
    let err = engine.run().expect_err("processor 1 panics");
    // The panicked future is gone already; the three waiters are still
    // suspended inside the engine.
    assert_eq!(census.dropped(), 1);
    drop(engine);
    (err, census)
}

#[test]
fn panic_payloads_of_every_type_are_typed_errors() {
    fn str_payload() -> ! {
        panic!("static str payload")
    }
    fn string_payload() -> ! {
        panic!("{}", format!("owned {} payload", "String"))
    }
    fn opaque_payload() -> ! {
        std::panic::panic_any(0xdead_u64)
    }
    let cases: [(fn() -> !, &str); 3] = [
        (str_payload, "static str payload"),
        (string_payload, "owned String payload"),
        (opaque_payload, "<non-string panic payload>"),
    ];
    for (payload, want) in cases {
        let (err, census) = panicking_run(payload);
        match err {
            RunError::Panicked { proc: 1, message } => assert_eq!(message, want),
            other => panic!("expected processor 1's panic, got {other:?}"),
        }
        assert_eq!(census.built(), 4);
        assert_eq!(census.dropped(), 4, "every future dropped exactly once");
    }
}

#[test]
fn a_tripped_budget_drops_every_suspended_future() {
    // Processor 0 polls a flag nobody sets on the cache-less LogP
    // machine (a livelock); the others are parked on a receive that
    // never arrives. Only the event budget can end this run.
    let census = Census::default();
    let topo = Topology::full(4);
    let mut setup = SetupCtx::new(4);
    let flag = setup.alloc(1, 1);
    let bodies: Vec<ProcBody> = (0..4)
        .map(|me| {
            let guard = census.guard();
            proc_body(async move |_, mem| {
                let _guard = guard;
                if me == 0 {
                    mem.wait_until(flag, Pred::Eq(1)).await;
                } else {
                    mem.recv(7).await;
                }
            })
        })
        .collect();
    let config = MachineConfig {
        budget: RunBudget::events(5_000),
        ..MachineConfig::default()
    };
    let mut engine = Engine::with_config(MachineKind::LogP, &topo, config, setup, bodies);
    match engine.run() {
        Err(RunError::BudgetExceeded { events, .. }) => assert_eq!(events, 5_001),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert_eq!(census.dropped(), 0, "all four still suspended");
    drop(engine);
    assert_eq!(census.dropped(), 4);
}

#[test]
fn a_cancel_probe_firing_mid_run_drops_every_suspended_future() {
    let census = Census::default();
    let topo = Topology::full(4);
    let setup = SetupCtx::new(4);
    let bodies: Vec<ProcBody> = (0..4)
        .map(|_| {
            let guard = census.guard();
            proc_body(async move |_, mem| {
                let _guard = guard;
                for _ in 0..10_000 {
                    mem.compute(3).await;
                }
            })
        })
        .collect();
    let mut engine = Engine::new(MachineKind::Pram, &topo, setup, bodies);
    let polls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&polls);
    engine.set_cancel_probe(Box::new(move || seen.fetch_add(1, Ordering::SeqCst) == 2));
    match engine.run() {
        Err(RunError::Cancelled { events, .. }) => {
            assert!(events > 0 && events < 40_000, "cancelled mid-run: {events}")
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(polls.load(Ordering::SeqCst), 3);
    assert_eq!(census.dropped(), 0);
    drop(engine);
    assert_eq!(census.dropped(), 4);
}
