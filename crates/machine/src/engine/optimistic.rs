//! Optimistic (Time Warp) intra-run speculation.
//!
//! The sequential engine alternates strictly between the event loop and
//! one application coroutine per event: resume, take the request, pop
//! the next event. This layer breaks that lockstep. When a commit is
//! *scheduled* (not yet popped), the engine predicts the response the
//! commit will deliver and, if a prediction exists, polls the processor
//! with it immediately. The coroutine runs speculatively — past the
//! global virtual-time horizon — and the step it produced (its next
//! request, completion or panic) is stashed; the engine consumes it only
//! when the commit actually pops.
//!
//! **Nothing engine-side is speculative.** The model, store, stats,
//! queue, fault stream, checkers, and telemetry all mutate exactly when
//! the sequential engine would mutate them, in committed pop order. The
//! only thing that runs early is application code, and application code
//! interacts with the world *only* through its request/response slot.
//! That is the whole equivalence argument, and
//! `tests/optimistic_equivalence.rs` holds it to byte-identical reports.
//!
//! Predictions come in two classes:
//!
//! * **exact** — acks (`Compute`/`Write`/`Sent`) and already-materialized
//!   receive payloads (`Received`). These cannot mispredict.
//! * **inexact** — `Read`/`Rmw` predicted from the store's value at
//!   schedule time. A conflicting write committed in between makes the
//!   prediction stale; the commit then refutes it, and the processor is
//!   rolled back: its coroutine is dropped (the anti-message), a fresh
//!   body from the [`super::BodyFactory`] is built, and the processor's
//!   *committed* response history is replayed through it. Replay drives
//!   the coroutine directly — no dispatches, no fault draws, no checker
//!   events — so it is invisible to committed state (strict check mode
//!   audits this with a model state-hash).
//!
//! In classic Time Warp terms: the commit horizon is the GVT (it is
//! continuous here — state commits at every pop, not in batches), drops
//! are anti-messages, and the [`SpecLedger`] proves every anti-message
//! annihilated exactly one mis-speculation. The [`EpochClock`] marks GVT
//! epochs in committed-event strides; fossil collection (reclaiming
//! retired processors' replay histories) runs at epoch boundaries.

use spasm_check::{CheckViolation, SpecLedger};
use spasm_desim::{EpochClock, Step};

use crate::addr::Addr;
use crate::fxhash::FxHashSet;
use crate::ops::{MemReq, MemResp};

use super::{Action, Engine, RunError, SpecStats};

/// Committed events per GVT epoch (fossil-collection cadence).
const GVT_STRIDE: u64 = 1024;

/// Rollbacks per processor before its inexact speculation fuse blows.
/// A processor that keeps mispredicting (e.g. spinning on a contended
/// word) stops paying replay costs and falls back to exact-only
/// speculation, which never rolls back.
const ROLLBACK_FUSE: u32 = 8;

/// Committed events per processor beyond which inexact speculation is
/// no longer worth its downside: a rollback replays the *entire*
/// committed history through a rebuilt body, so late in a long run a
/// single misprediction costs more polls than value speculation can
/// ever recoup. Exact (ack-class) speculation continues regardless
/// — it cannot mispredict.
const REPLAY_HORIZON: usize = 512;

/// A speculatively delivered response awaiting its commit's verdict.
#[derive(Debug)]
struct Speculation {
    predicted: MemResp,
    /// For inexact predictions, the address the value was sampled from
    /// (drives the per-address throttle on refutation).
    addr: Option<Addr>,
    /// What the processor did with the predicted response; consumed in
    /// committed order if the commit confirms the prediction.
    step: Step<MemReq>,
}

/// Per-processor speculation bookkeeping.
#[derive(Debug, Default)]
struct SpecProc {
    /// Every committed response delivered to this processor, in order,
    /// starting with `MemResp::Start`. The rollback replay script.
    resp_history: Vec<MemResp>,
    /// The request the processor issued after each committed response.
    /// Replay verifies the respawned body re-issues exactly these.
    req_history: Vec<MemReq>,
    /// In-flight speculative delivery, if any (at most one: a processor
    /// blocks until its next response, so speculation depth is 1).
    pending: Option<Speculation>,
    /// Rollbacks so far (drives [`ROLLBACK_FUSE`]).
    rollbacks: u32,
    /// Whether the processor's body returned; its histories become
    /// fossils reclaimable at the next GVT epoch.
    finished: bool,
}

/// Whole-engine speculation state (`Engine::spec` is `Some` iff the mode
/// is [`super::EngineMode::Optimistic`]).
#[derive(Debug)]
pub(super) struct SpecState {
    /// Speculation width: max processors running ahead at once.
    workers: usize,
    /// Processors currently holding a speculative response.
    outstanding: usize,
    procs: Vec<SpecProc>,
    /// Conservation ledger (present when checking is enabled).
    ledger: Option<SpecLedger>,
    clock: EpochClock,
    /// Addresses whose predicted values have been refuted. A contended
    /// word refutes every prediction made on it while the conflicting
    /// write is in flight, and each refutation costs a full-history
    /// replay — so after the first, inexact speculation on that address
    /// is switched off. The first refutation still rolls back (the
    /// recovery path stays exercised); the replay *storm* does not.
    /// Purely a scheduling decision: committed state is unaffected.
    hot: FxHashSet<Addr>,
    pub(super) stats: SpecStats,
}

impl SpecState {
    pub(super) fn new(workers: usize, procs: usize, checked: bool) -> Self {
        SpecState {
            workers,
            outstanding: 0,
            procs: (0..procs).map(|_| SpecProc::default()).collect(),
            ledger: checked.then(SpecLedger::new),
            clock: EpochClock::new(GVT_STRIDE),
            hot: FxHashSet::default(),
            stats: SpecStats::default(),
        }
    }
}

impl Engine {
    /// Records a committed response into `proc`'s replay history
    /// (no-op in sequential mode).
    #[inline]
    pub(super) fn record_resp(&mut self, proc: usize, resp: MemResp) {
        if let Some(spec) = &mut self.spec {
            spec.procs[proc].resp_history.push(resp);
        }
    }

    /// Records the request `proc` issued after its latest committed
    /// response (no-op in sequential mode).
    #[inline]
    pub(super) fn record_req(&mut self, proc: usize, req: MemReq) {
        if let Some(spec) = &mut self.spec {
            spec.procs[proc].req_history.push(req);
        }
    }

    /// Called when a commit is scheduled: predict its response and, if
    /// possible, poll the processor with it ahead of the commit.
    pub(super) fn consider_speculation(&mut self, proc: usize, action: Action) {
        // Inexact predictions read the store *now*; done before borrowing
        // the spec state so the borrows stay disjoint.
        let store_value = match action {
            Action::Read(addr) | Action::Rmw(addr, _) => Some(self.store.read_word(addr)),
            _ => None,
        };
        let has_factory = self.body_factory.is_some();
        let now = self.now;
        let Some(spec) = &mut self.spec else { return };
        if spec.outstanding >= spec.workers || spec.procs[proc].pending.is_some() {
            return;
        }
        let inexact_ok = has_factory
            && spec.procs[proc].rollbacks < ROLLBACK_FUSE
            && spec.procs[proc].resp_history.len() < REPLAY_HORIZON;
        let (predicted, addr) = match action {
            Action::Compute | Action::Write(..) | Action::Sent => (MemResp::Ack, None),
            Action::Received(v) => (MemResp::Value(v), None),
            Action::Read(a) | Action::Rmw(a, _) => {
                if !inexact_ok || spec.hot.contains(&a) {
                    return;
                }
                (
                    MemResp::Value(store_value.expect("read prediction sampled above")),
                    Some(a),
                )
            }
            // A WaitUntil commit may park the processor instead of
            // resuming it, so its response is never predicted.
            Action::Check(..) => return,
        };
        spec.outstanding += 1;
        spec.stats.spec_resumes += 1;
        if let Some(ledger) = &mut spec.ledger {
            ledger.on_speculate(proc, now);
        }
        let step = self.pool.resume(proc, predicted);
        self.spec.as_mut().expect("optimistic mode").procs[proc].pending = Some(Speculation {
            predicted,
            addr,
            step,
        });
    }

    /// Delivers a committed response to a processor that may already
    /// hold a speculative one: confirm (consume the step the speculative
    /// execution already produced) or refute (roll back, then redeliver).
    pub(super) fn commit_speculative(
        &mut self,
        proc: usize,
        resp: MemResp,
    ) -> Result<(), RunError> {
        let spec = self.spec.as_mut().expect("optimistic mode");
        let Some(speculation) = spec.procs[proc].pending.take() else {
            return self.resume(proc, resp);
        };
        spec.outstanding -= 1;
        if speculation.predicted == resp {
            spec.stats.spec_hits += 1;
            if let Some(ledger) = &mut spec.ledger {
                ledger.on_commit(proc);
            }
            self.record_resp(proc, resp);
            self.handle_step(proc, speculation.step)
        } else {
            if let Some(a) = speculation.addr {
                spec.hot.insert(a);
            }
            self.rollback(proc)?;
            self.resume(proc, resp)
        }
    }

    /// Cancels a mis-speculated execution (anti-message), rebuilds a
    /// fresh body, and replays the processor's committed history so it
    /// is suspended exactly where it was before the bad delivery.
    fn rollback(&mut self, proc: usize) -> Result<(), RunError> {
        // A cancellation observed mid-rollback aborts before the replay
        // commits anything — the rebuilt coroutine drops with the pool.
        if self.poll_cancelled() {
            return Err(RunError::Cancelled {
                at: self.now,
                events: self.processed,
            });
        }
        let forged = self
            .injector
            .as_mut()
            .is_some_and(|inj| inj.anti_message_loss());
        {
            let spec = self.spec.as_mut().expect("optimistic mode");
            let p = &mut spec.procs[proc];
            p.rollbacks += 1;
            spec.stats.rollbacks += 1;
            if !forged {
                spec.stats.annihilated += 1;
            }
            if let Some(ledger) = &mut spec.ledger {
                // The forged fault loses the anti-message *record*: the
                // rollback still runs, but the ledger never hears of the
                // annihilation — exactly the imbalance strict mode must
                // catch.
                if !forged {
                    ledger.on_annihilate(proc);
                }
                ledger.on_rollback(proc);
            }
        }
        // Strict mode audits rollback purity: replay must not touch any
        // committed machine state.
        let pre_hash = self.check.strict().then(|| self.model.state_hash());
        self.pool.kill(proc);
        let factory = self
            .body_factory
            .as_ref()
            .expect("inexact speculation requires a body factory");
        self.pool.respawn(proc, factory(proc));
        // Replay committed history through the fresh body. Direct pool
        // resumes: no events, no fault draws, no checker — committed
        // state cannot observe the replay.
        let (resps, reqs) = {
            let p = &mut self.spec.as_mut().expect("optimistic mode").procs[proc];
            (
                std::mem::take(&mut p.resp_history),
                std::mem::take(&mut p.req_history),
            )
        };
        debug_assert_eq!(resps.len(), reqs.len());
        for (i, (&resp, &req)) in resps.iter().zip(reqs.iter()).enumerate() {
            match self.pool.resume(proc, resp) {
                Step::Request(got) if got == req => {}
                Step::Request(got) => {
                    return Err(RunError::Check(CheckViolation {
                        invariant: "rollback-replay",
                        message: format!(
                            "processor {proc} diverged at replayed event {i}: \
                             issued {got:?} where history records {req:?} \
                             (body is not deterministic)"
                        ),
                        recent: Vec::new(),
                    }));
                }
                Step::Done => {
                    return Err(RunError::Check(CheckViolation {
                        invariant: "rollback-replay",
                        message: format!(
                            "processor {proc} finished at replayed event {i} of {} \
                             (body is not deterministic)",
                            resps.len()
                        ),
                        recent: Vec::new(),
                    }));
                }
                Step::Panicked(message) => return Err(RunError::Panicked { proc, message }),
            }
        }
        let replayed = resps.len() as u64;
        {
            let spec = self.spec.as_mut().expect("optimistic mode");
            spec.stats.replayed_events += replayed;
            let p = &mut spec.procs[proc];
            p.resp_history = resps;
            p.req_history = reqs;
        }
        if let Some(pre) = pre_hash {
            let post = self.model.state_hash();
            if pre != post {
                return Err(RunError::Check(CheckViolation {
                    invariant: "rollback-purity",
                    message: format!(
                        "rollback of processor {proc} perturbed committed machine \
                         state (hash {pre:#018x} -> {post:#018x})"
                    ),
                    recent: Vec::new(),
                }));
            }
        }
        Ok(())
    }

    /// Ticks the GVT epoch clock on every committed commit-event and
    /// fossil-collects retired processors' histories at epoch
    /// boundaries.
    #[inline]
    pub(super) fn spec_on_commit_event(&mut self) {
        let Some(spec) = &mut self.spec else { return };
        if spec.clock.tick() {
            spec.stats.gvt_epochs += 1;
            for p in spec.procs.iter_mut() {
                if p.finished && !p.resp_history.is_empty() {
                    p.resp_history = Vec::new();
                    p.req_history = Vec::new();
                }
            }
        }
    }

    /// Marks `proc`'s histories as fossils once its body returns.
    #[inline]
    pub(super) fn spec_on_done(&mut self, proc: usize) {
        if let Some(spec) = &mut self.spec {
            debug_assert!(spec.procs[proc].pending.is_none());
            spec.procs[proc].finished = true;
        }
    }

    /// End-of-run ledger check: every speculation committed or
    /// annihilated, every anti-message annihilating exactly one. Under
    /// lenient checking, anti-messages forged away by the fault plan are
    /// credited; under strict checking they are violations.
    pub(super) fn spec_run_end(&mut self) -> Result<(), RunError> {
        let forged = self
            .injector
            .as_ref()
            .map_or(0, |inj| inj.counters.anti_losses);
        if let Some(ledger) = self.spec.as_ref().and_then(|s| s.ledger.as_ref()) {
            let credited = if self.check.strict() { 0 } else { forged };
            ledger.on_run_end(credited)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::EngineMode;

    #[test]
    fn engine_mode_parses_and_displays() {
        assert_eq!(
            EngineMode::from_name("sequential"),
            Some(EngineMode::Sequential)
        );
        assert_eq!(
            EngineMode::from_name("optimistic"),
            Some(EngineMode::Optimistic { workers: 4 })
        );
        assert_eq!(
            EngineMode::from_name("optimistic:7"),
            Some(EngineMode::Optimistic { workers: 7 })
        );
        assert_eq!(EngineMode::from_name("optimistic:0"), None);
        assert_eq!(EngineMode::from_name("pessimistic"), None);
        assert_eq!(EngineMode::default(), EngineMode::Sequential);
        for m in [
            EngineMode::Sequential,
            EngineMode::Optimistic { workers: 4 },
            EngineMode::Optimistic { workers: 12 },
        ] {
            assert_eq!(EngineMode::from_name(&m.to_string()), Some(m));
        }
    }
}
