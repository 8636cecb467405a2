//! Cancellation under speculation: aborting an optimistic run — at any
//! poll point, including mid-rollback — must be clean. Clean means a
//! typed [`RunError::Cancelled`], no panic, and *nothing from
//! uncommitted history becoming durable*: a cancelled point never
//! reaches the sweep journal, so a later resume re-runs it from scratch
//! and converges on the same bytes as an uninterrupted sweep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spasm_apps::SizeClass;
use spasm_core::journal::SweepJournal;
use spasm_core::sweep::{run_figure_journaled, run_figure_with, SweepConfig};
use spasm_core::{figures, Machine};
use spasm_machine::{proc_body, CheckMode, Engine, EngineMode, ProcBody, RunError, SetupCtx};
use spasm_topology::Topology;

/// The rollback-heavy schedule from the equivalence suite: two
/// processors race bare `fetch_add`s on a word homed at node 0, so the
/// remote RMW's dispatch-to-commit window keeps swallowing the local
/// one's commit.
fn straggler_bodies(counter: spasm_machine::Addr) -> Vec<ProcBody> {
    (0..2)
        .map(|_| {
            proc_body(async move |_, mem| {
                for _ in 0..30 {
                    mem.fetch_add(counter, 1).await;
                    mem.compute(5).await;
                }
            })
        })
        .collect()
}

fn straggler_engine() -> Engine {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let counter = setup.alloc(0, 1);
    let mut config = Machine::CLogP.config();
    config.engine = EngineMode::Optimistic { workers: 4 };
    config.check = CheckMode::Strict;
    let mut eng = Engine::with_config(
        spasm_machine::MachineKind::CLogP,
        &topo,
        config,
        setup,
        straggler_bodies(counter),
    );
    eng.set_body_factory(Box::new(move |proc| {
        straggler_bodies(counter)
            .into_iter()
            .nth(proc)
            .expect("two bodies")
    }));
    eng
}

/// Exhaustive kill sweep: count how many times an uncancelled run polls
/// the probe (the poll sites include one *before every rollback*), then
/// re-run the identical schedule killing it at each poll index in turn.
/// Every kill — including the ones landing exactly on the mid-rollback
/// polls — must surface as a typed `Cancelled`, never a panic, hang, or
/// silently completed run.
#[test]
fn killing_an_optimistic_run_at_every_poll_point_aborts_cleanly() {
    // Pass 1: count polls without cancelling; prove the schedule rolls
    // back so the sweep below necessarily covers mid-rollback polls.
    let polls = Arc::new(AtomicU64::new(0));
    let mut eng = straggler_engine();
    let seen = Arc::clone(&polls);
    eng.set_cancel_probe(Box::new(move |/* poll */| {
        seen.fetch_add(1, Ordering::Relaxed);
        false
    }));
    let report = eng.run().expect("uncancelled run completes");
    let total_polls = polls.load(Ordering::Relaxed);
    assert!(
        report.spec.rollbacks > 0,
        "schedule must roll back so the kill sweep reaches mid-rollback polls"
    );
    assert!(
        total_polls >= report.spec.rollbacks,
        "every rollback polls the probe first"
    );

    // Pass 2: kill at each poll index.
    for kill_at in 1..=total_polls {
        let mut eng = straggler_engine();
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        eng.set_cancel_probe(Box::new(move || {
            seen.fetch_add(1, Ordering::Relaxed) + 1 >= kill_at
        }));
        match eng.run() {
            Err(RunError::Cancelled { .. }) => {}
            other => {
                panic!("kill at poll {kill_at}/{total_polls}: expected Cancelled, got {other:?}")
            }
        }
    }
}

/// The durability half of the contract, through the public sweep path:
/// a zero deadline cancels every point of an optimistic journaled sweep
/// mid-speculation, the journal must end *empty* — an aborted run's
/// uncommitted history is not a verdict — and resuming that journal
/// without the deadline converges byte-for-byte on an uninterrupted
/// sweep's output.
#[test]
fn cancelled_points_never_reach_the_journal() {
    let spec = figures::by_id("F1").expect("F1 exists");
    let procs = [8usize];
    let seed = 1995;
    let sweep = SweepConfig {
        engine: EngineMode::Optimistic { workers: 4 },
        ..SweepConfig::default()
    };

    let dir = std::env::temp_dir().join("spasm-cancel-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-cancel.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Pass 1: every point is expired by the watchdog the moment it
    // starts running (the deadline is a scheduling knob — it stays out
    // of the journal fingerprint, so pass 2 can drop it).
    let doomed = SweepConfig {
        deadline: Some(Duration::ZERO),
        ..sweep
    };
    let j = SweepJournal::create(&path, spec, SizeClass::Small, &procs, seed, &doomed).unwrap();
    let data = run_figure_journaled(spec, SizeClass::Small, &procs, seed, doomed, &j, |_| {});
    assert!(j.io_error().is_none());
    assert_eq!(
        data.failed_points(),
        spec.machines.len(),
        "a zero deadline must cancel every point mid-run"
    );
    drop(j);

    // The journal recorded nothing from the aborted speculation.
    let resumed =
        SweepJournal::resume(&path, spec, SizeClass::Small, &procs, seed, &sweep).unwrap();
    assert_eq!(
        resumed.replayed(),
        0,
        "cancelled points leaked uncommitted history into the journal"
    );

    // Pass 2: resume without the deadline; the re-run must match an
    // uninterrupted sweep exactly.
    let clean = run_figure_with(spec, SizeClass::Small, &procs, seed, sweep);
    let recovered = run_figure_journaled(
        spec,
        SizeClass::Small,
        &procs,
        seed,
        sweep,
        &resumed,
        |_| {},
    );
    assert_eq!(recovered.failed_points(), 0);
    assert_eq!(recovered.to_csv(), clean.to_csv(), "recovery diverged");
    std::fs::remove_file(&path).unwrap();
}
