//! Cancellation must be clean: aborting a run at any poll point ends in
//! a typed [`RunError::Cancelled`] with every processor future dropped,
//! and *nothing from an aborted run becomes durable*: a cancelled point
//! never reaches the sweep journal, so a later resume re-runs it from
//! scratch and converges on the same bytes as an uninterrupted sweep.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spasm_apps::SizeClass;
use spasm_core::journal::SweepJournal;
use spasm_core::sweep::{run_figure, SweepConfig};
use spasm_core::{figures, Machine};
use spasm_machine::{proc_body, CheckMode, Engine, MachineKind, ProcBody, RunError, SetupCtx};
use spasm_topology::Topology;

/// Bumps its counter when dropped; each processor body owns one, so the
/// counter reads how many processor futures are gone.
struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

const PROCS: usize = 4;

/// Four processors race `fetch_add`s on one word homed at node 0 between
/// short computes, under the strict checker: enough events for the
/// engine to poll its cancellation probe a few dozen times.
fn racing_engine(dropped: &Arc<AtomicUsize>) -> Engine {
    let topo = Topology::full(PROCS);
    let mut setup = SetupCtx::new(PROCS);
    let counter = setup.alloc(0, 1);
    let bodies: Vec<ProcBody> = (0..PROCS)
        .map(|_| {
            let guard = Guard(Arc::clone(dropped));
            proc_body(async move |_, mem| {
                let _guard = guard;
                for _ in 0..3_000 {
                    mem.fetch_add(counter, 1).await;
                    mem.compute(5).await;
                }
            })
        })
        .collect();
    let mut config = Machine::CLogP.config();
    config.check = CheckMode::Strict;
    Engine::with_config(MachineKind::CLogP, &topo, config, setup, bodies)
}

/// Exhaustive kill sweep: count how many times an uncancelled run polls
/// the probe, then re-run the identical schedule killing it at each poll
/// index in turn. Every kill must surface as a typed `Cancelled` — never
/// a panic, hang, or silently completed run — and dropping the engine
/// must drop every processor future.
#[test]
fn killing_a_run_at_every_poll_point_aborts_cleanly() {
    let polls = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicUsize::new(0));
    let mut eng = racing_engine(&dropped);
    let seen = Arc::clone(&polls);
    eng.set_cancel_probe(Box::new(move || {
        seen.fetch_add(1, Ordering::Relaxed);
        false
    }));
    eng.run().expect("uncancelled run completes");
    drop(eng);
    assert_eq!(dropped.load(Ordering::SeqCst), PROCS);
    let total_polls = polls.load(Ordering::Relaxed);
    assert!(
        total_polls > 10,
        "only {total_polls} polls: too few to sweep"
    );

    for kill_at in 1..=total_polls {
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut eng = racing_engine(&dropped);
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
        assert_eq!(
            calls.load(Ordering::Relaxed),
            kill_at,
            "probe polled past the kill"
        );
        drop(eng);
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            PROCS,
            "kill at poll {kill_at}: a processor future outlived the engine"
        );
    }
}

/// The durability half of the contract, through the public sweep path:
/// a zero deadline cancels every point of a journaled sweep mid-run, the
/// journal must end *empty* — an aborted run is not a verdict — and
/// resuming that journal
/// without the deadline converges byte-for-byte on an uninterrupted
/// sweep's output.
#[test]
fn cancelled_points_never_reach_the_journal() {
    let spec = figures::by_id("F1").expect("F1 exists");
    let procs = [8usize];
    let seed = 1995;
    let sweep = SweepConfig::default();

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
    let data = run_figure(
        spec,
        SizeClass::Small,
        &procs,
        seed,
        doomed,
        Some(&j),
        |_| {},
    );
    assert!(j.io_error().is_none());
    assert_eq!(
        data.failed_points(),
        spec.machines.len(),
        "a zero deadline must cancel every point mid-run"
    );
    drop(j);

    // The journal recorded nothing from the aborted runs.
    let resumed =
        SweepJournal::resume(&path, spec, SizeClass::Small, &procs, seed, &sweep).unwrap();
    assert_eq!(
        resumed.replayed(),
        0,
        "cancelled points leaked into the journal"
    );

    // Pass 2: resume without the deadline; the re-run must match an
    // uninterrupted sweep exactly.
    let clean = run_figure(spec, SizeClass::Small, &procs, seed, sweep, None, |_| {});
    let recovered = run_figure(
        spec,
        SizeClass::Small,
        &procs,
        seed,
        sweep,
        Some(&resumed),
        |_| {},
    );
    assert_eq!(recovered.failed_points(), 0);
    assert_eq!(recovered.to_csv(), clean.to_csv(), "recovery diverged");
    std::fs::remove_file(&path).unwrap();
}
