//! Differential certification of the optimistic (Time Warp) engine.
//!
//! The optimistic engine's contract is *bit-identical output*: for every
//! application × machine × fault-plan cell, the `RunReport` — simulated
//! times, per-processor buckets, event counts, traffic summaries, final
//! memory, fault counters, interval telemetry — must equal the
//! sequential engine's byte for byte. Equivalence is proven here, not
//! assumed: the full matrix runs on both engines and the reports are
//! compared field by field (only host wall time and the speculation
//! counters, which are execution metadata, are excluded).

use spasm_apps::{AppId, SizeClass};
use spasm_core::sweep::{run_figure_with, SweepConfig};
use spasm_core::{figures, Machine};
use spasm_machine::{
    proc_body, CheckMode, Engine, EngineMode, FaultPlan, ProcBody, RunReport, SetupCtx,
    TelemetryConfig,
};
use spasm_topology::Topology;

/// The four machine characterizations of the paper (the A1 variant is
/// exercised by the ablation suite, not the equivalence matrix).
const MACHINES: [Machine; 4] = [
    Machine::Pram,
    Machine::Target,
    Machine::LogP,
    Machine::CLogP,
];

/// Processor counts swept per cell.
const PROCS: [usize; 4] = [1, 2, 4, 8];

/// Fault streams per cell: a healthy run plus two adversarial seeds.
const FAULT_SEEDS: [Option<u64>; 3] = [None, Some(11), Some(29)];

/// Everything in a [`RunReport`] that both engines must reproduce
/// bit-identically, rendered through the fields' `Debug` forms (exact —
/// `SimTime` is integral nanoseconds and the f64s print with full
/// roundtrip precision under `{:?}`). Host wall time and the speculation
/// counters are execution metadata and deliberately absent.
fn report_digest(r: &RunReport) -> String {
    format!(
        "kind={:?} exec={:?} per_proc={:?} totals={:?} events={} summary={:?} \
         regions={:?} faults={:?} telemetry={:?} store={:?}",
        r.kind,
        r.exec_time,
        r.per_proc,
        r.totals,
        r.events,
        r.summary,
        r.region_traffic,
        r.faults,
        r.telemetry,
        r.final_store,
    )
}

/// Runs one cell of the matrix and returns its report. Mirrors the
/// experiment layer's setup (builder, engine, body factory) without the
/// metric extraction, so the test can compare whole reports.
fn run_cell(
    app: AppId,
    machine: Machine,
    procs: usize,
    seed: u64,
    faults: Option<u64>,
    engine: EngineMode,
) -> RunReport {
    let topo = Topology::try_of_kind(spasm_topology::TopologyKind::Hypercube, procs)
        .expect("power-of-two processor counts");
    let mut config = machine.config();
    config.engine = engine;
    config.telemetry = Some(TelemetryConfig::every_us(50));
    config.faults = faults.map(FaultPlan::adversarial);
    // Strict checking on healthy runs certifies the speculation ledger
    // exactly; injected faults are credited only leniently, so faulted
    // cells run the lenient checker.
    config.check = if faults.is_some() {
        CheckMode::On
    } else {
        CheckMode::Strict
    };
    let mut setup = SetupCtx::new(procs);
    let built = app.instantiate(SizeClass::Test).build(&mut setup, seed);
    let mut eng = Engine::with_config(machine.kind(), &topo, config, setup, built.bodies);
    if engine != EngineMode::Sequential {
        eng.set_body_factory(Box::new(move |proc| {
            let mut s = SetupCtx::new(procs);
            let built = app.instantiate(SizeClass::Test).build(&mut s, seed);
            built
                .bodies
                .into_iter()
                .nth(proc)
                .expect("factory proc within range")
        }));
    }
    let report = eng
        .run()
        .unwrap_or_else(|e| panic!("{app} {machine} p={procs} faults={faults:?} {engine}: {e}"));
    (built.verify)(&report.final_store)
        .unwrap_or_else(|e| panic!("{app} {machine} p={procs} {engine}: verify: {e}"));
    report
}

/// The tentpole acceptance bar: every app × machine × procs × fault-plan
/// cell produces a byte-identical report on both engines, and the
/// optimistic engine demonstrably speculates (and rolls back) somewhere
/// in the matrix rather than degenerating to sequential execution.
#[test]
fn full_matrix_is_bit_identical_across_engines() {
    let mut cells = 0u64;
    let mut speculated = 0u64;
    let mut rollbacks = 0u64;
    for app in AppId::ALL {
        for machine in MACHINES {
            for procs in PROCS {
                for faults in FAULT_SEEDS {
                    let seq = run_cell(app, machine, procs, 1995, faults, EngineMode::Sequential);
                    let opt = run_cell(
                        app,
                        machine,
                        procs,
                        1995,
                        faults,
                        EngineMode::Optimistic { workers: 4 },
                    );
                    assert_eq!(
                        report_digest(&seq),
                        report_digest(&opt),
                        "{app} {machine} p={procs} faults={faults:?}: engines diverged"
                    );
                    assert_eq!(seq.spec.spec_resumes, 0, "sequential engine speculated");
                    cells += 1;
                    speculated += opt.spec.spec_resumes;
                    rollbacks += opt.spec.rollbacks;
                }
            }
        }
    }
    assert_eq!(cells, 240, "the matrix shrank; the certificate is weaker");
    assert!(
        speculated > 0,
        "no cell speculated: the optimistic engine degenerated to sequential"
    );
    assert!(
        rollbacks > 0,
        "no cell rolled back: mis-speculation recovery is untested by the matrix"
    );
}

/// An adversarial straggler schedule that *provably* triggers rollback:
/// two processors race bare `fetch_add`s on one shared word with no lock
/// between them. Each RMW's prediction samples memory at dispatch, but
/// the word is homed at node 0, so the remote processor's RMW spans a
/// full round trip — a window the local processor's RMW commits inside
/// again and again. The speculated value is stale, the commit refutes
/// it, and the engine must annihilate and replay. The increments are
/// commutative, so the committed result — and the whole report — stays
/// bit-identical to the sequential engine.
#[test]
fn straggler_write_forces_rollback_with_identical_results() {
    fn bodies(counter: spasm_machine::Addr) -> Vec<ProcBody> {
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

    let run = |engine: EngineMode| -> RunReport {
        let topo = Topology::full(2);
        let mut setup = SetupCtx::new(2);
        let counter = setup.alloc(0, 1);
        let mut config = Machine::CLogP.config();
        config.engine = engine;
        config.check = CheckMode::Strict;
        let mut eng = Engine::with_config(
            spasm_machine::MachineKind::CLogP,
            &topo,
            config,
            setup,
            bodies(counter),
        );
        if engine != EngineMode::Sequential {
            eng.set_body_factory(Box::new(move |proc| {
                bodies(counter).into_iter().nth(proc).expect("two bodies")
            }));
        }
        let r = eng.run().expect("straggler schedule completes");
        assert_eq!(r.final_store.read_word(counter), 60, "lost increment");
        r
    };

    let seq = run(EngineMode::Sequential);
    let opt = run(EngineMode::Optimistic { workers: 4 });
    assert!(
        opt.spec.rollbacks > 0,
        "the contended lock must refute at least one speculated RMW \
         (got {} speculations, {} rollbacks)",
        opt.spec.spec_resumes,
        opt.spec.rollbacks
    );
    assert_eq!(
        opt.spec.annihilated, opt.spec.rollbacks,
        "every rollback must annihilate exactly one speculation"
    );
    assert_eq!(
        report_digest(&seq),
        report_digest(&opt),
        "rollback recovery perturbed committed state"
    );
}

/// The sweep layer built on top inherits the equivalence: a whole figure
/// swept under `SweepConfig::engine = optimistic` renders byte-identical
/// CSV and telemetry JSONL to the sequential sweep.
#[test]
fn figure_sweep_output_is_byte_identical_across_engines() {
    let spec = figures::by_id("F1").expect("F1 exists");
    let sweep = |engine| SweepConfig {
        engine,
        telemetry: Some(TelemetryConfig::every_us(100)),
        check: CheckMode::Strict,
        ..SweepConfig::default()
    };
    let seq = run_figure_with(
        spec,
        SizeClass::Test,
        &[1, 2, 4],
        1995,
        sweep(EngineMode::Sequential),
    );
    let opt = run_figure_with(
        spec,
        SizeClass::Test,
        &[1, 2, 4],
        1995,
        sweep(EngineMode::Optimistic { workers: 4 }),
    );
    assert_eq!(seq.failed_points(), 0);
    assert_eq!(opt.failed_points(), 0);
    assert_eq!(seq.to_csv(), opt.to_csv(), "CSV diverged across engines");
    assert_eq!(
        seq.to_telemetry_jsonl(),
        opt.to_telemetry_jsonl(),
        "telemetry JSONL diverged across engines"
    );
    assert_eq!(
        seq.render_table(),
        opt.render_table(),
        "rendered table diverged across engines"
    );
}

/// Diagnostic probe (run with `--ignored --nocapture`): prints which
/// cells of the matrix actually roll back.
#[test]
#[ignore]
fn probe_rollback_cells() {
    for app in AppId::ALL {
        for machine in MACHINES {
            for procs in PROCS {
                for faults in FAULT_SEEDS {
                    let opt = run_cell(
                        app,
                        machine,
                        procs,
                        1995,
                        faults,
                        EngineMode::Optimistic { workers: 4 },
                    );
                    if opt.spec.rollbacks > 0 {
                        println!(
                            "{app} {machine} p={procs} faults={faults:?}: \
                             spec={} hits={} rollbacks={}",
                            opt.spec.spec_resumes, opt.spec.spec_hits, opt.spec.rollbacks
                        );
                    }
                }
            }
        }
    }
}
