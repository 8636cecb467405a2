//! Time Warp payoff: wall-clock of a single large run under the
//! sequential engine vs. the optimistic engine at 4 workers.
//!
//! The optimistic engine's *output* is bit-identical to sequential
//! (see `crates/core/tests/optimistic_equivalence.rs`); this bench
//! records what the speculation buys in wall-clock, and at what
//! rollback cost. EP on CLogP is the headline config: its iterations
//! are compute-heavy with ack-class memory traffic, so nearly every
//! resume is speculated ahead of its commit. At this size EP's one racing
//! counter collides only past the replay horizon, where inexact
//! speculation has already shut off — so the expected rollback rate is
//! zero, and the gauges exist to catch it coming back (e.g. a horizon
//! raise re-exposing replay storms).
//!
//! Gauges (iters == 1 rows in the JSON):
//!
//! * `ep_clogp_p4/speedup_x1000` — sequential min-wall over optimistic
//!   min-wall across the timed paired runs, scaled by 1000 (so 1500 =
//!   1.5× faster). The ISSUE acceptance bar is >= 1500.
//! * `ep_clogp_p4/rollbacks_per_100k_events`, `replayed_events`,
//!   `spec_resumes`, `spec_hits` — speculation economics of one run,
//!   so a regression in prediction quality is visible even when the
//!   wall-clock noise hides it.

use std::time::{Duration, Instant};

use spasm_apps::{AppId, SizeClass};
use spasm_bench::harness::Harness;
use spasm_core::Machine;
use spasm_machine::{Engine, EngineMode, RunReport, SetupCtx};
use spasm_topology::{Topology, TopologyKind};

const APP: AppId = AppId::Ep;
const MACHINE: Machine = Machine::CLogP;
const PROCS: usize = 4;
const SIZE: SizeClass = SizeClass::Full;
const SEED: u64 = 1995;
const WORKERS: usize = 4;

fn engine(mode: EngineMode) -> Engine {
    let topo = Topology::try_of_kind(TopologyKind::Hypercube, PROCS).expect("p=4 hypercube");
    let mut config = MACHINE.config();
    config.engine = mode;
    let mut setup = SetupCtx::new(PROCS);
    let built = APP.instantiate(SIZE).build(&mut setup, SEED);
    let mut eng = Engine::with_config(MACHINE.kind(), &topo, config, setup, built.bodies);
    if mode != EngineMode::Sequential {
        eng.set_body_factory(Box::new(|proc| {
            let mut setup = SetupCtx::new(PROCS);
            let built = APP.instantiate(SIZE).build(&mut setup, SEED);
            built.bodies.into_iter().nth(proc).expect("proc body")
        }));
    }
    eng
}

fn run(mode: EngineMode) -> (RunReport, Duration) {
    let mut eng = engine(mode);
    let t0 = Instant::now();
    let report = eng.run().expect("run completes");
    (report, t0.elapsed())
}

fn main() {
    let mut h = Harness::new("timewarp_speed");
    let optimistic = EngineMode::Optimistic { workers: WORKERS };

    h.bench_with_setup(
        "ep_clogp_p4/sequential",
        || engine(EngineMode::Sequential),
        |mut eng| eng.run().expect("sequential run completes"),
    );
    h.bench_with_setup(
        "ep_clogp_p4/optimistic_w4",
        || engine(optimistic),
        |mut eng| eng.run().expect("optimistic run completes"),
    );

    // Headline speedup gauge: min-wall over explicit paired runs, so
    // the JSON carries the acceptance-bar number directly (the bench
    // rows above time the same workload but keep their own stats).
    let pairs = 5;
    let seq_min = (0..pairs).map(|_| run(EngineMode::Sequential).1).min();
    let opt_min = (0..pairs).map(|_| run(optimistic).1).min();
    let (seq_min, opt_min) = (seq_min.expect("pairs > 0"), opt_min.expect("pairs > 0"));
    h.gauge(
        "ep_clogp_p4/sequential_minwall_ns",
        seq_min.as_nanos().min(u128::from(u64::MAX)) as u64,
    );
    h.gauge(
        "ep_clogp_p4/optimistic_w4_minwall_ns",
        opt_min.as_nanos().min(u128::from(u64::MAX)) as u64,
    );
    h.gauge(
        "ep_clogp_p4/speedup_x1000",
        (seq_min.as_nanos() * 1000 / opt_min.as_nanos().max(1)) as u64,
    );

    // Speculation economics of one optimistic run. The report is
    // deterministic (same seed, same schedule), so these are exact
    // counters, not samples.
    let (report, _) = run(optimistic);
    let spec = &report.spec;
    assert!(spec.spec_resumes > 0, "EP must actually speculate");
    h.gauge("ep_clogp_p4/spec_resumes", spec.spec_resumes);
    h.gauge("ep_clogp_p4/spec_hits", spec.spec_hits);
    h.gauge("ep_clogp_p4/rollbacks", spec.rollbacks);
    h.gauge("ep_clogp_p4/replayed_events", spec.replayed_events);
    h.gauge(
        "ep_clogp_p4/rollbacks_per_100k_events",
        spec.rollbacks * 100_000 / report.events.max(1),
    );

    h.finish();
}
