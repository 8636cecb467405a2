//! Engine-level telemetry: interval invariants on whole simulations.

use spasm_machine::{
    proc_body, sync, Engine, IntervalRecord, MachineConfig, MachineKind, ProcBody, SetupCtx,
    TelemetryConfig,
};
use spasm_topology::Topology;

const ALL_MACHINES: [MachineKind; 4] = [
    MachineKind::Pram,
    MachineKind::Target,
    MachineKind::LogP,
    MachineKind::CLogP,
];

/// A small mixed workload: compute, shared reads/writes, a barrier, and
/// explicit messages, so every overhead class has a chance to move.
fn workload(p: usize) -> (Topology, SetupCtx, Vec<ProcBody>) {
    let topo = Topology::hypercube(p);
    let mut setup = SetupCtx::new(p);
    let shared = setup.alloc(0, p as u64);
    let barrier = sync::Barrier::alloc(&mut setup, 0, p);
    let bodies: Vec<ProcBody> = (0..p)
        .map(|me| {
            let mut bh = barrier.handle();
            proc_body(async move |_, mem| {
                for round in 0..4u64 {
                    mem.compute(50).await;
                    let v = mem.read(shared.offset_words(((me + 1) % p) as u64)).await;
                    mem.write(shared.offset_words(me as u64), v + round).await;
                    mem.send((me + 1) % p, 16, 7, round).await;
                    mem.recv(7).await;
                    bh.wait(&mem).await;
                }
            })
        })
        .collect();
    (topo, setup, bodies)
}

fn run_with_telemetry(kind: MachineKind, interval_us: u64) -> spasm_machine::RunReport {
    let (topo, setup, bodies) = workload(4);
    let config = MachineConfig {
        telemetry: Some(TelemetryConfig::every_us(interval_us)),
        ..MachineConfig::default()
    };
    Engine::with_config(kind, &topo, config, setup, bodies)
        .run()
        .unwrap()
}

#[test]
fn telemetry_off_by_default_and_report_is_unchanged() {
    let (topo, setup, bodies) = workload(4);
    let r = Engine::new(MachineKind::Target, &topo, setup, bodies)
        .run()
        .unwrap();
    assert!(r.telemetry.is_empty());

    let with = run_with_telemetry(MachineKind::Target, 5);
    assert_eq!(r.exec_time, with.exec_time, "telemetry must be passive");
    assert_eq!(r.events, with.events);
    assert_eq!(r.totals, with.totals);
}

#[test]
fn intervals_conserve_events_and_stay_monotone_on_all_machines() {
    for kind in ALL_MACHINES {
        let r = run_with_telemetry(kind, 5);
        assert!(!r.telemetry.is_empty(), "{kind}");
        let total: u64 = r.telemetry.iter().map(|i| i.events).sum();
        assert_eq!(total, r.events, "{kind}: interval events must conserve");
        for w in r.telemetry.windows(2) {
            assert!(w[0].index < w[1].index, "{kind}: indices strictly rise");
            assert!(w[0].t1_ns <= w[1].t0_ns, "{kind}: buckets must not overlap");
        }
        for i in &r.telemetry {
            assert!(i.t0_ns < i.t1_ns, "{kind}: empty span");
            assert!(i.events > 0, "{kind}: empty buckets are skipped");
        }
        let busy: u64 = r.telemetry.iter().map(|i| i.busy_ns).sum();
        assert_eq!(busy, r.totals.busy.as_ns(), "{kind}: busy deltas conserve");
        let sync_ns: u64 = r.telemetry.iter().map(|i| i.sync_ns).sum();
        assert_eq!(
            sync_ns,
            r.totals.sync.as_ns(),
            "{kind}: sync deltas conserve"
        );
    }
}

#[test]
fn telemetry_is_deterministic_across_runs() {
    for kind in ALL_MACHINES {
        let a: Vec<IntervalRecord> = run_with_telemetry(kind, 2).telemetry;
        let b: Vec<IntervalRecord> = run_with_telemetry(kind, 2).telemetry;
        assert_eq!(a, b, "{kind}");
    }
}

#[test]
fn cached_machines_report_hit_and_miss_deltas() {
    let r = run_with_telemetry(MachineKind::Target, 5);
    let hits: u64 = r.telemetry.iter().map(|i| i.cache_hits).sum();
    let misses: u64 = r.telemetry.iter().map(|i| i.cache_misses).sum();
    assert_eq!(hits, r.summary.cache_hits);
    assert_eq!(misses, r.summary.cache_misses);
}
