//! Property-based tests of the engine: for data-race-free programs, the
//! machine model changes *time*, never *semantics* — all four machines
//! must produce the identical final memory state. (spasm-testkit)

use spasm_machine::{proc_body, sync, Addr, Engine, MachineKind, ProcBody, RunReport, SetupCtx};
use spasm_testkit::{check_with, gens, prop_assert, prop_assert_eq, Config, Gen};
use spasm_topology::Topology;

/// A race-free operation in the generated programs.
#[derive(Debug, Clone)]
enum Op {
    /// Charge some computation.
    Compute(u64),
    /// Read an arbitrary shared word (reads never race).
    Read(usize),
    /// Write a constant to one of the processor's own words.
    WriteOwn(usize, u64),
    /// Atomically add to a shared counter (commutative: final value is
    /// order-independent).
    Add(usize, u64),
    /// Lock-protected increment of a shared cell.
    LockedIncrement(usize),
    /// Barrier with all processors.
    Barrier,
}

/// Decodes a raw generated (tag, a, b) triple into a race-free op.
/// Barriers are deliberately absent from the per-processor stream —
/// their counts must match, so a uniform suffix is appended instead.
fn decode(tag: u32, a: u64, b: u64) -> Op {
    match tag {
        0 => Op::Compute(1 + a % 49),
        1 => Op::Read((a % 16) as usize),
        2 => Op::WriteOwn((a % 4) as usize, b % 1000),
        3 => Op::Add((a % 4) as usize, 1 + b % 8),
        _ => Op::LockedIncrement((a % 2) as usize),
    }
}

/// Undecoded per-processor op streams: `(tag, a, b)` triples.
type RawStreams = Vec<Vec<(u32, u64, u64)>>;

/// Per-processor raw programs plus a uniform trailing barrier count.
fn raw_programs(p: usize) -> Gen<(RawStreams, usize)> {
    let op = gens::tuple3(gens::u32s(0..5), gens::u64s(0..1_000), gens::u64s(0..1_000));
    gens::tuple2(
        gens::vecs(gens::vecs(op, 0..25), p..p + 1),
        gens::usizes(0..3),
    )
}

fn programs_of(raw: &(RawStreams, usize), p: usize) -> Vec<Vec<Op>> {
    let (streams, barriers) = raw;
    let mut programs: Vec<Vec<Op>> = streams
        .iter()
        .map(|ops| ops.iter().map(|&(t, a, b)| decode(t, a, b)).collect())
        .collect();
    programs.resize_with(p, Vec::new); // vec length is fixed to p by the gen
    for program in &mut programs {
        program.extend(std::iter::repeat_with(|| Op::Barrier).take(*barriers));
    }
    programs
}

struct World {
    shared: Addr,   // 16 read-anywhere words
    own: Addr,      // 4 words per proc
    counters: Addr, // 4 fetch-add counters
    cells: Addr,    // 2 lock-protected cells
    locks: Addr,    // 2 locks
}

fn run_world(kind: MachineKind, p: usize, programs: &[Vec<Op>]) -> (World, RunReport) {
    let topo = Topology::hypercube(p);
    let mut setup = SetupCtx::new(p);
    let shared = setup.alloc_init(0, &(0..16u64).collect::<Vec<_>>());
    let own = setup.alloc(0, (4 * p) as u64);
    let counters = setup.alloc(0, 4);
    let cells = setup.alloc(0, 2);
    let locks = setup.alloc(0, 2);
    let barrier = sync::Barrier::alloc(&mut setup, 0, p);
    let world = World {
        shared,
        own,
        counters,
        cells,
        locks,
    };

    let bodies: Vec<ProcBody> = programs
        .iter()
        .cloned()
        .map(|program| {
            proc_body(async move |me, mem| {
                let mut bar = barrier.handle();
                for op in &program {
                    match *op {
                        Op::Compute(c) => mem.compute(c).await,
                        Op::Read(w) => {
                            mem.read(shared.offset_words(w as u64)).await;
                        }
                        Op::WriteOwn(slot, v) => {
                            mem.write(own.offset_words((me * 4 + slot) as u64), v).await;
                        }
                        Op::Add(c, n) => {
                            mem.fetch_add(counters.offset_words(c as u64), n).await;
                        }
                        Op::LockedIncrement(c) => {
                            let lock = locks.offset_words(c as u64);
                            sync::lock(&mem, lock).await;
                            let cell = cells.offset_words(c as u64);
                            let v = mem.read(cell).await;
                            mem.write(cell, v + 1).await;
                            sync::unlock(&mem, lock).await;
                        }
                        Op::Barrier => bar.wait(&mem).await,
                    }
                }
            })
        })
        .collect();

    let report = Engine::new(kind, &topo, setup, bodies).run().unwrap();
    (world, report)
}

fn snapshot(world: &World, report: &RunReport, p: usize) -> Vec<u64> {
    let mut v = Vec::new();
    for w in 0..16 {
        v.push(report.final_store.read_word(world.shared.offset_words(w)));
    }
    for w in 0..(4 * p as u64) {
        v.push(report.final_store.read_word(world.own.offset_words(w)));
    }
    for c in 0..4 {
        v.push(report.final_store.read_word(world.counters.offset_words(c)));
    }
    for c in 0..2 {
        v.push(report.final_store.read_word(world.cells.offset_words(c)));
        // Locks must end free.
        v.push(report.final_store.read_word(world.locks.offset_words(c)));
    }
    v
}

/// 24 cases, matching the seed suite's proptest config for these
/// whole-engine properties.
fn cfg() -> Config {
    Config {
        cases: 24,
        ..Config::default()
    }
}

/// All four machines agree on the final memory of race-free programs.
#[test]
fn machines_agree_on_final_memory() {
    check_with(
        cfg(),
        "machines_agree_on_final_memory",
        &raw_programs(4),
        |raw| {
            let programs = programs_of(raw, 4);
            let (w0, r0) = run_world(MachineKind::Pram, 4, &programs);
            let reference = snapshot(&w0, &r0, 4);
            for kind in [MachineKind::Target, MachineKind::LogP, MachineKind::CLogP] {
                let (w, r) = run_world(kind, 4, &programs);
                prop_assert_eq!(&snapshot(&w, &r, 4), &reference, "{kind} diverged");
            }
            Ok(())
        },
    );
}

/// Execution time is bounded below by the PRAM ideal time on every
/// machine (no machine can beat unit-cost conflict-free memory).
#[test]
fn pram_is_the_floor() {
    check_with(cfg(), "pram_is_the_floor", &raw_programs(2), |raw| {
        let programs = programs_of(raw, 2);
        let (_, ideal) = run_world(MachineKind::Pram, 2, &programs);
        for kind in [MachineKind::Target, MachineKind::LogP, MachineKind::CLogP] {
            let (_, r) = run_world(kind, 2, &programs);
            prop_assert!(
                r.exec_time >= ideal.exec_time,
                "{kind} finished before the PRAM: {} < {}",
                r.exec_time,
                ideal.exec_time
            );
        }
        Ok(())
    });
}

/// Bucket sanity on every machine: totals are internally consistent.
#[test]
fn buckets_are_consistent() {
    check_with(cfg(), "buckets_are_consistent", &raw_programs(2), |raw| {
        let programs = programs_of(raw, 2);
        for kind in [MachineKind::Target, MachineKind::LogP, MachineKind::CLogP] {
            let (_, r) = run_world(kind, 2, &programs);
            // Per-proc finish times never exceed the reported exec time.
            for s in &r.per_proc {
                prop_assert!(s.finish <= r.exec_time);
            }
            // Message byte counts are consistent with message counts.
            prop_assert!(r.totals.bytes >= r.totals.msgs * 8);
            prop_assert!(r.totals.bytes <= r.totals.msgs * 32);
        }
        Ok(())
    });
}
