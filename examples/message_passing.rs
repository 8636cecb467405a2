//! The message-passing platform: explicit SENDs and RECEIVEs, the other
//! family of machines SPASM simulates. LogP was designed for exactly this
//! style of machine, so this example puts the abstraction in its native
//! habitat: a ring all-reduce and a naive all-to-all exchange, timed on
//! the circuit-switched target network and on the L/g abstraction.
//!
//! ```text
//! cargo run --release --example message_passing [procs]
//! ```

use spasm::machine::{proc_body, Engine, MachineKind, ProcBody, RunReport, SetupCtx};
use spasm::topology::Topology;

fn ring_all_reduce(kind: MachineKind, p: usize) -> RunReport {
    let topo = Topology::hypercube(p);
    let mut setup = SetupCtx::new(p);
    let out = setup.alloc(0, p as u64);
    let bodies: Vec<ProcBody> = (0..p)
        .map(|_| {
            proc_body(async move |me, mem| {
                let next = (me + 1) % p;
                let mine = (me as u64 + 1) * 10;
                let acc = if me == 0 {
                    mine
                } else {
                    mem.recv(1).await + mine
                };
                mem.send(next, 32, if next == 0 { 2 } else { 1 }, acc).await;
                let total = if me == 0 {
                    let t = mem.recv(2).await;
                    mem.send(next, 32, 3, t).await;
                    t
                } else {
                    let t = mem.recv(3).await;
                    if next != 0 {
                        mem.send(next, 32, 3, t).await;
                    }
                    t
                };
                mem.write(out.offset_words(me as u64), total).await;
            })
        })
        .collect();
    Engine::new(kind, &topo, setup, bodies).run().unwrap()
}

fn all_to_all(kind: MachineKind, p: usize) -> RunReport {
    let topo = Topology::hypercube(p);
    let mut setup = SetupCtx::new(p);
    let sums = setup.alloc(0, p as u64);
    let bodies: Vec<ProcBody> = (0..p)
        .map(|_| {
            proc_body(async move |me, mem| {
                // Stagger destinations so everyone is not hammering the
                // same receiver at once.
                for step in 1..p {
                    let dst = (me + step) % p;
                    mem.send(dst, 32, me as u64, (me * 1000 + dst) as u64).await;
                }
                let mut sum = 0;
                for src in 0..p {
                    if src != me {
                        sum += mem.recv(src as u64).await;
                    }
                }
                mem.write(sums.offset_words(me as u64), sum).await;
            })
        })
        .collect();
    Engine::new(kind, &topo, setup, bodies).run().unwrap()
}

fn main() {
    let p: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("procs must be a power of two"))
        .unwrap_or(8);

    for (name, runner) in [
        (
            "ring all-reduce",
            ring_all_reduce as fn(MachineKind, usize) -> RunReport,
        ),
        ("all-to-all", all_to_all),
    ] {
        println!("{name} on {p} processors (hypercube):");
        for kind in [MachineKind::Target, MachineKind::LogP] {
            let r = runner(kind, p);
            println!(
                "  {:>7}: finish {:>9.1}us  latency {:>8.1}us  contention {:>8.1}us  msgs {:>5}",
                kind.to_string(),
                r.exec_time_us(),
                r.latency_overhead_us(),
                r.contention_overhead_us(),
                r.summary.net_messages,
            );
        }
        println!();
    }
    println!(
        "On a pure message-passing workload the LogP machine and the target\n\
         agree far more closely than they do on shared-memory applications —\n\
         with no memory system to abstract, only the network model differs,\n\
         which is the setting LogP was originally validated in (Culler et\n\
         al. used the CM-5)."
    );
}
