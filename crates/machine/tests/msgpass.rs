//! Message-passing platform tests: explicit SEND/RECEIVE, the other
//! platform family the SPASM simulator supports.

use spasm_desim::SimTime;
use spasm_machine::{proc_body, Engine, MachineKind, ProcBody, RunError, SetupCtx};
use spasm_topology::Topology;

const ALL: [MachineKind; 4] = [
    MachineKind::Pram,
    MachineKind::Target,
    MachineKind::LogP,
    MachineKind::CLogP,
];

#[test]
fn ping_pong_roundtrips_value_on_all_machines() {
    for kind in ALL {
        let topo = Topology::full(2);
        let mut setup = SetupCtx::new(2);
        let out = setup.alloc(0, 1);
        let bodies: Vec<ProcBody> = vec![
            proc_body(async move |_, mem| {
                mem.send(1, 32, 7, 41).await;
                let v = mem.recv(8).await;
                mem.write(out, v).await;
            }),
            proc_body(async move |_, mem| {
                let v = mem.recv(7).await;
                mem.send(0, 32, 8, v + 1).await;
            }),
        ];
        let r = Engine::new(kind, &topo, setup, bodies).run().unwrap();
        assert_eq!(r.final_store.read_word(out), 42, "{kind}");
    }
}

#[test]
fn recv_before_send_blocks_and_accumulates_sync() {
    let topo = Topology::full(2);
    let setup = SetupCtx::new(2);
    let bodies: Vec<ProcBody> = vec![
        proc_body(async move |_, mem| {
            mem.compute(10_000).await; // 300us of work before sending
            mem.send(1, 8, 1, 99).await;
        }),
        proc_body(async move |_, mem| {
            assert_eq!(mem.recv(1).await, 99);
        }),
    ];
    let r = Engine::new(MachineKind::Target, &topo, setup, bodies)
        .run()
        .unwrap();
    assert!(r.per_proc[1].buckets.sync >= SimTime::from_us(250));
}

#[test]
fn messages_with_same_tag_are_fifo() {
    for kind in ALL {
        let topo = Topology::full(2);
        let mut setup = SetupCtx::new(2);
        let out = setup.alloc(0, 3);
        let bodies: Vec<ProcBody> = vec![
            proc_body(async move |_, mem| {
                for i in 0..3u64 {
                    mem.send(1, 16, 5, 100 + i).await;
                }
            }),
            proc_body(async move |_, mem| {
                for i in 0..3u64 {
                    let v = mem.recv(5).await;
                    mem.write(out.offset_words(i), v).await;
                }
            }),
        ];
        let r = Engine::new(kind, &topo, setup, bodies).run().unwrap();
        for i in 0..3u64 {
            assert_eq!(
                r.final_store.read_word(out.offset_words(i)),
                100 + i,
                "{kind}"
            );
        }
    }
}

#[test]
fn tags_demultiplex_independent_streams() {
    let topo = Topology::hypercube(2);
    let mut setup = SetupCtx::new(2);
    let out = setup.alloc(0, 2);
    let bodies: Vec<ProcBody> = vec![
        proc_body(async move |_, mem| {
            mem.send(1, 8, 2, 222).await;
            mem.send(1, 8, 1, 111).await;
        }),
        proc_body(async move |_, mem| {
            // Receive in the opposite order of sending: tag matching, not
            // arrival order, decides.
            let a = mem.recv(1).await;
            let b = mem.recv(2).await;
            mem.write(out, a).await;
            mem.write(out.offset_words(1), b).await;
        }),
    ];
    let r = Engine::new(MachineKind::CLogP, &topo, setup, bodies)
        .run()
        .unwrap();
    assert_eq!(r.final_store.read_word(out), 111);
    assert_eq!(r.final_store.read_word(out.offset_words(1)), 222);
}

#[test]
fn ring_all_reduce_computes_global_sum() {
    // Each processor contributes (me+1); a token circulates the ring twice
    // (accumulate, then broadcast). Verified on every machine.
    for kind in ALL {
        let p = 8;
        let topo = Topology::hypercube(p);
        let mut setup = SetupCtx::new(p);
        let out = setup.alloc(0, p as u64);
        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                proc_body(async move |me, mem| {
                    let next = (me + 1) % p;
                    let mine = me as u64 + 1;
                    // Accumulation pass.
                    let acc = if me == 0 {
                        mine
                    } else {
                        mem.recv(1).await + mine
                    };
                    mem.send(next, 32, if next == 0 { 2 } else { 1 }, acc).await;
                    // Broadcast pass.
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
        let r = Engine::new(kind, &topo, setup, bodies).run().unwrap();
        let want = (1..=p as u64).sum::<u64>();
        for me in 0..p as u64 {
            assert_eq!(
                r.final_store.read_word(out.offset_words(me)),
                want,
                "{kind}"
            );
        }
    }
}

#[test]
fn logp_sender_is_asynchronous_target_sender_holds_circuit() {
    // On the LogP machines a send costs the sender only its NI slot; on
    // the circuit-switched target the sender drives the wire for the full
    // transmission.
    let run = |kind| {
        let topo = Topology::full(2);
        let setup = SetupCtx::new(2);
        let bodies: Vec<ProcBody> = vec![
            proc_body(async move |_, mem| {
                mem.send(1, 32, 1, 0).await;
                // Sender's finish time IS its completion of the send.
            }),
            proc_body(async move |_, mem| {
                mem.recv(1).await;
            }),
        ];
        Engine::new(kind, &topo, setup, bodies).run().unwrap()
    };
    let target = run(MachineKind::Target);
    let logp = run(MachineKind::LogP);
    // Target sender blocked ~1.6us (32B transmission); LogP sender free
    // almost immediately (first slot, no gap backlog).
    assert!(target.per_proc[0].finish >= SimTime::from_ns(1600));
    assert!(logp.per_proc[0].finish < SimTime::from_ns(200));
}

#[test]
fn missing_sender_is_a_deadlock_not_a_hang() {
    let topo = Topology::full(2);
    let setup = SetupCtx::new(2);
    let bodies: Vec<ProcBody> = vec![
        proc_body(async |_, _| {}),
        proc_body(async move |_, mem| {
            mem.recv(9).await;
        }),
    ];
    match Engine::new(MachineKind::Target, &topo, setup, bodies).run() {
        Err(RunError::Deadlock { waiting, .. }) => assert_eq!(waiting, vec![1]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn oversized_message_rejected() {
    let topo = Topology::full(2);
    let setup = SetupCtx::new(2);
    let bodies: Vec<ProcBody> = vec![
        proc_body(async move |_, mem| {
            mem.send(1, 64, 1, 0).await;
        }),
        proc_body(async move |_, mem| {
            mem.recv(1).await;
        }),
    ];
    // The malformed request is a typed error, not a process abort.
    match Engine::new(MachineKind::Target, &topo, setup, bodies).run() {
        Err(RunError::BadRequest { proc, message }) => {
            assert_eq!(proc, 0);
            assert!(message.contains("outside 1..=32"), "{message}");
        }
        other => panic!("{other:?}"),
    }
}
