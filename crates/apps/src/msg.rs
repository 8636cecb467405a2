//! Message-passing variants of the application kernels.
//!
//! SPASM simulates message-passing platforms as well as shared-memory ones
//! (the authors' companion scalability study ran the same suite on both).
//! These kernels use explicit SEND/RECEIVE (`MemCtx::send` / `MemCtx::recv`)
//! for *all* interprocessor communication; shared memory is touched only to
//! deposit final results for verification.
//!
//! Two kernels suffice to exercise the platform's characteristic patterns:
//!
//! * [`MsgEp`] — tree reduction + broadcast (the message-passing shape of
//!   EP's accumulate-and-signal ending);
//! * [`MsgFft`] — per-stage butterfly **chunk exchanges**: in the remote
//!   stages each processor swaps its whole chunk with its partner, the
//!   message-passing analogue of the shared-memory version's remote reads.

use std::f64::consts::PI;

use spasm_machine::{proc_body, ProcBody, SetupCtx};

use crate::common::{block_range, close, proc_rng};
use crate::{App, BuiltApp, SizeClass};
use spasm_prng::Rng;

/// Message-passing EP: private statistics, binary-tree reduction of the
/// bin counts to processor 0, tree broadcast of a completion token.
#[derive(Debug, Clone, Copy)]
pub struct MsgEp {
    /// Total pairs across all processors.
    pub pairs: usize,
}

const BINS: usize = 10;
const CYCLES_PER_PAIR: u64 = 120;

impl MsgEp {
    /// Creates the kernel at a preset size.
    pub fn new(size: SizeClass) -> Self {
        MsgEp {
            pairs: super::Ep::new(size).pairs,
        }
    }

    /// Creates the kernel with an explicit pair count.
    pub fn with_pairs(pairs: usize) -> Self {
        MsgEp { pairs }
    }
}

fn ep_local_bins(seed: u64, proc: usize, lo: usize, hi: usize) -> [u64; BINS] {
    let mut rng = proc_rng(seed, proc);
    let mut q = [0u64; BINS];
    for _ in lo..hi {
        let x: f64 = rng.gen_range(-1.0..1.0);
        let y: f64 = rng.gen_range(-1.0..1.0);
        let t = x * x + y * y;
        if t > 0.0 && t <= 1.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let l = (x * f).abs().max((y * f).abs()) as usize;
            if l < BINS {
                q[l] += 1;
            }
        }
    }
    q
}

impl App for MsgEp {
    fn name(&self) -> &'static str {
        "msg-ep"
    }

    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp {
        let p = setup.nodes();
        let pairs = self.pairs;
        let out = setup.alloc(0, BINS as u64);
        let done = setup.alloc(0, 1);

        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                proc_body(async move |me, mem| {
                    let (lo, hi) = block_range(pairs, p, me);
                    mem.compute(CYCLES_PER_PAIR * (hi - lo) as u64).await;
                    let mut bins = ep_local_bins(seed, me, lo, hi);

                    // Binary-tree reduction: at round r, processors with
                    // bit r set send their bins to (me - 2^r) and leave.
                    let mut round = 0;
                    loop {
                        let bit = 1usize << round;
                        if bit >= p {
                            break;
                        }
                        if me & bit != 0 {
                            // One message per bin (tag = bin index).
                            for (l, &count) in bins.iter().enumerate() {
                                mem.send(me - bit, 32, l as u64, count).await;
                            }
                            break;
                        } else if me + bit < p {
                            for (l, bin) in bins.iter_mut().enumerate() {
                                *bin += mem.recv(l as u64).await;
                            }
                        }
                        round += 1;
                    }

                    // Tree broadcast of the completion token from proc 0.
                    const DONE_TAG: u64 = 100;
                    if me == 0 {
                        for (l, &count) in bins.iter().enumerate() {
                            mem.write(out.offset_words(l as u64), count).await;
                        }
                    } else {
                        mem.recv(DONE_TAG).await;
                    }
                    let mut bit = 1usize;
                    while bit < p {
                        if me & (bit - 1) == 0 && me & bit == 0 && me + bit < p {
                            mem.send(me + bit, 8, DONE_TAG, 1).await;
                        }
                        bit <<= 1;
                    }
                    if me == p - 1 || p == 1 {
                        mem.write(done, 1).await;
                    }
                })
            })
            .collect();

        let verify: crate::Verifier = Box::new(move |store| {
            let mut want = [0u64; BINS];
            for proc in 0..p {
                let (lo, hi) = block_range(pairs, p, proc);
                let q = ep_local_bins(seed, proc, lo, hi);
                for l in 0..BINS {
                    want[l] += q[l];
                }
            }
            for (l, &w) in want.iter().enumerate() {
                let got = store.read_word(out.offset_words(l as u64));
                if got != w {
                    return Err(format!("bin {l}: got {got}, want {w}"));
                }
            }
            Ok(())
        });
        BuiltApp { bodies, verify }
    }
}

/// Message-passing FFT: radix-2 DIF where remote stages exchange whole
/// chunks between butterfly partners (payload words stream as f64 bit
/// patterns, one element component per message).
#[derive(Debug, Clone, Copy)]
pub struct MsgFft {
    /// Transform length (power of two, ≥ processor count).
    pub n: usize,
}

const CYCLES_PER_BUTTERFLY: u64 = 40;

impl MsgFft {
    /// Creates the kernel at a preset size.
    pub fn new(size: SizeClass) -> Self {
        MsgFft {
            n: super::Fft::new(size).n,
        }
    }

    /// Creates the kernel with an explicit length.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is less than 2.
    pub fn with_len(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2);
        MsgFft { n }
    }
}

fn msg_input(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = proc_rng(seed, usize::MAX - 1);
    (0..n)
        .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

fn msg_dft(x: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = (0.0, 0.0);
            for (t, &(re, im)) in x.iter().enumerate() {
                let ang = -2.0 * PI * (k * t % n) as f64 / n as f64;
                let (s, c) = ang.sin_cos();
                acc.0 += re * c - im * s;
                acc.1 += re * s + im * c;
            }
            acc
        })
        .collect()
}

impl App for MsgFft {
    fn name(&self) -> &'static str {
        "msg-fft"
    }

    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp {
        let p = setup.nodes();
        let n = self.n;
        assert!(n >= p, "need at least one element per processor");
        let chunk = n / p;
        let signal = msg_input(n, seed);
        // Output deposited to shared memory for verification only.
        let out = setup.alloc(0, (2 * n) as u64);
        let stages = n.trailing_zeros() as usize;

        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let signal = signal.clone();
                proc_body(async move |me, mem| {
                    let lo = me * chunk;
                    // Local chunk, computed natively; communication is
                    // explicit chunk exchange.
                    let mut data: Vec<(f64, f64)> = signal[lo..lo + chunk].to_vec();

                    for stage in 0..stages {
                        let m = n >> stage;
                        let half = m / 2;
                        if half >= chunk {
                            // Remote stage: swap chunks with the partner.
                            let partner = me ^ (half / chunk);
                            // Exchange: send all components, then receive.
                            for (i, &(re, im)) in data.iter().enumerate() {
                                mem.send(partner, 32, (2 * i) as u64, re.to_bits()).await;
                                mem.send(partner, 32, (2 * i + 1) as u64, im.to_bits())
                                    .await;
                            }
                            let mut other: Vec<(f64, f64)> = Vec::with_capacity(chunk);
                            for i in 0..chunk {
                                let re = f64::from_bits(mem.recv((2 * i) as u64).await);
                                let im = f64::from_bits(mem.recv((2 * i + 1) as u64).await);
                                other.push((re, im));
                            }
                            mem.compute(CYCLES_PER_BUTTERFLY * chunk as u64).await;
                            let upper = me < partner;
                            for i in 0..chunk {
                                let k = lo + i;
                                let (ore, oim) = data[i];
                                let (pre, pim) = other[i];
                                data[i] = if upper {
                                    (ore + pre, oim + pim)
                                } else {
                                    let t = k % m - half;
                                    let ang = -2.0 * PI * t as f64 / m as f64;
                                    let (s, c) = ang.sin_cos();
                                    let (dre, dim) = (pre - ore, pim - oim);
                                    (dre * c - dim * s, dre * s + dim * c)
                                };
                            }
                        } else {
                            // Local stage: in-chunk butterflies.
                            mem.compute(CYCLES_PER_BUTTERFLY * (chunk / 2).max(1) as u64)
                                .await;
                            let mut next = data.clone();
                            for i in 0..chunk {
                                let k = lo + i;
                                let pos = k % m;
                                let pi = if pos < half { i + half } else { i - half };
                                let (ore, oim) = data[i];
                                let (pre, pim) = data[pi];
                                next[i] = if pos < half {
                                    (ore + pre, oim + pim)
                                } else {
                                    let t = pos - half;
                                    let ang = -2.0 * PI * t as f64 / m as f64;
                                    let (s, c) = ang.sin_cos();
                                    let (dre, dim) = (pre - ore, pim - oim);
                                    (dre * c - dim * s, dre * s + dim * c)
                                };
                            }
                            data = next;
                        }
                    }

                    // Gather results to processor 0 by message, so every
                    // byte of interprocessor traffic is an explicit send;
                    // processor 0's deposits into `out` are local writes.
                    const GATHER: u64 = 1 << 20;
                    if me == 0 {
                        for (i, &(re, im)) in data.iter().enumerate() {
                            mem.write_f64(out.offset_words((2 * i) as u64), re).await;
                            mem.write_f64(out.offset_words((2 * i + 1) as u64), im)
                                .await;
                        }
                        for k in chunk..n {
                            let re = f64::from_bits(mem.recv(GATHER + 2 * k as u64).await);
                            let im = f64::from_bits(mem.recv(GATHER + 2 * k as u64 + 1).await);
                            mem.write_f64(out.offset_words((2 * k) as u64), re).await;
                            mem.write_f64(out.offset_words((2 * k + 1) as u64), im)
                                .await;
                        }
                    } else {
                        for (i, &(re, im)) in data.iter().enumerate() {
                            let k = lo + i;
                            mem.send(0, 32, GATHER + 2 * k as u64, re.to_bits()).await;
                            mem.send(0, 32, GATHER + 2 * k as u64 + 1, im.to_bits())
                                .await;
                        }
                    }
                })
            })
            .collect();

        let verify: crate::Verifier = Box::new(move |store| {
            let want = msg_dft(&signal);
            let bits = n.trailing_zeros();
            for (k, &(wre, wim)) in want.iter().enumerate() {
                let at = k.reverse_bits() >> (usize::BITS - bits);
                let gre = store.read_f64(out.offset_words((2 * at) as u64));
                let gim = store.read_f64(out.offset_words((2 * at + 1) as u64));
                if !close(gre, wre, 1e-6) || !close(gim, wim, 1e-6) {
                    return Err(format!("X[{k}] = ({gre},{gim}), want ({wre},{wim})"));
                }
            }
            Ok(())
        });
        BuiltApp { bodies, verify }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_machine::{Engine, MachineKind};
    use spasm_topology::Topology;

    const ALL: [MachineKind; 4] = [
        MachineKind::Pram,
        MachineKind::Target,
        MachineKind::LogP,
        MachineKind::CLogP,
    ];

    #[test]
    fn msg_ep_verifies_on_every_machine() {
        for kind in ALL {
            for p in [1usize, 2, 4, 8] {
                let topo = Topology::hypercube(p);
                let mut setup = SetupCtx::new(p);
                let built = MsgEp::with_pairs(128).build(&mut setup, 11);
                let r = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
                (built.verify)(&r.final_store).unwrap_or_else(|e| panic!("{kind} p={p}: {e}"));
            }
        }
    }

    #[test]
    fn msg_fft_verifies_on_every_machine() {
        for kind in ALL {
            let topo = Topology::hypercube(4);
            let mut setup = SetupCtx::new(4);
            let built = MsgFft::with_len(32).build(&mut setup, 11);
            let r = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
            (built.verify)(&r.final_store).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn msg_fft_single_processor_is_all_local() {
        let topo = Topology::full(1);
        let mut setup = SetupCtx::new(1);
        let built = MsgFft::with_len(16).build(&mut setup, 2);
        let r = Engine::new(MachineKind::Target, &topo, setup, built.bodies)
            .run()
            .unwrap();
        (built.verify)(&r.final_store).unwrap();
    }

    #[test]
    fn message_passing_latency_is_exact_under_logp() {
        // With explicit 32-byte messages there is no memory system to
        // abstract and L exactly equals the target's per-message
        // transmission time, so the two machines' *latency* overheads
        // agree to the nanosecond (they count the same messages at the
        // same price). The remaining divergence is purely the g-model's
        // contention pessimism — LogP in its cleanest form.
        let run = |kind| {
            let topo = Topology::full(4);
            let mut setup = SetupCtx::new(4);
            let built = MsgFft::with_len(64).build(&mut setup, 5);
            Engine::new(kind, &topo, setup, built.bodies).run().unwrap()
        };
        let target = run(MachineKind::Target);
        let logp = run(MachineKind::LogP);
        // The exchanges dominate traffic; the only shared-memory ops are
        // the final result deposits, identical on both machines in count.
        assert_eq!(
            target.summary.net_messages, logp.summary.net_messages,
            "same messages on both machines"
        );
        // Exchange messages are all 32 B: latency overheads agree exactly.
        assert_eq!(target.totals.latency, logp.totals.latency);
        // Contention is where the models part ways (g pessimism).
        assert!(logp.totals.contention > target.totals.contention);
    }
}
