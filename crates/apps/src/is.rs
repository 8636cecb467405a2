//! IS — the NAS Integer Sort kernel (bucket / counting sort).

use spasm_machine::{proc_body, sync, Addr, ProcBody, SetupCtx};
use spasm_prng::Rng;

use crate::common::{block_range, proc_rng};
use crate::{App, BuiltApp, SizeClass};

/// Integer sort by global histogram ranking. Communication structure:
///
/// * regular (statically determinable) but **communication-heavy** — the
///   lowest computation-to-communication ratio of the three static
///   applications, which is why IS separates the machine models clearly
///   (paper Figure 14);
/// * lock-protected merges of local histograms into a distributed global
///   histogram — the paper notes IS "uses locks for mutual exclusion";
/// * a serial prefix-sum phase (algorithmic overhead visible in ideal
///   time);
/// * a ranking phase that claims output slots with atomic fetch-add and
///   scatters keys remotely.
#[derive(Debug, Clone, Copy)]
pub struct Is {
    /// Number of keys.
    pub keys: usize,
    /// Number of buckets (key range).
    pub buckets: usize,
}

/// Charged cycles per key in the histogram phase.
const CYCLES_HIST: u64 = 6;
/// Charged cycles per key in the ranking phase.
const CYCLES_RANK: u64 = 10;
/// Keys per computation chunk.
const CHUNK: usize = 32;

impl Is {
    /// Creates the kernel at a preset size.
    pub fn new(size: SizeClass) -> Self {
        let keys = match size {
            SizeClass::Test => 512,
            SizeClass::Small => 2_048,
            SizeClass::Full => 8_192,
        };
        Is { keys, buckets: 128 }
    }

    /// Creates the kernel with explicit sizes.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or `keys` is zero.
    pub fn with_sizes(keys: usize, buckets: usize) -> Self {
        assert!(keys > 0 && buckets > 0);
        Is { keys, buckets }
    }
}

/// The keys proc `me` contributes.
fn local_keys(seed: u64, me: usize, lo: usize, hi: usize, buckets: usize) -> Vec<u64> {
    let mut rng = proc_rng(seed, me);
    (lo..hi).map(|_| rng.gen_range(0..buckets as u64)).collect()
}

impl App for Is {
    fn name(&self) -> &'static str {
        "is"
    }

    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp {
        let p = setup.nodes();
        let keys = self.keys;
        let buckets = self.buckets;
        assert!(buckets >= p, "need at least one bucket per processor");

        // The global histogram and the rank offsets, distributed in
        // per-processor chunks; one lock per chunk.
        let chunk_of = move |b: usize| -> usize { b * p / buckets };
        let hist_bases: Vec<Addr> = (0..p)
            .map(|home| {
                let (lo, hi) = block_range(buckets, p, home);
                setup.alloc_labeled(home, (hi - lo) as u64, "histogram")
            })
            .collect();
        let offs_bases: Vec<Addr> = (0..p)
            .map(|home| {
                let (lo, hi) = block_range(buckets, p, home);
                setup.alloc_labeled(home, (hi - lo) as u64, "offsets")
            })
            .collect();
        let locks: Vec<Addr> = (0..p)
            .map(|home| setup.alloc_labeled(home, 1, "locks"))
            .collect();
        // Sorted output, block-distributed by rank.
        let out_bases: Vec<Addr> = (0..p)
            .map(|home| {
                let (lo, hi) = block_range(keys, p, home);
                setup.alloc_labeled(home, (hi - lo).max(1) as u64, "output")
            })
            .collect();
        let barrier = sync::Barrier::alloc(setup, 0, p);

        let bucket_addr = move |bases: &[Addr], b: usize| -> Addr {
            // Recover which chunk b lives in and its offset.
            let mut proc = chunk_of(b).min(p - 1);
            loop {
                let (lo, hi) = block_range(buckets, p, proc);
                if b >= hi {
                    proc += 1;
                } else if b < lo {
                    proc -= 1;
                } else {
                    return bases[proc].offset_words((b - lo) as u64);
                }
            }
        };
        let out_addr = move |bases: &[Addr], r: usize| -> Addr {
            let mut proc = (r * p / keys).min(p - 1);
            loop {
                let (lo, hi) = block_range(keys, p, proc);
                if r >= hi {
                    proc += 1;
                } else if r < lo {
                    proc -= 1;
                } else {
                    return bases[proc].offset_words((r - lo) as u64);
                }
            }
        };

        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let hist = hist_bases.clone();
                let offs = offs_bases.clone();
                let locks = locks.clone();
                let out = out_bases.clone();
                proc_body(async move |me, mem| {
                    let mut bar = barrier.handle();
                    let (lo, hi) = block_range(keys, p, me);
                    let my_keys = local_keys(seed, me, lo, hi, buckets);

                    // Phase 1: private histogram (native + charged).
                    let mut local = vec![0u64; buckets];
                    for batch in my_keys.chunks(CHUNK) {
                        mem.compute(CYCLES_HIST * batch.len() as u64).await;
                        for &k in batch {
                            local[k as usize] += 1;
                        }
                    }

                    // Phase 2: merge into the global histogram chunk by
                    // chunk, starting at our own chunk to stagger lock
                    // traffic.
                    for step in 0..p {
                        let target = (me + step) % p;
                        let (blo, bhi) = block_range(buckets, p, target);
                        if local[blo..bhi].iter().all(|&c| c == 0) {
                            continue;
                        }
                        sync::lock(&mem, locks[target]).await;
                        for (b, &count) in local[blo..bhi].iter().enumerate() {
                            if count > 0 {
                                let addr = bucket_addr(&hist, blo + b);
                                let cur = mem.read(addr).await;
                                mem.write(addr, cur + count).await;
                            }
                        }
                        sync::unlock(&mem, locks[target]).await;
                    }
                    bar.wait(&mem).await;

                    // Phase 3: serial exclusive prefix sum by proc 0 (the
                    // algorithmic serial fraction).
                    if me == 0 {
                        let mut acc = 0u64;
                        for b in 0..buckets {
                            let c = mem.read(bucket_addr(&hist, b)).await;
                            mem.write(bucket_addr(&offs, b), acc).await;
                            acc += c;
                        }
                    }
                    bar.wait(&mem).await;

                    // Phase 4: claim ranks atomically and scatter keys.
                    for batch in my_keys.chunks(CHUNK) {
                        mem.compute(CYCLES_RANK * batch.len() as u64).await;
                        for &k in batch {
                            let rank = mem.fetch_add(bucket_addr(&offs, k as usize), 1).await;
                            mem.write(out_addr(&out, rank as usize), k).await;
                        }
                    }
                    bar.wait(&mem).await;
                })
            })
            .collect();

        let out_bases_v = out_bases;
        let verify: crate::Verifier = Box::new(move |store| {
            // Reference: totals per bucket from the same streams.
            let mut want_hist = vec![0u64; buckets];
            for me in 0..p {
                let (lo, hi) = block_range(keys, p, me);
                for k in local_keys(seed, me, lo, hi, buckets) {
                    want_hist[k as usize] += 1;
                }
            }
            // The output must be the fully sorted key sequence.
            let mut rank = 0usize;
            for (b, &count) in want_hist.iter().enumerate() {
                for _ in 0..count {
                    let got = store.read_word(out_addr(&out_bases_v, rank));
                    if got != b as u64 {
                        return Err(format!("out[{rank}] = {got}, want {b}"));
                    }
                    rank += 1;
                }
            }
            if rank != keys {
                return Err(format!("ranked {rank} keys, want {keys}"));
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

    #[test]
    fn is_verifies_on_every_machine() {
        for kind in [
            MachineKind::Pram,
            MachineKind::Target,
            MachineKind::LogP,
            MachineKind::CLogP,
        ] {
            let topo = Topology::mesh(4);
            let mut setup = SetupCtx::new(4);
            let built = Is::with_sizes(128, 32).build(&mut setup, 17);
            let report = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
            (built.verify)(&report.final_store).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn is_single_processor() {
        let topo = Topology::full(1);
        let mut setup = SetupCtx::new(1);
        let built = Is::with_sizes(64, 16).build(&mut setup, 2);
        let r = Engine::new(MachineKind::Target, &topo, setup, built.bodies)
            .run()
            .unwrap();
        (built.verify)(&r.final_store).unwrap();
    }

    #[test]
    fn is_generates_substantial_traffic() {
        // IS is the communication-heavy static app: traffic per processor
        // must dwarf EP's at the same scale.
        let topo = Topology::full(4);
        let mut setup = SetupCtx::new(4);
        let built = Is::with_sizes(256, 32).build(&mut setup, 3);
        let r = Engine::new(MachineKind::Target, &topo, setup, built.bodies)
            .run()
            .unwrap();
        assert!(
            r.summary.net_messages > 500,
            "expected heavy traffic, got {}",
            r.summary.net_messages
        );
    }
}
