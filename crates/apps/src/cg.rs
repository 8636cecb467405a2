//! CG — the NAS Conjugate Gradient kernel.

use std::sync::Arc;

use spasm_machine::{proc_body, sync, Addr, ProcBody, SetupCtx};

use crate::common::{block_range, close};
use crate::sparse::SymSparse;
use crate::{App, BuiltApp, SizeClass};

/// Conjugate-gradient iterations on a random sparse SPD system.
///
/// The paper's characterization: rows are assigned statically
/// ("a certain number of rows of the matrix in CG is assigned to a
/// processor at compile time"), but the *communication pattern is not
/// regular* — the sparse mat-vec reads `p[col]` for whichever columns
/// happen to be nonzero, so the remote-reference stream is data-dependent
/// and "cannot be determined at compile time". Reductions (the dot
/// products) use per-processor partials combined by processor 0 between
/// barriers, the standard optimized NAS-port shape.
#[derive(Debug, Clone)]
pub struct Cg {
    /// System dimension.
    pub n: usize,
    /// Extra off-diagonal entries per row in the generator.
    pub extra: usize,
    /// CG iterations to run.
    pub iters: usize,
}

/// Charged cycles per multiply-accumulate in the mat-vec.
const CYCLES_MAC: u64 = 8;
/// Charged cycles per element of a vector update / dot product.
const CYCLES_VEC: u64 = 6;

impl Cg {
    /// Creates the kernel at a preset size.
    pub fn new(size: SizeClass) -> Self {
        let (n, iters) = match size {
            SizeClass::Test => (128, 3),
            SizeClass::Small => (320, 4),
            SizeClass::Full => (512, 5),
        };
        Cg { n, extra: 3, iters }
    }

    /// Creates the kernel with explicit parameters.
    pub fn with_params(n: usize, extra: usize, iters: usize) -> Self {
        Cg { n, extra, iters }
    }
}

/// Distributed vector: one block-range slice per processor.
#[derive(Debug, Clone)]
struct DistVec {
    bases: Vec<Addr>,
    n: usize,
    p: usize,
}

impl DistVec {
    fn alloc(setup: &mut SetupCtx, n: usize, p: usize, label: &'static str) -> Self {
        let bases = (0..p)
            .map(|home| {
                let (lo, hi) = block_range(n, p, home);
                setup.alloc_labeled(home, (hi - lo).max(1) as u64, label)
            })
            .collect();
        DistVec { bases, n, p }
    }

    fn addr(&self, i: usize) -> Addr {
        let mut proc = (i * self.p / self.n).min(self.p - 1);
        loop {
            let (lo, hi) = block_range(self.n, self.p, proc);
            if i >= hi {
                proc += 1;
            } else if i < lo {
                proc -= 1;
            } else {
                return self.bases[proc].offset_words((i - lo) as u64);
            }
        }
    }
}

/// Reference sequential CG mirroring the parallel reduction structure.
fn reference_cg(a: &SymSparse, iters: usize, p: usize) -> (Vec<f64>, f64) {
    let n = a.n;
    let b = vec![1.0f64; n];
    let mut x = vec![0.0f64; n];
    let mut r = b;
    let mut pv = r.clone();
    // Partial-sum-per-processor dot product, matching the parallel shape.
    let dot = |u: &[f64], v: &[f64]| -> f64 {
        (0..p)
            .map(|me| {
                let (lo, hi) = block_range(n, p, me);
                (lo..hi).map(|i| u[i] * v[i]).sum::<f64>()
            })
            .sum()
    };
    for _ in 0..iters {
        let rho = dot(&r, &r);
        let q = a.matvec(&pv);
        let alpha = rho / dot(&pv, &q);
        for i in 0..n {
            x[i] += alpha * pv[i];
            r[i] -= alpha * q[i];
        }
        let rho_new = dot(&r, &r);
        let beta = rho_new / rho;
        for i in 0..n {
            pv[i] = r[i] + beta * pv[i];
        }
    }
    let rnorm = dot(&r, &r).sqrt();
    (x, rnorm)
}

impl App for Cg {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp {
        let p = setup.nodes();
        let n = self.n;
        let iters = self.iters;
        assert!(n >= p, "need at least one row per processor");
        let a = Arc::new(SymSparse::random_spd(n, self.extra, seed));

        // Distributed vectors; b = 1, x0 = 0 => r0 = p0 = 1.
        let xv = DistVec::alloc(setup, n, p, "x-vec");
        let rv = DistVec::alloc(setup, n, p, "r-vec");
        let pv = DistVec::alloc(setup, n, p, "p-vec");
        let qv = DistVec::alloc(setup, n, p, "q-vec");
        for i in 0..n {
            setup.init_f64(xv.addr(i), 0.0);
            setup.init_f64(rv.addr(i), 1.0);
            setup.init_f64(pv.addr(i), 1.0);
            setup.init_f64(qv.addr(i), 0.0);
        }
        // Reductions use per-processor partial slots (each homed at its
        // writer) combined by processor 0 — the standard NAS-port shape,
        // which costs O(p) remote reads instead of an O(p^2) lock herd.
        // Fresh total slots per iteration avoid reset races.
        let partial_slots: Vec<spasm_machine::Addr> = (0..p)
            .map(|home| setup.alloc_labeled(home, 1, "reduction"))
            .collect();
        let rho_slots = setup.alloc(0, iters as u64);
        let pq_slots = setup.alloc(0, iters as u64);
        let rho_new_slots = setup.alloc(0, iters as u64);
        for it in 0..iters as u64 {
            setup.init_f64(rho_slots.offset_words(it), 0.0);
            setup.init_f64(pq_slots.offset_words(it), 0.0);
            setup.init_f64(rho_new_slots.offset_words(it), 0.0);
        }
        let barrier = sync::Barrier::alloc(setup, 0, p);

        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let a = Arc::clone(&a);
                let (xv, rv, pv, qv) = (xv.clone(), rv.clone(), pv.clone(), qv.clone());
                let partial_slots = partial_slots.clone();
                proc_body(async move |me, mem| {
                    let mut bar = barrier.handle();
                    let (lo, hi) = block_range(n, p, me);

                    // Partial-sum reduction: publish the local partial,
                    // rendezvous, processor 0 combines, rendezvous again.
                    let reduce = async |slot: Addr, local: f64, bar: &mut sync::BarrierHandle| {
                        mem.write_f64(partial_slots[me], local).await;
                        bar.wait(&mem).await;
                        if me == 0 {
                            let mut total = 0.0;
                            for s in &partial_slots {
                                total += mem.read_f64(*s).await;
                            }
                            mem.compute(CYCLES_VEC * p as u64).await;
                            mem.write_f64(slot, total).await;
                        }
                        bar.wait(&mem).await;
                    };

                    for it in 0..iters as u64 {
                        // rho = r.r over the local slice.
                        let mut local = 0.0;
                        for i in lo..hi {
                            let ri = mem.read_f64(rv.addr(i)).await;
                            local += ri * ri;
                        }
                        mem.compute(CYCLES_VEC * (hi - lo) as u64).await;
                        reduce(rho_slots.offset_words(it), local, &mut bar).await;

                        // q = A p over the local rows: the irregular,
                        // data-dependent remote reads.
                        for i in lo..hi {
                            let mut acc = 0.0;
                            for &(j, v) in &a.rows[i] {
                                acc += v * mem.read_f64(pv.addr(j)).await;
                            }
                            mem.compute(CYCLES_MAC * a.rows[i].len() as u64).await;
                            mem.write_f64(qv.addr(i), acc).await;
                        }

                        // pq = p.q over the local slice.
                        let mut local = 0.0;
                        for i in lo..hi {
                            local +=
                                mem.read_f64(pv.addr(i)).await * mem.read_f64(qv.addr(i)).await;
                        }
                        mem.compute(CYCLES_VEC * (hi - lo) as u64).await;
                        reduce(pq_slots.offset_words(it), local, &mut bar).await;

                        let rho = mem.read_f64(rho_slots.offset_words(it)).await;
                        let pq = mem.read_f64(pq_slots.offset_words(it)).await;
                        let alpha = rho / pq;

                        // x += alpha p ; r -= alpha q (local slices), then
                        // rho_new = r.r.
                        let mut local = 0.0;
                        for i in lo..hi {
                            let xi = mem.read_f64(xv.addr(i)).await;
                            let pi = mem.read_f64(pv.addr(i)).await;
                            mem.write_f64(xv.addr(i), xi + alpha * pi).await;
                            let ri = mem.read_f64(rv.addr(i)).await
                                - alpha * mem.read_f64(qv.addr(i)).await;
                            mem.write_f64(rv.addr(i), ri).await;
                            local += ri * ri;
                        }
                        mem.compute(2 * CYCLES_VEC * (hi - lo) as u64).await;
                        reduce(rho_new_slots.offset_words(it), local, &mut bar).await;

                        // p = r + beta p: writes that invalidate every
                        // consumer's cached copy of p.
                        let rho_new = mem.read_f64(rho_new_slots.offset_words(it)).await;
                        let beta = rho_new / rho;
                        for i in lo..hi {
                            let pi = mem.read_f64(pv.addr(i)).await;
                            let ri = mem.read_f64(rv.addr(i)).await;
                            mem.write_f64(pv.addr(i), ri + beta * pi).await;
                        }
                        mem.compute(CYCLES_VEC * (hi - lo) as u64).await;
                        bar.wait(&mem).await;
                    }
                })
            })
            .collect();

        let a_v = Arc::clone(&a);
        let verify: crate::Verifier = Box::new(move |store| {
            let (want_x, want_rnorm) = reference_cg(&a_v, iters, p);
            for (i, &want) in want_x.iter().enumerate() {
                let got = store.read_f64(xv.addr(i));
                if !close(got, want, 1e-6) {
                    return Err(format!("x[{i}] = {got}, want {want}"));
                }
            }
            // The iterate must actually have made progress.
            let mut rnorm2 = 0.0;
            for i in 0..a_v.n {
                let ri = store.read_f64(rv.addr(i));
                rnorm2 += ri * ri;
            }
            let bnorm = (a_v.n as f64).sqrt();
            if rnorm2.sqrt() >= bnorm {
                return Err(format!(
                    "residual did not decrease: {} vs {bnorm}",
                    rnorm2.sqrt()
                ));
            }
            if !close(rnorm2.sqrt(), want_rnorm, 1e-4) {
                return Err(format!(
                    "residual norm {} differs from reference {want_rnorm}",
                    rnorm2.sqrt()
                ));
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
    fn cg_verifies_on_every_machine() {
        for kind in [
            MachineKind::Pram,
            MachineKind::Target,
            MachineKind::LogP,
            MachineKind::CLogP,
        ] {
            let topo = Topology::hypercube(4);
            let mut setup = SetupCtx::new(4);
            let built = Cg::with_params(32, 2, 3).build(&mut setup, 21);
            let report = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
            (built.verify)(&report.final_store).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn cg_single_processor() {
        let topo = Topology::full(1);
        let mut setup = SetupCtx::new(1);
        let built = Cg::with_params(24, 2, 3).build(&mut setup, 8);
        let r = Engine::new(MachineKind::CLogP, &topo, setup, built.bodies)
            .run()
            .unwrap();
        (built.verify)(&r.final_store).unwrap();
    }

    #[test]
    fn reference_cg_converges() {
        let a = SymSparse::random_spd(48, 3, 4);
        let (_, r3) = reference_cg(&a, 3, 2);
        let (_, r6) = reference_cg(&a, 6, 2);
        assert!(r6 < r3, "more iterations must shrink the residual");
        assert!(r3 < (48f64).sqrt());
    }
}
