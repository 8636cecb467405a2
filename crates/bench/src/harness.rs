//! A small in-tree wall-clock benchmark harness (criterion replacement).
//!
//! Each benchmark runs a warmup phase followed by N timed iterations and
//! reports min / mean / median / p95 nanoseconds per iteration. Results
//! print as an aligned table and are written as `BENCH_<harness>.json`
//! in the working directory, so successive runs can be diffed by
//! scripts without parsing human output.
//!
//! Environment knobs:
//!
//! * `SPASM_BENCH_ITERS` — timed iterations per benchmark (default 30);
//! * `SPASM_BENCH_WARMUP` — warmup iterations (default 5);
//! * full timing runs only under `cargo bench` (cargo passes `--bench`
//!   to the binary); any other invocation — notably `cargo test
//!   --benches`, which passes no flag — gets smoke mode: one
//!   iteration per benchmark, no JSON artifact.
//!
//! Iterations are timed individually with [`std::time::Instant`]; keep
//! each iteration's work at the microsecond scale or above (batch inner
//! loops) so timer overhead stays in the noise.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Per-benchmark summary statistics, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark label (`group/case` by convention).
    pub name: String,
    /// Minimum observed iteration time.
    pub min_ns: u64,
    /// Mean iteration time.
    pub mean_ns: u64,
    /// Median (p50) iteration time.
    pub median_ns: u64,
    /// 95th-percentile iteration time.
    pub p95_ns: u64,
    /// Number of timed iterations.
    pub iters: u32,
}

/// The benchmark runner for one bench binary.
pub struct Harness {
    name: String,
    iters: u32,
    warmup: u32,
    smoke: bool,
    results: Vec<Stats>,
}

impl Harness {
    /// Creates the runner. `name` becomes the JSON file stem
    /// (`BENCH_<name>.json`).
    pub fn new(name: &str) -> Self {
        let env_u32 = |key: &str, default: u32| {
            std::env::var(key)
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&v| v > 0)
                .unwrap_or(default)
        };
        // Cargo passes `--bench` only under `cargo bench`; under
        // `cargo test --benches` the binary gets no flag at all. Treat
        // anything that isn't an explicit bench run as a smoke check:
        // run everything once, skip timing artifacts.
        let smoke = !std::env::args().any(|a| a == "--bench");
        Harness {
            name: name.to_string(),
            iters: if smoke {
                1
            } else {
                env_u32("SPASM_BENCH_ITERS", 30)
            },
            warmup: if smoke {
                0
            } else {
                env_u32("SPASM_BENCH_WARMUP", 5)
            },
            smoke,
            results: Vec::new(),
        }
    }

    /// Times `f` for the configured iteration count. The closure's
    /// return value is passed through [`black_box`] so the work is not
    /// optimized away.
    pub fn bench<R>(&mut self, label: &str, mut f: impl FnMut() -> R) {
        self.bench_with_setup(label, || (), move |()| f());
    }

    /// Times `routine` only; `setup` runs untimed before every
    /// iteration (the criterion `iter_batched` pattern, for routines
    /// that consume fresh state).
    pub fn bench_with_setup<S, R>(
        &mut self,
        label: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        for _ in 0..self.warmup {
            let s = setup();
            black_box(routine(s));
        }
        let mut samples = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            let s = setup();
            let t0 = Instant::now();
            black_box(routine(s));
            samples.push(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        samples.sort_unstable();
        let stats = Stats {
            name: label.to_string(),
            min_ns: samples[0],
            mean_ns: (samples.iter().map(|&s| u128::from(s)).sum::<u128>() / samples.len() as u128)
                as u64,
            median_ns: percentile(&samples, 50),
            p95_ns: percentile(&samples, 95),
            iters: self.iters,
        };
        println!(
            "{:<44} median {:>12}  p95 {:>12}  min {:>12}  ({} iters)",
            stats.name,
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            fmt_ns(stats.min_ns),
            stats.iters
        );
        self.results.push(stats);
    }

    /// Records an externally measured value (in nanoseconds, or any
    /// scaled quantity the label explains) as a single-iteration result
    /// row. For one-shot wall-clock measurements and derived numbers —
    /// e.g. a parallel-over-serial speedup scaled by 1000 — that should
    /// land in `BENCH_<name>.json` next to the timed benches.
    pub fn gauge(&mut self, label: &str, value: u64) {
        let stats = Stats {
            name: label.to_string(),
            min_ns: value,
            mean_ns: value,
            median_ns: value,
            p95_ns: value,
            iters: 1,
        };
        println!("{:<44} gauge  {:>12}", stats.name, stats.median_ns);
        self.results.push(stats);
    }

    /// Writes `BENCH_<name>.json` (unless in smoke mode) and consumes
    /// the runner.
    pub fn finish(self) {
        if self.smoke {
            println!(
                "[{}] smoke mode (no --bench flag): skipping BENCH json",
                self.name
            );
            return;
        }
        let path = format!("BENCH_{}.json", self.name);
        let json = self.to_json();
        match std::fs::write(&path, json) {
            Ok(()) => println!("[{}] wrote {path}", self.name),
            Err(e) => eprintln!("[{}] could not write {path}: {e}", self.name),
        }
    }

    /// Renders the results as a JSON document (hand-rolled: the
    /// workspace is dependency-free, and labels are plain ASCII).
    fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"harness\": \"{}\",", escape(&self.name));
        let _ = writeln!(s, "  \"warmup_iters\": {},", self.warmup);
        // Host CPUs: baselines taken on hosts of different widths are not
        // comparable row for row, so each file says which it came from.
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let _ = writeln!(s, "  \"nproc\": {nproc},");
        let _ = writeln!(s, "  \"benches\": [");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"iters\": {}, \"min_ns\": {}, \
                 \"mean_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}}}{comma}",
                escape(&r.name),
                r.iters,
                r.min_ns,
                r.mean_ns,
                r.median_ns,
                r.p95_ns
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }
}

/// Nearest-rank percentile of an ascending-sorted sample vector.
fn percentile(sorted: &[u64], pct: u32) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (u64::from(pct) * sorted.len() as u64).div_ceil(100);
    sorted[(rank.max(1) as usize - 1).min(sorted.len() - 1)]
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => "\\u0020".chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[42], 95), 42);
        assert_eq!(percentile(&[1, 2], 50), 1);
    }

    #[test]
    fn json_shape_is_parsable_by_eye_and_machine() {
        let mut h = Harness {
            name: "unit".into(),
            iters: 3,
            warmup: 0,
            smoke: true,
            results: Vec::new(),
        };
        h.bench("group/case", || 1 + 1);
        let json = h.to_json();
        assert!(json.contains("\"harness\": \"unit\""));
        assert!(json.contains("\"nproc\": "));
        assert!(json.contains("\"name\": \"group/case\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"p95_ns\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn stats_are_recorded_per_bench() {
        let mut h = Harness {
            name: "unit".into(),
            iters: 5,
            warmup: 1,
            smoke: true,
            results: Vec::new(),
        };
        h.bench("a", || std::hint::black_box(17u64.wrapping_mul(31)));
        h.bench_with_setup("b", || vec![1u64; 64], |v| v.iter().sum::<u64>());
        assert_eq!(h.results.len(), 2);
        for r in &h.results {
            assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns);
            assert_eq!(r.iters, 5);
        }
    }

    #[test]
    fn escape_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn gauge_rows_land_in_results_and_json() {
        let mut h = Harness {
            name: "unit".into(),
            iters: 1,
            warmup: 0,
            smoke: true,
            results: Vec::new(),
        };
        h.gauge("exec/speedup_x1000", 2750);
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].iters, 1);
        assert_eq!(h.results[0].median_ns, 2750);
        assert!(h.to_json().contains("\"name\": \"exec/speedup_x1000\""));
    }
}
