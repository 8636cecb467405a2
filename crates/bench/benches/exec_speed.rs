//! Executor scaling: wall-clock of a Figure-2-class sweep (CG latency,
//! three machine characterizations, processor sweep) under 1, 2, and 4
//! workers, plus a one-shot serial-vs-4-worker speedup gauge.
//!
//! The sweep's *output* is byte-identical across worker counts (see
//! `tests/determinism.rs`); this bench records what the parallelism
//! buys in wall-clock. `sweep_f2/speedup_x1000` is serial wall over
//! 4-worker wall, scaled by 1000 (so 2500 = 2.5× faster).

//! `sweep_f2/journaled_jobs1` runs the same sweep through the full
//! journal path — every point CRC64-framed and committed through the
//! `Vfs` indirection — so the regression gate proves the crash-safety
//! plumbing stays out of the hot loop's way.

use std::time::Instant;

use spasm_apps::SizeClass;
use spasm_bench::harness::Harness;
use spasm_core::figures;
use spasm_core::journal::SweepJournal;
use spasm_core::sweep::{run_figure, SweepConfig};

fn main() {
    let mut h = Harness::new("exec_speed");
    let spec = figures::by_id("F2").expect("F2 exists");
    let procs: &[usize] = &[2, 4, 8];

    for jobs in [1usize, 2, 4] {
        h.bench(&format!("sweep_f2/jobs{jobs}"), || {
            let data = run_figure(
                spec,
                SizeClass::Test,
                procs,
                1995,
                SweepConfig::parallel(jobs),
                None,
                |_| {},
            );
            assert_eq!(data.failed_points(), 0, "F2 must sweep clean");
            data
        });
    }

    // The same sweep through the journal path: a fresh journal per
    // iteration (worst case — every point is committed, nothing
    // replays), exercising the whole Vfs-backed write/fsync/rename
    // pipeline on a real filesystem.
    let journal_dir = std::env::temp_dir().join(format!("spasm-exec-speed-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("temp dir is writable");
    let journal_path = journal_dir.join("F2.journal");
    h.bench("sweep_f2/journaled_jobs1", || {
        let _ = std::fs::remove_file(&journal_path);
        let sweep = SweepConfig::default();
        let journal =
            SweepJournal::create(&journal_path, spec, SizeClass::Test, procs, 1995, &sweep)
                .expect("journal creates");
        let data = run_figure(
            spec,
            SizeClass::Test,
            procs,
            1995,
            sweep,
            Some(&journal),
            |_| {},
        );
        assert_eq!(data.failed_points(), 0, "F2 must sweep clean");
        assert!(journal.io_error().is_none(), "journal must persist");
        data
    });
    let _ = std::fs::remove_dir_all(&journal_dir);

    // One-shot speedup gauge, measured back-to-back so the JSON carries
    // the headline number directly.
    let wall = |jobs: usize| {
        let t0 = Instant::now();
        std::hint::black_box(run_figure(
            spec,
            SizeClass::Test,
            procs,
            1995,
            SweepConfig::parallel(jobs),
            None,
            |_| {},
        ));
        t0.elapsed()
    };
    let serial = wall(1);
    let parallel = wall(4);
    h.gauge(
        "sweep_f2/serial_wall_ns",
        serial.as_nanos().min(u128::from(u64::MAX)) as u64,
    );
    h.gauge(
        "sweep_f2/jobs4_wall_ns",
        parallel.as_nanos().min(u128::from(u64::MAX)) as u64,
    );
    h.gauge(
        "sweep_f2/speedup_x1000",
        (serial.as_nanos() * 1000 / parallel.as_nanos().max(1)) as u64,
    );

    h.finish();
}
