//! Regenerates every figure of the paper's evaluation section.
//!
//! ```text
//! figures --all [--size test|small|full] [--procs 2,4,8,16,32]
//!         [--seed N] [--csv PATH] [--jobs N|auto] [--serial]
//!         [--budget-events N] [--journal PATH [--resume]]
//!         [--deadline-secs N]
//! figures --figure F13 [...]
//! figures --list
//! ```
//!
//! Sweep points run on the `spasm-exec` worker pool — one worker per
//! host hardware thread by default (`--jobs auto`); `--serial` forces
//! the inline single-thread path. Output is byte-identical either way;
//! per-series and total elapsed times go to stderr so the speedup is
//! visible without polluting the table/CSV streams.
//!
//! `--journal PATH` records every completed point in a durable
//! per-figure journal (`PATH.<figure-id>`); after a crash or SIGKILL,
//! the same command with `--resume` replays completed points and runs
//! only the rest, producing byte-identical stdout. `--deadline-secs N`
//! bounds each point's wall time via the executor watchdog.
//!
//! ```text
//! figures --shard K/N --journal DIR [--resume] (--all | --figure ID) [...]
//! figures --merge DIR (--all | --figure ID) [...]
//! ```
//!
//! `--scenario FILE` (repeatable) compiles a declarative `.scn`
//! workload (see `spasm-scenario`) into a figure and sweeps it like
//! any built-in id. `--telemetry FILE` turns on engine interval
//! telemetry and streams one JSONL record per sim-time bucket (plus a
//! per-point summary) into FILE; `--telemetry-interval-us N` sets the
//! bucket width (default 100). Telemetry output is byte-identical
//! across `--jobs` settings and across journaled resume.
//!
//! `--shard K/N` runs only shard K's points (of N, round-robin over the
//! series-major point grid) and journals them under
//! `DIR/<figure>.shard-K-of-N.journal` — a worker's only output is its
//! journal, so N workers can fan out across processes or hosts.
//! `--merge DIR` reassembles any set of per-shard journals into stdout
//! byte-identical to a single-process serial run: torn shard tails are
//! tolerated, corrupt or mismatched shards are quarantined, overlapping
//! shards are deduplicated (identical results) or refused (conflicting
//! results), and points no surviving shard covers degrade to FAILED
//! rows naming the absent shard.
//!
//! Exit codes: 0 clean · 2 usage · 3 point failures (partial figures
//! salvaged) · 4 journal/configuration mismatch · 5 journal or CSV I/O
//! failure or corruption · 6 shard overlap conflict (two shards claim
//! the same point with different results — a determinism failure).

use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spasm_apps::SizeClass;
use spasm_bench::{parse_jobs, parse_procs, parse_size};
use spasm_core::figures::{self, FigureSpec};
use spasm_core::journal::SweepJournal;
use spasm_core::shard::{merge_shards, ShardError, ShardSpec};
use spasm_core::sweep::{run_figure, run_figure_shard, SweepConfig};
use spasm_exec::ExecEvent;
use spasm_machine::{CheckMode, FaultPlan, RunBudget, TelemetryConfig};

struct Args {
    figures: Vec<&'static FigureSpec>,
    size: SizeClass,
    procs: Vec<usize>,
    seed: u64,
    csv: Option<String>,
    chart: bool,
    /// Worker count in the executor's convention: 0 = auto, 1 = serial.
    jobs: usize,
    /// Per-run simulator-event budget (the engine's RunBudget), so a
    /// livelocked run fails typed instead of hanging the sweep.
    budget_events: Option<u64>,
    /// Online invariant checking per run (`--check` / `--strict-check`).
    check: CheckMode,
    /// Adversarial fault plan seeded from `--faults SEED`, for proving
    /// the checker fires on an unhealthy machine.
    faults: Option<u64>,
    ablation: Option<String>,
    /// Base path for per-figure sweep journals (`<base>.<figure-id>`).
    journal: Option<String>,
    /// Replay an existing journal instead of refusing to clobber it.
    resume: bool,
    /// Per-point wall-clock deadline for the executor watchdog.
    deadline: Option<Duration>,
    /// Worker mode: run only this shard's points into a journal
    /// directory (`--shard K/N`, requires `--journal DIR`).
    shard: Option<ShardSpec>,
    /// Merge mode: reassemble per-shard journals from this directory
    /// into serial-identical stdout (`--merge DIR`).
    merge: Option<String>,
    /// Stream per-interval telemetry JSONL into this file.
    telemetry: Option<String>,
    /// Telemetry bucket width in simulated microseconds.
    telemetry_interval_us: u64,
}

/// Exit code when points failed but partial figures were salvaged.
const EXIT_SALVAGED: u8 = 3;
/// Exit code when a journal's fingerprint rejects this configuration.
const EXIT_MISMATCH: u8 = 4;
/// Exit code for journal or CSV I/O failures.
const EXIT_IO: u8 = 5;
/// Exit code when two shards claim the same point with different
/// results — a determinism failure nothing should paper over.
const EXIT_OVERLAP: u8 = 6;

fn usage() -> ! {
    eprintln!(
        "usage: figures (--all | --figure ID | --list | --ablation g|protocol|cache) \
         [--size test|small|full] \
         [--procs 2,4,...] [--seed N] [--csv PATH] [--chart] \
         [--jobs N|auto] [--serial] [--budget-events N] \
         [--check] [--strict-check] [--faults SEED] \
         [--journal PATH [--resume]] [--deadline-secs N] \
         [--shard K/N --journal DIR] [--merge DIR] \
         [--scenario FILE] [--telemetry FILE [--telemetry-interval-us N]]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        figures: Vec::new(),
        size: SizeClass::Small,
        procs: figures::PROC_SWEEP.to_vec(),
        seed: 1995,
        csv: None,
        chart: false,
        jobs: 0,
        budget_events: None,
        check: CheckMode::Off,
        faults: None,
        ablation: None,
        journal: None,
        resume: false,
        deadline: None,
        shard: None,
        merge: None,
        telemetry: None,
        telemetry_interval_us: 100,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--all" => args.figures = figures::FIGURES.iter().collect(),
            "--figure" => {
                let id = it.next().unwrap_or_else(|| usage());
                match figures::by_id(&id) {
                    Some(spec) => args.figures.push(spec),
                    None => {
                        eprintln!("unknown figure {id}; try --list");
                        std::process::exit(2);
                    }
                }
            }
            "--list" => {
                for f in figures::FIGURES {
                    println!(
                        "{:>3}  {:8} {:4} {:24} {}",
                        f.id,
                        f.app.to_string(),
                        f.net.to_string(),
                        f.metric.to_string(),
                        f.expect
                    );
                }
                std::process::exit(0);
            }
            "--size" => {
                args.size =
                    parse_size(&it.next().unwrap_or_else(|| usage())).unwrap_or_else(|| usage());
            }
            "--procs" => {
                args.procs =
                    parse_procs(&it.next().unwrap_or_else(|| usage())).unwrap_or_else(|| usage());
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--csv" => args.csv = Some(it.next().unwrap_or_else(|| usage())),
            "--chart" => args.chart = true,
            "--jobs" => {
                args.jobs =
                    parse_jobs(&it.next().unwrap_or_else(|| usage())).unwrap_or_else(|| usage());
            }
            "--serial" => args.jobs = 1,
            "--budget-events" => {
                args.budget_events = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--check" => args.check = CheckMode::On,
            "--strict-check" => args.check = CheckMode::Strict,
            "--faults" => {
                args.faults = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--ablation" => args.ablation = Some(it.next().unwrap_or_else(|| usage())),
            "--journal" => args.journal = Some(it.next().unwrap_or_else(|| usage())),
            "--resume" => args.resume = true,
            "--shard" => {
                let spec = it.next().unwrap_or_else(|| usage());
                match ShardSpec::parse(&spec) {
                    Ok(s) => args.shard = Some(s),
                    Err(e) => {
                        eprintln!("--shard {spec}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--merge" => args.merge = Some(it.next().unwrap_or_else(|| usage())),
            "--scenario" => {
                let path = it.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read scenario {path}: {e}");
                    std::process::exit(2);
                });
                let sc = spasm_scenario::parse(&text).unwrap_or_else(|e| {
                    eprintln!("scenario {path}: {e}");
                    std::process::exit(2);
                });
                match spasm_scenario::compile(&sc) {
                    Ok(spec) => args.figures.push(spec),
                    Err(e) => {
                        eprintln!("scenario {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--telemetry" => args.telemetry = Some(it.next().unwrap_or_else(|| usage())),
            "--telemetry-interval-us" => {
                args.telemetry_interval_us = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&us| us > 0)
                    .unwrap_or_else(|| usage());
            }
            "--deadline-secs" => {
                args.deadline = Some(Duration::from_secs(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                ));
            }
            _ => usage(),
        }
    }
    if args.figures.is_empty() && args.ablation.is_none() {
        usage();
    }
    if args.resume && args.journal.is_none() {
        eprintln!("--resume requires --journal PATH");
        usage();
    }
    if args.shard.is_some() && args.journal.is_none() {
        eprintln!("--shard K/N requires --journal DIR (a shard's only output is its journal)");
        usage();
    }
    if args.shard.is_some() && (args.csv.is_some() || args.chart) {
        eprintln!("--shard produces no stdout; --csv/--chart belong on the --merge invocation");
        usage();
    }
    if args.telemetry.is_some() && args.ablation.is_some() {
        eprintln!("--telemetry applies to figure sweeps, not ablations");
        usage();
    }
    if args.merge.is_some() && (args.shard.is_some() || args.journal.is_some()) {
        eprintln!("--merge reads finished shard journals; it conflicts with --shard/--journal");
        usage();
    }
    if (args.shard.is_some() || args.merge.is_some()) && args.ablation.is_some() {
        eprintln!("--shard/--merge apply to figure sweeps, not ablations");
        usage();
    }
    args
}

/// Unwraps one ablation study's runs into its table row, or exits with
/// the typed simulation error instead of panicking at the CLI surface.
fn ablation_run<T>(which: &str, result: Result<T, spasm_core::ExperimentError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("ablation {which} failed: {e}");
        std::process::exit(1);
    })
}

/// Runs one of the extension studies (EXPERIMENTS.md A2–A4) and prints
/// its table. `jobs` sizes the worker pool for each study's independent
/// runs (executor convention: 0 = auto, 1 = serial).
fn run_ablation(which: &str, jobs: usize) {
    use spasm_apps::AppId;
    use spasm_core::ablation;
    use spasm_core::Net;

    let started = Instant::now();
    match which {
        "g" => {
            println!("A2: traffic-aware g on the 8-processor mesh (test size)\n");
            println!(
                "{:>9} {:>9} {:>12} {:>12} {:>12}",
                "app", "crossing", "target (us)", "naive (us)", "aware (us)"
            );
            for app in AppId::ALL {
                let s = ablation_run(
                    which,
                    ablation::traffic_aware_g(app, SizeClass::Test, Net::Mesh, 8, 1995, jobs),
                );
                println!(
                    "{:>9} {:>8.0}% {:>12.1} {:>12.1} {:>12.1}",
                    app.to_string(),
                    100.0 * s.crossing_fraction,
                    s.target.contention_us,
                    s.naive.contention_us,
                    s.aware.contention_us,
                );
            }
        }
        "protocol" => {
            println!("A3: coherence-protocol sensitivity on the target (full, p=8)\n");
            println!(
                "{:>9} {:>14} {:>18} {:>8}",
                "app", "berkeley (us)", "wb-on-read (us)", "gap"
            );
            for app in AppId::ALL {
                let s = ablation_run(
                    which,
                    ablation::protocol_sensitivity(app, SizeClass::Test, Net::Full, 8, 1995, jobs),
                );
                println!(
                    "{:>9} {:>14.1} {:>18.1} {:>7.1}%",
                    app.to_string(),
                    s.berkeley.exec_us,
                    s.write_back_on_read.exec_us,
                    100.0 * s.exec_gap(),
                );
            }
        }
        "cache" => {
            println!("A4: cache working-set sweep on the target (full, p=8)\n");
            print!("{:>9}", "app");
            for &cap in ablation::CACHE_SWEEP {
                print!(" {:>9}KiB", cap / 1024);
            }
            println!();
            for app in AppId::ALL {
                let points = ablation_run(
                    which,
                    ablation::cache_working_set(
                        app,
                        SizeClass::Test,
                        Net::Full,
                        8,
                        1995,
                        ablation::CACHE_SWEEP,
                        jobs,
                    ),
                );
                print!("{:>9}", app.to_string());
                for p in points {
                    print!(" {:>12.1}", p.metrics.exec_us);
                }
                println!();
            }
            println!("\n(cells: execution time in us)");
        }
        _ => {
            eprintln!("unknown ablation {which}; expected g | protocol | cache");
            std::process::exit(2);
        }
    }
    eprintln!(
        "ablation {which}: elapsed {:.1?} ({})",
        started.elapsed(),
        jobs_label(jobs)
    );
}

/// Human label for a `--jobs` setting.
fn jobs_label(jobs: usize) -> String {
    if jobs == 0 {
        format!("jobs=auto({})", spasm_exec::available_parallelism())
    } else {
        format!("jobs={jobs}")
    }
}

/// Creates or resumes the per-figure journal, mapping each failure
/// class onto its exit code (4 = fingerprint mismatch, 5 = I/O or
/// corruption).
fn open_journal(
    path: &str,
    spec: &FigureSpec,
    args: &Args,
    sweep: &SweepConfig,
) -> Result<SweepJournal, ExitCode> {
    let opened = if args.resume {
        SweepJournal::resume(path, spec, args.size, &args.procs, args.seed, sweep)
    } else {
        SweepJournal::create(path, spec, args.size, &args.procs, args.seed, sweep)
    };
    opened.map_err(|e| {
        eprintln!("journal {path}: {e}");
        if matches!(
            e,
            spasm_core::journal::ResumeError::Journal(
                spasm_journal::JournalError::AlreadyExists { .. }
            )
        ) {
            eprintln!("(pass --resume to continue the interrupted sweep)");
        }
        if e.is_fingerprint_mismatch() {
            ExitCode::from(EXIT_MISMATCH)
        } else {
            ExitCode::from(EXIT_IO)
        }
    })
}

/// Worker mode: run only `shard`'s points of each requested figure into
/// `DIR/<figure>.shard-K-of-N.journal`. Prints nothing to stdout — the
/// journal is the shard's entire output, so a merge over the directory
/// is the only way results become visible, and killing this process at
/// any instant costs at most one in-flight point.
fn run_shard(args: &Args, sweep: &SweepConfig, shard: ShardSpec) -> ExitCode {
    let dir = args.journal.as_deref().expect("checked in parse_args");
    if let Some(path) = &args.telemetry {
        eprintln!(
            "shard {shard}: interval records ride in the shard journals; \
             {path} will be written by the --merge invocation"
        );
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create journal directory {dir}: {e}");
        return ExitCode::from(EXIT_IO);
    }
    let started = Instant::now();
    let mut worst = 0u8;
    for spec in &args.figures {
        let jpath = std::path::Path::new(dir)
            .join(shard.file_name(spec.id))
            .display()
            .to_string();
        let journal = match open_journal(&jpath, spec, args, sweep) {
            Ok(j) => j,
            Err(code) => return code,
        };
        if journal.repaired_bytes() > 0 {
            eprintln!(
                "{}: journal {jpath}: dropped a {}-byte torn tail",
                spec.id,
                journal.repaired_bytes()
            );
        }
        let report = run_figure_shard(
            spec,
            args.size,
            &args.procs,
            args.seed,
            *sweep,
            shard,
            &journal,
            |_| {},
        );
        eprintln!(
            "{} shard {shard}: {} owned, {} replayed, {} fresh, {} failed",
            spec.id, report.owned, report.replayed, report.fresh, report.failed
        );
        if let Some(e) = journal.io_error() {
            // Unlike the single-process journaled path, a shard has no
            // stdout to fall back on: a journal that stopped persisting
            // means the work is simply not done.
            eprintln!("{}: journal {jpath} stopped persisting: {e}", spec.id);
            worst = worst.max(EXIT_IO);
        }
        if let Some(w) = journal.dir_sync_warning() {
            eprintln!("{}: warning: {w}", spec.id);
        }
        if report.failed > 0 {
            worst = worst.max(EXIT_SALVAGED);
        }
    }
    eprintln!(
        "shard {shard}: {} figure(s) in {:.1?} ({})",
        args.figures.len(),
        started.elapsed(),
        jobs_label(args.jobs)
    );
    ExitCode::from(worst)
}

/// Merge mode: reassemble per-shard journals under `dir` into stdout
/// byte-identical to a serial run, quarantining what cannot be trusted
/// and salvaging partial figures from what can.
fn run_merge(args: &Args, sweep: &SweepConfig, dir: &str) -> ExitCode {
    let mut csv = String::from("figure,app,net,metric,procs,machine,value,reason\n");
    let mut jsonl = String::new();
    let mut worst = 0u8;
    let mut failed_points = 0usize;
    for spec in &args.figures {
        let report = match merge_shards(
            std::path::Path::new(dir),
            spec,
            args.size,
            &args.procs,
            args.seed,
            sweep,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: merge {dir}: {e}", spec.id);
                let code = match e {
                    ShardError::Overlap { .. } => EXIT_OVERLAP,
                    _ => EXIT_IO,
                };
                return ExitCode::from(code);
            }
        };
        eprintln!(
            "{}: merged {} shard journal(s): {} point(s), {} duplicate(s) deduped",
            spec.id, report.shards_merged, report.points_merged, report.duplicates
        );
        for (path, bytes) in &report.torn {
            eprintln!(
                "{}: {}: tolerated a {bytes}-byte torn tail",
                spec.id,
                path.display()
            );
        }
        for q in &report.quarantined {
            eprintln!("{}: quarantined shard: {q}", spec.id);
            worst = worst.max(match q {
                ShardError::FingerprintMismatch { .. } => EXIT_MISMATCH,
                _ => EXIT_IO,
            });
        }
        if report.missing_points > 0 {
            eprintln!(
                "{}: {} point(s) not covered by any surviving shard",
                spec.id, report.missing_points
            );
        }
        let data = report.data;
        println!("{}", data.render_table());
        if args.chart {
            println!("{}", data.render_chart(12));
        }
        for s in &data.series {
            for (i, outcome) in s.outcomes.iter().enumerate() {
                if let spasm_core::sweep::Outcome::Failed { error, attempts } = outcome {
                    failed_points += 1;
                    eprintln!(
                        "{}: p={} {}: FAILED after {attempts} attempt(s): {error}",
                        spec.id, data.procs[i], s.machine
                    );
                }
            }
        }
        for line in data.to_csv().lines().skip(1) {
            csv.push_str(line);
            csv.push('\n');
        }
        jsonl.push_str(&data.to_telemetry_jsonl());
    }
    if let Some(path) = &args.csv {
        match std::fs::File::create(path).and_then(|mut f| f.write_all(csv.as_bytes())) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                worst = worst.max(EXIT_IO);
            }
        }
    }
    if let Some(path) = &args.telemetry {
        match std::fs::File::create(path).and_then(|mut f| f.write_all(jsonl.as_bytes())) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                worst = worst.max(EXIT_IO);
            }
        }
    }
    if failed_points > 0 {
        eprintln!("{failed_points} point(s) failed (partial figures salvaged)");
        worst = worst.max(EXIT_SALVAGED);
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(which) = &args.ablation {
        run_ablation(which, args.jobs);
        return ExitCode::SUCCESS;
    }
    let sweep = SweepConfig {
        jobs: args.jobs,
        budget: args
            .budget_events
            .map_or(RunBudget::UNLIMITED, RunBudget::events),
        check: args.check,
        faults: args.faults.map(FaultPlan::adversarial),
        deadline: args.deadline,
        telemetry: args
            .telemetry
            .as_ref()
            .map(|_| TelemetryConfig::every_us(args.telemetry_interval_us)),
    };
    if let Some(dir) = &args.merge {
        return run_merge(&args, &sweep, dir);
    }
    if let Some(shard) = args.shard {
        return run_shard(&args, &sweep, shard);
    }
    let total_started = Instant::now();
    let mut total_busy = Duration::ZERO;
    let mut total_points = 0usize;
    let mut csv = String::from("figure,app,net,metric,procs,machine,value,reason\n");
    let mut jsonl = String::new();
    let mut failed_points = 0;
    for spec in &args.figures {
        let started = Instant::now();
        let journal = match &args.journal {
            Some(base) => {
                let jpath = format!("{base}.{}", spec.id);
                let journal = match open_journal(&jpath, spec, &args, &sweep) {
                    Ok(j) => j,
                    Err(code) => return code,
                };
                if journal.repaired_bytes() > 0 {
                    eprintln!(
                        "{}: journal {jpath}: dropped a {}-byte torn tail",
                        spec.id,
                        journal.repaired_bytes()
                    );
                }
                Some((jpath, journal))
            }
            None => None,
        };
        // Per-point wall times, folded per series by the observer as the
        // pool reports completions (job indices are series-major). Under
        // a resumed journal the fresh points are a sparse subset, so the
        // index->series mapping no longer holds and only the
        // figure-level total is reported.
        let points_per_series = args.procs.len().max(1);
        let mut series_busy = vec![Duration::ZERO; spec.machines.len()];
        let mut fresh_points = 0usize;
        let data = run_figure(
            spec,
            args.size,
            &args.procs,
            args.seed,
            sweep,
            journal.as_ref().map(|(_, j)| j),
            |ev| {
                let (ExecEvent::Finished { job, wall, .. }
                | ExecEvent::Panicked { job, wall, .. }
                | ExecEvent::Deadlined { job, wall, .. }) = ev;
                series_busy[job / points_per_series] += *wall;
                fresh_points += 1;
            },
        );
        total_busy += series_busy.iter().sum::<Duration>();
        // Timing goes to stderr: the stdout stream stays parseable
        // (tables/CSV only) and byte-identical across --jobs settings.
        if let Some((jpath, journal)) = &journal {
            eprintln!(
                "{}: journal {jpath}: {} point(s) replayed, {} run fresh",
                spec.id,
                journal.replayed(),
                fresh_points
            );
            if let Some(e) = journal.io_error() {
                eprintln!(
                    "{}: warning: journal {jpath} stopped persisting ({e}); \
                     results are complete in memory but will re-run on resume",
                    spec.id
                );
            }
            if let Some(w) = journal.dir_sync_warning() {
                eprintln!("{}: warning: {w}", spec.id);
            }
        } else {
            for (s, busy) in data.series.iter().zip(&series_busy) {
                eprintln!(
                    "{}: series {}: {:.1?} simulated across {} point(s)",
                    spec.id,
                    s.machine,
                    busy,
                    data.procs.len()
                );
            }
        }
        let figure_wall = started.elapsed();
        println!("{}", data.render_table());
        if args.chart {
            println!("{}", data.render_chart(12));
        }
        eprintln!(
            "{}: swept in {:.1?} ({})",
            spec.id,
            figure_wall,
            jobs_label(args.jobs)
        );
        total_points += data.series.len() * data.procs.len();
        // Every failed point is named on stderr but does not abort the
        // remaining figures.
        for s in &data.series {
            for (i, outcome) in s.outcomes.iter().enumerate() {
                if let spasm_core::sweep::Outcome::Failed { error, attempts } = outcome {
                    failed_points += 1;
                    eprintln!(
                        "{}: p={} {}: FAILED after {attempts} attempt(s): {error}",
                        spec.id, data.procs[i], s.machine
                    );
                }
            }
        }
        // Append all but the shared header line.
        for line in data.to_csv().lines().skip(1) {
            csv.push_str(line);
            csv.push('\n');
        }
        jsonl.push_str(&data.to_telemetry_jsonl());
    }
    let total_wall = total_started.elapsed();
    eprintln!(
        "total: {} figure(s), {} point(s), {:.1?} simulated in {:.1?} wall ({:.1}x, {})",
        args.figures.len(),
        total_points,
        total_busy,
        total_wall,
        total_busy.as_secs_f64() / total_wall.as_secs_f64().max(1e-9),
        jobs_label(args.jobs)
    );
    if let Some(path) = args.csv {
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(csv.as_bytes())) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    }
    if let Some(path) = args.telemetry {
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(jsonl.as_bytes())) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    }
    if failed_points > 0 {
        eprintln!("{failed_points} point(s) failed (partial figures salvaged)");
        return ExitCode::from(EXIT_SALVAGED);
    }
    ExitCode::SUCCESS
}
