//! In-process probes behind `perfbench/run.py`.
//!
//! ```text
//! perfbench-probe setup  WORKLOAD
//! perfbench-probe points WORKLOAD [--all-models] [--no-check] [--no-telemetry] [--phases]
//! perfbench-probe micro  [--peak-queue N]
//!
//! WORKLOAD = (--figure ID | --scenario FILE)... --size test|small
//!            --seed N [--check] [--telemetry]
//! ```
//!
//! `WORKLOAD` takes the flags of the `figures` CLI the benchmark times,
//! with the same meaning, so both describe one set of points: every
//! source over `figures::PROC_SWEEP`. `--telemetry` takes no file here; it
//! collects telemetry in-process at the CLI's default bucket width.
//! Every command prints JSON lines on stdout.
//!
//! The probe calls only the public interfaces the benchmark promises to
//! keep stable: `AppId::instantiate`, `App::build`, `Engine::with_config`,
//! `Engine::run`, `Experiment::run_with_config` (with a `MachineConfig`
//! built from `..machine.config()`), `EventQueue`, `Network`,
//! `GapTracker`, `CoherenceController` and `spasm_scenario::compile`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use spasm_apps::SizeClass;
use spasm_cache::{AccessKind, CacheConfig, CoherenceController};
use spasm_core::figures::{self, FigureSpec};
use spasm_core::sweep::extract;
use spasm_core::{Experiment, Machine, TelemetryConfig};
use spasm_desim::{EventQueue, SimTime};
use spasm_logp::{GapPolicy, GapTracker, NetEvent};
use spasm_machine::{CheckMode, Engine, MachineConfig, SetupCtx};
use spasm_net::Network;
use spasm_topology::{NodeId, Topology, TopologyKind};

/// The `figures` CLI's default telemetry bucket width.
const TELEMETRY_US: u64 = 100;

/// Set-ups of the whole workload behind one `setup` line. Each point keeps
/// its fastest, so a moment of contention on the host is not counted.
const SETUP_REPS: usize = 10;

/// The four machine characterizations, in the order the metrics name them.
const MODELS: [Machine; 4] = [
    Machine::Pram,
    Machine::Target,
    Machine::LogP,
    Machine::CLogP,
];

/// One input of a workload, in command-line order.
enum Source {
    Figure(&'static FigureSpec),
    /// A `.scn` file: its text, and the path for error messages.
    Scenario {
        path: String,
        text: String,
    },
}

/// A workload: the same point grid the `figures` CLI sweeps for the same
/// flags.
struct Workload {
    sources: Vec<Source>,
    size: SizeClass,
    seed: u64,
    check: bool,
    telemetry: bool,
}

/// Options that only some commands read.
#[derive(Default)]
struct Opts {
    all_models: bool,
    no_check: bool,
    no_telemetry: bool,
    phases: bool,
    peak_queue: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench-probe: {msg}");
    eprintln!(
        "usage: perfbench-probe (setup|points|micro) [--figure ID] [--scenario FILE] \
         [--size S] [--seed N] [--check] [--telemetry] \
         [--all-models] [--no-check] [--no-telemetry] [--phases] [--peak-queue N]"
    );
    std::process::exit(2)
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

fn parse_args(args: impl Iterator<Item = String>) -> (Workload, Opts) {
    let mut w = Workload {
        sources: Vec::new(),
        size: SizeClass::Small,
        seed: 1995,
        check: false,
        telemetry: false,
    };
    let mut o = Opts::default();
    let mut it = args;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--figure" => {
                let id = it.next().unwrap_or_else(|| usage("--figure needs an id"));
                let spec =
                    figures::by_id(&id).unwrap_or_else(|| usage(&format!("unknown figure {id}")));
                w.sources.push(Source::Figure(spec));
            }
            "--scenario" => {
                let path = it
                    .next()
                    .unwrap_or_else(|| usage("--scenario needs a file"));
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
                w.sources.push(Source::Scenario { path, text });
            }
            "--size" => {
                w.size = match it.next().as_deref() {
                    Some("test") => SizeClass::Test,
                    Some("small") => SizeClass::Small,
                    _ => usage("--size takes test or small"),
                }
            }
            "--seed" => w.seed = parse_num("--seed", it.next()),
            "--check" => w.check = true,
            "--telemetry" => w.telemetry = true,
            "--all-models" => o.all_models = true,
            "--no-check" => o.no_check = true,
            "--no-telemetry" => o.no_telemetry = true,
            "--phases" => o.phases = true,
            "--peak-queue" => o.peak_queue = parse_num("--peak-queue", it.next()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    (w, o)
}

impl Workload {
    /// Resolves every source to its figure spec, compiling scenarios.
    /// Returns the specs and the time spent parsing and compiling.
    fn specs(&self) -> (Vec<&'static FigureSpec>, Duration) {
        let mut compile = Duration::ZERO;
        let specs = self
            .sources
            .iter()
            .map(|s| match s {
                Source::Figure(spec) => *spec,
                Source::Scenario { path, text } => {
                    let t = Instant::now();
                    let spec = spasm_scenario::parse(text)
                        .map_err(|e| e.to_string())
                        .and_then(|sc| spasm_scenario::compile(&sc))
                        .unwrap_or_else(|e| usage(&format!("scenario {path}: {e}")));
                    compile += t.elapsed();
                    spec
                }
            })
            .collect();
        (specs, compile)
    }

    /// The machine configuration the `figures` CLI gives every point of
    /// this workload, optionally with checking or telemetry turned off.
    fn config(&self, machine: Machine, opts: &Opts) -> MachineConfig {
        MachineConfig {
            check: if self.check && !opts.no_check {
                CheckMode::On
            } else {
                CheckMode::Off
            },
            telemetry: (self.telemetry && !opts.no_telemetry)
                .then(|| TelemetryConfig::every_us(TELEMETRY_US)),
            ..machine.config()
        }
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Times set-up only: `AppId::instantiate` + `App::build` +
/// `Engine::with_config` for every point, plus scenario compilation,
/// `SETUP_REPS` times over. The line carries the sums over the points of
/// each point's fastest repetition of each stage. The engine is dropped
/// outside the timed region.
fn cmd_setup(w: &Workload, o: &Opts) {
    let mut build: Vec<Duration> = Vec::new();
    let mut engine: Vec<Duration> = Vec::new();
    let mut compile = Duration::MAX;
    for _ in 0..SETUP_REPS {
        let (specs, compiled) = w.specs();
        compile = compile.min(compiled);
        let mut point = 0;
        for spec in &specs {
            for &machine in spec.machines {
                let config = w.config(machine, o);
                for &p in figures::PROC_SWEEP {
                    let t0 = Instant::now();
                    let app = spec.app.instantiate(w.size);
                    let mut setup = SetupCtx::new(p);
                    let built = app.build(&mut setup, w.seed);
                    let t1 = Instant::now();
                    let topo = Topology::try_of_kind(spec.net.kind(), p)
                        .unwrap_or_else(|e| usage(&format!("{} p={p}: {e}", spec.id)));
                    let eng =
                        Engine::with_config(machine.kind(), &topo, config, setup, built.bodies);
                    let t2 = Instant::now();
                    black_box(&eng);
                    drop(eng);
                    if point == build.len() {
                        build.push(Duration::MAX);
                        engine.push(Duration::MAX);
                    }
                    build[point] = build[point].min(t1 - t0);
                    engine[point] = engine[point].min(t2 - t1);
                    point += 1;
                }
            }
        }
    }
    let points = build.len();
    let build: Duration = build.iter().sum();
    let engine: Duration = engine.iter().sum();
    println!(
        "{{\"points\":{points},\"setup_s\":{},\"build_s\":{},\"engine_s\":{},\"compile_s\":{}}}",
        (build + engine + compile).as_secs_f64(),
        build.as_secs_f64(),
        engine.as_secs_f64(),
        compile.as_secs_f64()
    );
}

/// Reruns every point of the workload in-process. By default each point
/// goes through `Experiment::run_with_config` and the line carries the
/// figure value exactly as the CLI's CSV renders it; with `--phases` the
/// point is driven through its public stages instead (build, engine
/// set-up, run, verify) and the line carries the verifier's host time.
/// Build and engine set-up are timed by `setup`.
fn cmd_points(w: &Workload, o: &Opts) {
    let (specs, _) = w.specs();
    for spec in &specs {
        let mut machines: Vec<Machine> = spec.machines.to_vec();
        if o.all_models {
            machines.extend(MODELS.iter().filter(|m| !spec.machines.contains(m)));
        }
        for &machine in &machines {
            let config = w.config(machine, o);
            for &p in figures::PROC_SWEEP {
                let head = format!(
                    "\"figure\":{},\"app\":{},\"net\":{},\"machine\":{},\"procs\":{p},\"in_workload\":{}",
                    json_str(spec.id),
                    json_str(&spec.app.to_string()),
                    json_str(&spec.net.to_string()),
                    json_str(&machine.to_string()),
                    spec.machines.contains(&machine),
                );
                let body = if o.phases {
                    run_phases(spec, machine, p, w, config)
                } else {
                    run_point(spec, machine, p, w, config)
                };
                println!("{{{head},{body}}}");
            }
        }
    }
}

fn run_point(
    spec: &FigureSpec,
    machine: Machine,
    procs: usize,
    w: &Workload,
    config: MachineConfig,
) -> String {
    let exp = Experiment {
        app: spec.app,
        size: w.size,
        net: spec.net,
        machine,
        procs,
        seed: w.seed,
    };
    let t = Instant::now();
    let result = exp.run_with_config(config);
    let point_s = t.elapsed().as_secs_f64();
    match result {
        Ok(m) => format!(
            "\"ok\":true,\"value\":{},\"events\":{},\"messages\":{},\"cache_hits\":{},\"cache_misses\":{},\"sim_wall_s\":{},\"point_s\":{point_s}",
            json_str(&extract(spec.metric, &m).to_string()),
            m.events,
            m.messages,
            m.cache_hits,
            m.cache_misses,
            m.wall.as_secs_f64(),
        ),
        Err(e) => format!(
            "\"ok\":false,\"error\":{},\"point_s\":{point_s}",
            json_str(&e.to_string())
        ),
    }
}

fn run_phases(
    spec: &FigureSpec,
    machine: Machine,
    procs: usize,
    w: &Workload,
    config: MachineConfig,
) -> String {
    let topo = match Topology::try_of_kind(spec.net.kind(), procs) {
        Ok(t) => t,
        Err(e) => return format!("\"ok\":false,\"error\":{}", json_str(&e.to_string())),
    };
    let app = spec.app.instantiate(w.size);
    let mut setup = SetupCtx::new(procs);
    let built = app.build(&mut setup, w.seed);
    let mut engine = Engine::with_config(machine.kind(), &topo, config, setup, built.bodies);
    let report = engine.run();
    let t = Instant::now();
    let verdict = report
        .map_err(|e| e.to_string())
        .and_then(|r| (built.verify)(&r.final_store));
    let verify_s = t.elapsed().as_secs_f64();
    let error = match verdict {
        Ok(()) => String::new(),
        Err(e) => format!(",\"error\":{}", json_str(&e)),
    };
    format!("\"ok\":{},\"verify_s\":{verify_s}{error}", error.is_empty())
}

/// A small deterministic generator for microbenchmark inputs.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n.max(1)
    }
}

/// Median host nanoseconds per operation over `batches` batches of `ops`
/// operations each; `batch` runs one batch and returns a value to keep.
fn ns_per_op<T>(batches: usize, ops: u64, mut batch: impl FnMut(u64) -> T) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            black_box(batch(ops));
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// `EventQueue` hold time: one pop plus one push at a steady depth.
fn queue_hold_ns(depth: usize) -> f64 {
    let mut rng = Lcg(1995);
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth.max(1) {
        q.push(SimTime::from_ns(rng.below(depth as u64 * 200)), i as u32);
    }
    ns_per_op(7, 200_000, |ops| {
        for _ in 0..ops {
            let (t, e) = q.pop().expect("the queue holds `depth` events");
            q.push(t + SimTime::from_ns(1 + rng.below(400)), e);
        }
        q.len()
    })
}

/// `Network::send` cost on a persistent 32-node network, the pattern of
/// the repository's `net_micro` message-cost row.
fn send_ns(kind: TopologyKind) -> f64 {
    let p = 32;
    let mut net = Network::new(Topology::of_kind(kind, p));
    let mut i = 0u64;
    ns_per_op(7, 100_000, |ops| {
        let mut last = SimTime::ZERO;
        for _ in 0..ops {
            i += 1;
            let src = (i as usize * 7) % p;
            let dst = (i as usize * 13 + 1) % p;
            if src != dst {
                last = net
                    .send(SimTime::from_ns(i * 1000), NodeId(src), NodeId(dst), 32)
                    .arrive;
            }
        }
        last
    })
}

/// `GapTracker::acquire` cost: the send and receive halves of a message.
fn acquire_ns() -> f64 {
    let p = 32;
    let mut gaps = GapTracker::new(p, SimTime::from_ns(1600), GapPolicy::Unified);
    let mut i = 0u64;
    ns_per_op(7, 400_000, |ops| {
        let mut last = SimTime::ZERO;
        for _ in 0..ops / 2 {
            i += 1;
            let s = gaps.acquire(
                (i as usize * 7) % p,
                NetEvent::Send,
                SimTime::from_ns(i * 1000),
            );
            let r = gaps.acquire(
                (i as usize * 13 + 1) % p,
                NetEvent::Recv,
                s.start + SimTime::from_ns(1600),
            );
            last = r.start;
        }
        last
    })
}

/// `CoherenceController::access` cost for a mixed stream: 32 nodes, a
/// shared 8192-block working set, one write in four.
fn access_ns() -> f64 {
    let p = 32;
    let mut cc = CoherenceController::new(p, CacheConfig::paper());
    let mut rng = Lcg(7);
    ns_per_op(7, 200_000, |ops| {
        let mut last = None;
        for _ in 0..ops {
            let node = rng.below(p as u64) as usize;
            let block = rng.below(8192);
            let kind = if rng.below(4) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            last = Some(cc.access(node, block, kind));
        }
        last
    })
}

fn cmd_micro(o: &Opts) {
    println!(
        "{{\"queue_depth\":{},\"queue_ns\":{},\"send_ns_full\":{},\"send_ns_cube\":{},\"send_ns_mesh\":{},\"acquire_ns\":{},\"access_ns\":{}}}",
        o.peak_queue.max(1),
        queue_hold_ns(o.peak_queue),
        send_ns(TopologyKind::Full),
        send_ns(TopologyKind::Hypercube),
        send_ns(TopologyKind::Mesh2D),
        acquire_ns(),
        access_ns(),
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage("missing command"));
    let (w, o) = parse_args(args);
    match cmd.as_str() {
        "setup" => cmd_setup(&w, &o),
        "points" => cmd_points(&w, &o),
        "micro" => cmd_micro(&o),
        other => usage(&format!("unknown command {other}")),
    }
}
