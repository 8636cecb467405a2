//! Scenario engine wall-clock: sweep one representative `.scn` workload
//! with telemetry off and on, so the interval hook's cost is visible as
//! the ratio between the two rows. The workload is inlined rather than
//! read from `examples/` so the bench is hermetic in any working
//! directory.
//!
//! `scenario/events` gauges the swept event total: a row whose timing
//! moves should be read against whether the work itself moved.

use spasm_apps::SizeClass;
use spasm_bench::harness::Harness;
use spasm_core::sweep::{run_figure, SweepConfig};
use spasm_machine::TelemetryConfig;

const SCN: &str = "\
[scenario]
name = bench-bsp
clients = 2
rounds = 3
working-set = 64
sharing = 0.2
writes = 0.5
locality = uniform
msg-bytes = 16..32
net = cube
metric = exec

[phase]
kind = compute
cycles = 400

[phase]
kind = mem
ops = 4

[phase]
kind = comm
messages = 2

[phase]
kind = barrier
";

fn main() {
    let mut h = Harness::new("scenario_speed");
    let sc = spasm_scenario::parse(SCN).expect("inline scenario parses");
    let spec = spasm_scenario::compile(&sc).expect("inline scenario compiles");
    let procs: &[usize] = &[2, 4, 8];

    h.bench("scenario_bsp/telemetry_off", || {
        let data = run_figure(
            spec,
            SizeClass::Test,
            procs,
            1995,
            SweepConfig::default(),
            None,
            |_| {},
        );
        assert_eq!(data.failed_points(), 0, "scenario must sweep clean");
        data
    });

    h.bench("scenario_bsp/telemetry_on", || {
        let sweep = SweepConfig {
            telemetry: Some(TelemetryConfig::every_us(100)),
            ..SweepConfig::default()
        };
        let data = run_figure(spec, SizeClass::Test, procs, 1995, sweep, None, |_| {});
        assert_eq!(data.failed_points(), 0, "scenario must sweep clean");
        data
    });

    let data = run_figure(
        spec,
        SizeClass::Test,
        procs,
        1995,
        SweepConfig::default(),
        None,
        |_| {},
    );
    let events: u64 = data
        .series
        .iter()
        .flat_map(|s| s.metrics.iter().flatten())
        .map(|m| m.events)
        .sum();
    h.gauge("scenario/events", events);

    h.finish();
}
