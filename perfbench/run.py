#!/usr/bin/env python3
"""The repository benchmark: host cost of the `figures` CLI on a workload.

    python3 perfbench/run.py --workload mesh-serial --seed 1995 --seconds 20 --trace 0

Run from the root of a checkout. It builds the `figures` CLI and the
benchmark's probe (`perfbench/probe`) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then:

* `--trace 0` repeats the workload for about `--seconds` seconds and
  reports the end-to-end metrics, each the median over repetitions;
* `--trace 1` runs the workload once more per layer question and reports
  the per-layer metrics (see layers.py).

Both check every point's output (see outputs.py). The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--write-reference` stores the default seed's outputs as the reference.
README.md documents every metric and workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import host  # noqa: E402
import outputs  # noqa: E402
from workloads import HERE, REFERENCE, ROOT, SCENARIOS, WORKLOADS, Checker, cli_argv, rep_cost, run_pass, run_rep, setup_sample  # noqa: E402

# Set-up samples before each repetition of the workload. Set-up is tens
# of milliseconds, so samples spread over the whole run cost little and
# steady the median.
SETUP_SAMPLES = 2
# Repetitions of the workload per run, at the least.
MIN_REPS = 3


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the CLI and the probe; returns their paths."""
    for need in ("Cargo.toml", "crates", *SCENARIOS):
        if not (ROOT / need).exists():
            die(f"{ROOT / need} is missing: run from the root of a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "spasm-bench", "--bin", "figures"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "probe" / "Cargo.toml")],
    ):
        # Cargo's output goes to stderr: stdout carries only results.
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die(f"build failed: {' '.join(argv)}")
    return target / "release" / "figures", target / "release" / "perfbench-probe"


def e2e(w, bins, seed, seconds, work):
    """The end-to-end run: set-up timing, then repetitions of the workload
    for about `seconds` seconds. Returns (checker, metrics)."""
    figures_bin, probe_bin = bins
    checker = Checker(w, seed)
    reps, setup = [], []
    start = time.perf_counter()
    while True:
        setup += [setup_sample(w, probe_bin, seed)["setup_s"] for _ in range(SETUP_SAMPLES)]
        d = work / f"rep{len(reps)}"
        passes = run_rep(w, figures_bin, seed, d)
        checker.check(passes)
        reps.append(rep_cost(passes))
        shutil.rmtree(d)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    wall = [r["wall_s"] for r in reps]
    print(f"{w.name}: setup_s over {len(setup)} samples: median {statistics.median(setup):.6f}")
    print(
        f"{w.name}: wall_s over {len(wall)} repetitions: median {statistics.median(wall):.4f} "
        f"min {min(wall):.4f} max {max(wall):.4f}"
    )
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return checker, metrics


def write_reference(w, bins, work):
    """Stores the default seed's outputs of one repetition, with
    telemetry (from an extra pass where the workload runs without it)."""
    figures_bin, _ = bins
    seed = outputs.DEFAULT_SEED
    passes = run_rep(w, figures_bin, seed, work / "ref")
    first = passes[0]
    if first.cost["exit_code"] != 0:
        die(f"reference pass exited {first.cost['exit_code']}; see {first.directory}/stderr.txt")
    tel_dir = first.directory
    if not w.telemetry:
        tel = run_pass(cli_argv(w, figures_bin, seed, telemetry="telemetry.jsonl"), work / "tel")
        tel_dir = tel.directory
    outputs.write_reference(
        REFERENCE / w.name,
        (first.directory / "stdout.txt").read_text(),
        (first.directory / "values.csv").read_text(),
        (tel_dir / "telemetry.jsonl").read_text(),
    )
    print(f"wrote reference for {w.name} to {REFERENCE / w.name}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=outputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    if args.write_reference and args.seed != outputs.DEFAULT_SEED:
        die(f"references are kept for the default seed {outputs.DEFAULT_SEED} only")

    bins = build()
    work = ROOT / ".bench_run" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            write_reference(w, bins, work)
            return
        print(json.dumps({"host": host.host_facts(ROOT, args.seed), "workload": w.name}))
        notes = {}
        if args.trace:
            import layers

            checker, report = layers.trace(w, bins, args.seed, work)
            metrics, notes = report.metrics, report.notes
        else:
            checker, metrics = e2e(w, bins, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    fail_frac = checker.failed / max(checker.attempted, 1)
    print(f"fail_frac = {fail_frac:.6g} ({checker.failed} failed of {checker.attempted} attempted points)")
    for ex in checker.examples:
        print(f"failed point: {ex}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
