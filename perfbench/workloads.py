"""The benchmark's workloads and how to run one repetition of each.

Every workload is a sweep of the `figures` CLI over p = 2, 4, 8, 16, 32,
and every point starts with cold simulated caches (each point builds a
fresh machine). README.md gives the reason for each workload.
"""

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path

import host
import outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
SCENARIOS = tuple(f"examples/scenarios/{n}.scn" for n in ("bsp", "hotspot", "neighbor", "streaming"))


@dataclass(frozen=True)
class Workload:
    name: str
    figures: tuple
    size: str
    jobs: int
    points: int
    scenarios: tuple = ()
    check: bool = False
    journal: bool = False
    telemetry: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mesh-serial",
            ("F7", "F11", "F13", "F17"),
            "small",
            jobs=1,
            points=50,
        ),
        Workload(
            "full-jobs2",
            ("F1", "F2", "F3", "F4"),
            "small",
            jobs=2,
            points=60,
        ),
        Workload(
            "checked-journal",
            ("F5", "F4"),
            "test",
            jobs=1,
            points=110,
            scenarios=SCENARIOS,
            check=True,
            journal=True,
            telemetry=True,
        ),
    )
}


def cli_argv(w, figures_bin, seed, journal=None, resume=False, telemetry=None):
    """The `figures` command line of a workload pass. Output files get
    fixed relative names, so stdout (which names them) is comparable."""
    argv = [str(figures_bin)]
    for f in w.figures:
        argv += ["--figure", f]
    for s in w.scenarios:
        argv += ["--scenario", str(ROOT / s)]
    argv += ["--size", w.size, "--seed", str(seed)]
    argv += ["--serial"] if w.jobs == 1 else ["--jobs", str(w.jobs)]
    if w.check:
        argv.append("--check")
    if journal:
        argv += ["--journal", str(journal)]
    if resume:
        argv.append("--resume")
    if telemetry:
        argv += ["--telemetry", telemetry]
    argv += ["--csv", "values.csv"]
    return argv


def probe_argv(w, probe_bin, seed, command, *extra):
    """A probe command line over the same points as the workload."""
    argv = [str(probe_bin), command]
    for f in w.figures:
        argv += ["--figure", f]
    for s in w.scenarios:
        argv += ["--scenario", str(ROOT / s)]
    argv += ["--size", w.size, "--seed", str(seed)]
    if w.check:
        argv.append("--check")
    if w.telemetry:
        argv.append("--telemetry")
    return argv + list(extra)


def run_probe(argv):
    """Runs the probe and returns its JSON lines."""
    done = subprocess.run(argv, capture_output=True, text=True, timeout=host.CHILD_DEADLINE_S)
    if done.returncode != 0:
        raise RuntimeError(f"probe failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.strip()]


def setup_sample(w, probe_bin, seed):
    """One sample of the workload's set-up cost from the probe's repeated
    in-process set-ups: a dict of seconds (`setup_s`, `build_s`,
    `engine_s`, `compile_s`), each summing over the points the point's
    fastest set-up."""
    return run_probe(probe_argv(w, probe_bin, seed, "setup"))[0]


@dataclass
class Pass:
    """One `figures` process: its host costs and its outputs."""

    cost: dict
    out: outputs.Outputs
    directory: Path


def run_pass(argv, directory, telemetry=None, compare_stdout=True):
    directory.mkdir(parents=True, exist_ok=True)
    cost = host.run_measured(argv, directory, directory / "stdout.txt", directory / "stderr.txt")
    out = outputs.Outputs.read(
        directory,
        stdout="stdout.txt" if compare_stdout else None,
        telemetry=telemetry,
        exit_code=cost["exit_code"],
    )
    return Pass(cost, out, directory)


def run_rep(w, figures_bin, seed, directory, journal=None):
    """One repetition of the workload as a user runs it: one pass, plus
    the `--resume` pass on a journaled workload. `journal` overrides
    whether to journal (the trace compares with and without)."""
    journal = w.journal if journal is None else journal
    telemetry = "telemetry.jsonl" if w.telemetry else None
    base = (directory / "run" / "jr").resolve() if journal else None
    passes = [
        run_pass(
            cli_argv(w, figures_bin, seed, journal=base, telemetry=telemetry),
            directory / "run",
            telemetry,
        )
    ]
    if journal:
        passes.append(
            run_pass(
                cli_argv(w, figures_bin, seed, journal=base, resume=True, telemetry=telemetry),
                directory / "resume",
                telemetry,
            )
        )
    return passes


def rep_cost(passes):
    """Host costs of a repetition: times add up over its passes, peak
    memory is the largest."""
    return {
        "wall_s": sum(p.cost["wall_s"] for p in passes),
        "cpu_s": sum(p.cost["cpu_s"] for p in passes),
        "rss_mb": max(p.cost["rss_mb"] for p in passes),
    }


class Checker:
    """Counts attempted and failed points across the passes of a run.

    For the default seed every pass is compared with the committed
    reference. For any seed, every pass is also compared with the first
    pass of the run: the simulator is deterministic, so repetitions and
    `--resume` must reproduce it.
    """

    def __init__(self, w, seed):
        self.w = w
        self.reference = outputs.read_reference(REFERENCE / w.name) if seed == outputs.DEFAULT_SEED else None
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def check(self, passes):
        """Checks one repetition (a list of passes over the same points)."""
        bad = set()
        for p in passes:
            bad |= outputs.failed_points(p.out, self.reference, self.w.points)
            if self.first is None:
                self.first = p.out
            else:
                bad |= outputs.failed_points(p.out, self.first, self.w.points)
        self.attempted += self.w.points
        self.failed += len(bad)
        self.examples += sorted(bad)[: max(0, 5 - len(self.examples))]
        return bad

    def check_subset(self, p, points, label):
        """Checks a pass over `points` of the workload's points: its own
        failures and missing points, and its CSV values against the
        first pass."""
        bad = outputs.failed_points(p.out, None, points)
        self.attempted += points
        self.failed += len(bad)
        self.examples += [(label,) + k for k in sorted(bad)[:3]]
        self.check_values({k: row.split(",")[6] for k, row in (p.out.rows or {}).items()}, label)

    def check_values(self, keyed_values, label):
        """Compares in-process values {point: value string} with the CSV
        values of the first pass: both must be the same simulation."""
        rows = (self.first.rows if self.first else None) or {}
        bad = {k for k, v in keyed_values.items() if k not in rows or rows[k].split(",")[6] != v}
        self.attempted += len(keyed_values)
        self.failed += len(bad)
        if bad:
            self.examples += [(label,) + k for k in sorted(bad)[:3]]
        return bad
