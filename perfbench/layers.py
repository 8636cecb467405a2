"""The traced run (`--trace 1`): per-layer metrics of one workload.

Spans are taken from the benchmark's own files, around calls into each
layer's public interface: whole `figures` processes for host, exec and
journal; in-process reruns of the workload's points through the probe for
machine, apps, check and telemetry; and unit-cost microbenchmarks for
desim, netsim, logp and cachesim. No layer is timed from inside the
program yet, so an inner layer's time (`*.est_s`) is an estimate: the
run's own operation count times the layer's measured unit cost.

Every per-layer metric is printed for every workload. A layer that does
not run on a workload (the checker, journal, telemetry or scenario
compiler where the workload leaves them off) reads 0 and is marked
"not run".
"""

import dataclasses
import json
import re
import statistics

from workloads import Checker, cli_argv, probe_argv, run_pass, run_probe, run_rep, setup_sample

MODELS = ("pram", "target", "logp", "clogp")
# The paper's §7: the CLogP simulation ran 25-30 % faster than the target's.
S1_PAPER_PCT = (25.0, 30.0)
S1_SIZE = "test"
S1_REPS = 3
# A layer's overhead compares this many alternating runs with the layer
# on and off, keeping each point's fastest run on either side: one run's
# difference is often below the host's noise.
PAIRS = 5
# The journal's cost per point is a fraction of a millisecond, so it is
# measured on short passes, many times over.
JOURNAL_PAIRS = 15
# Set-up samples behind apps.build_ms, machine.engine_new_ms and
# scenario.compile_ms.
SETUP_SAMPLES = 5

_DURATION = r"([\d.]+)(ns|µs|us|ms|s)"
_TOTAL = re.compile(rf"^total: .* {_DURATION} simulated in {_DURATION} wall", re.M)
_SCALE = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def cli_busy_s(stderr_text):
    """Summed per-point host seconds from the CLI's closing stderr line
    (`total: ... 6.0s simulated in 3.1s wall ...`), or None."""
    m = _TOTAL.search(stderr_text)
    return float(m.group(1)) * _SCALE[m.group(2)] if m else None


def peak_queue(telemetry_text):
    """The deepest event queue any point's telemetry summary reports."""
    depths = [
        json.loads(line).get("peak_queue", 0)
        for line in telemetry_text.splitlines()
        if '"kind":"summary"' in line
    ]
    return max(depths, default=1)


def paired_overhead(run_on, run_off, pairs=PAIRS):
    """Host seconds with a layer on minus off, and with it on. Each run
    returns {point: host seconds}; alternating runs are repeated `pairs`
    times, and each side sums each point's fastest run."""
    on, off = {}, {}
    for _ in range(pairs):
        for side, run in ((on, run_on), (off, run_off)):
            for k, t in run().items():
                side[k] = min(side.get(k, t), t)
    return sum(on.values()) - sum(off.values()), sum(on.values())


def key(r):
    return (r["figure"], r["machine"], str(r["procs"]))


def workload_points(points):
    return [r for r in points if r["in_workload"]]


def total(points, field):
    return sum(r[field] for r in points if r["ok"])


class Report:
    """Per-layer metrics in print order, each with its unit, and the notes
    printed beside some of them."""

    def __init__(self):
        self.metrics = {}
        self.notes = {}

    def add(self, name, value, unit, note=""):
        self.metrics[name] = (value, unit)
        if note:
            self.notes[name] = note


def trace(w, bins, seed, work):
    figures_bin, probe_bin = bins
    checker = Checker(w, seed)
    rep = Report()
    not_run = "not run on this workload"

    # host: the workload as users run it.
    passes = run_rep(w, figures_bin, seed, work / "cli")
    checker.check(passes)
    first = passes[0]
    cost = first.cost
    rep.add("host.sys_frac", cost["sys_s"] / max(cost["cpu_s"], 1e-9), "ratio")
    rep.add("host.ctx_switches", cost["ctx_switches"], "count")
    rep.add("host.peak_threads", cost["peak_threads"], "count")

    # telemetry: the workload's own records, or an extra pass for the
    # event queue's depth where the workload runs without telemetry.
    if w.telemetry:
        tel_text = (first.directory / "telemetry.jsonl").read_text()
    else:
        tel = run_pass(
            cli_argv(w, figures_bin, seed, telemetry="telemetry.jsonl"),
            work / "tel",
            telemetry="telemetry.jsonl",
            compare_stdout=False,
        )
        checker.check([tel])
        tel_text = (tel.directory / "telemetry.jsonl").read_text()
    depth = peak_queue(tel_text)
    rep.add("desim.peak_queue", depth, "count")
    rep.add("telemetry.records", len(tel_text.splitlines()) if w.telemetry else 0, "count", "" if w.telemetry else not_run)

    # journal: with against without, the resume pass, and bytes on disk.
    # The journal commits once per point, and its cost is small beside the
    # noise of a whole pass. It is therefore measured on the workload's
    # scenario points alone, with checking and telemetry off (a pass of
    # about half a second), and scaled to the workload's points.
    if w.journal:
        bare = dataclasses.replace(w, figures=(), check=False, telemetry=False)
        bare_points = len([k for k in checker.first.rows if k[0].startswith("scn-")])
        runs = iter(range(2 * JOURNAL_PAIRS))

        def bare_pass_wall(journal):
            d = work / f"journal{next(runs)}"
            base = (d / "jr").resolve() if journal else None
            p = run_pass(cli_argv(bare, figures_bin, seed, journal=base), d, compare_stdout=False)
            checker.check_subset(p, bare_points, "journal pass")
            return {"pass": p.cost["wall_s"]}

        overhead, _ = paired_overhead(
            lambda: bare_pass_wall(True), lambda: bare_pass_wall(False), JOURNAL_PAIRS
        )
        rep.add(
            "journal.overhead_s",
            overhead / bare_points * w.points,
            "s",
            f"estimate: fastest of {JOURNAL_PAIRS} passes on and off over the {bare_points} scenario points, "
            f"checking and telemetry off, scaled to {w.points} points",
        )
        rep.add("journal.replay_ms", passes[1].cost["wall_s"] * 1e3, "ms")
        rep.add("journal.bytes", sum(f.stat().st_size for f in first.directory.glob("jr.*")), "bytes")
    else:
        for name, unit in (("journal.overhead_s", "s"), ("journal.replay_ms", "ms"), ("journal.bytes", "bytes")):
            rep.add(name, 0, unit, not_run)

    # machine + desim: every point of the workload rerun in-process on all
    # four models (PRAM's model does no work: engine and hand-off only).
    points = run_probe(probe_argv(w, probe_bin, seed, "points", "--all-models"))
    mine = workload_points(points)
    checker.check_values({key(r): r.get("value") for r in mine}, "probe")
    failed_runs = [r for r in points if not r["ok"]]
    checker.attempted += len(points) - len(mine)
    checker.failed += len([r for r in failed_runs if not r["in_workload"]])
    for model in MODELS:
        of = [r for r in points if r["machine"] == model]
        ns = total(of, "sim_wall_s") / max(total(of, "events"), 1) * 1e9
        rep.add(f"machine.ns_per_event.{model}", ns, "ns")
    rep.add("machine.events", total(mine, "events"), "count")
    run_s = total(mine, "sim_wall_s")
    rep.add("machine.run_s", run_s, "s")

    # Unit costs, then the inner layers as count x unit cost.
    micro = run_probe([str(probe_bin), "micro", "--peak-queue", str(depth)])[0]
    rep.add("desim.queue_ns", micro["queue_ns"], "ns")
    rep.add("desim.est_s", total(mine, "events") * micro["queue_ns"] * 1e-9, "s", "estimate")
    rep.add("netsim.send_ns.mesh", micro["send_ns_mesh"], "ns")
    rep.add("netsim.send_ns.full", micro["send_ns_full"], "ns")
    target = [r for r in mine if r["machine"] == "target"]
    send_ns = {"full": micro["send_ns_full"], "cube": micro["send_ns_cube"], "mesh": micro["send_ns_mesh"]}
    rep.add("netsim.msgs", total(target, "messages"), "count")
    net_est = sum(r["messages"] * send_ns[r["net"]] for r in target if r["ok"]) * 1e-9
    rep.add("netsim.est_s", net_est, "s", "estimate")
    abstract = [r for r in mine if r["machine"] in ("logp", "clogp")]
    rep.add("logp.acquire_ns", micro["acquire_ns"], "ns")
    rep.add("logp.msgs", total(abstract, "messages"), "count")
    # A LogP message takes two gap grants: the send and the receive.
    logp_est = total(abstract, "messages") * 2 * micro["acquire_ns"] * 1e-9
    rep.add("logp.est_s", logp_est, "s", "estimate")
    rep.add("cachesim.access_ns", micro["access_ns"], "ns")
    hits, misses = total(mine, "cache_hits"), total(mine, "cache_misses")
    rep.add("cachesim.hits", hits, "count")
    rep.add("cachesim.misses", misses, "count")
    cache_est = (hits + misses) * micro["access_ns"] * 1e-9
    rep.add("cachesim.est_s", cache_est, "s", "estimate")
    modelled = net_est + logp_est + cache_est + rep.metrics["desim.est_s"][0]
    rep.add(
        "machine.unattributed_share",
        1.0 - modelled / max(run_s, 1e-9),
        "ratio",
        "estimate: share of machine.run_s left to the hand-off and engine",
    )

    # check and telemetry: the same points with the layer switched off.
    def points_s(*flags):
        points = run_probe(probe_argv(w, probe_bin, seed, "points", *flags))
        checker.check_values({key(r): r.get("value") for r in points}, f"probe {' '.join(flags)}")
        return {key(r): r["point_s"] for r in points if r["ok"]}

    check, check_on = paired_overhead(points_s, lambda: points_s("--no-check")) if w.check else (0, 1)
    check_note = f"fastest of {PAIRS} runs on and off, per point" if w.check else not_run
    rep.add("check.overhead_s", check, "s", check_note)
    rep.add("check.share", check / check_on, "ratio", check_note)
    # Telemetry is measured with checking off, for the same reason as the
    # journal: its cost is small beside the noise of a checked run.
    if w.telemetry:
        off = ("--no-check",) if w.check else ()
        tel, _ = paired_overhead(lambda: points_s(*off), lambda: points_s(*off, "--no-telemetry"))
        tel_note = f"fastest of {PAIRS} runs on and off, per point, checking off"
    else:
        tel, tel_note = 0, not_run
    rep.add("telemetry.overhead_s", tel, "s", tel_note)

    # apps and machine set-up: set-up samples as the end-to-end run takes
    # them; the verifiers from the points driven stage by stage.
    samples = [setup_sample(w, probe_bin, seed) for _ in range(SETUP_SAMPLES)]
    rep.add("apps.build_ms", statistics.median(r["build_s"] for r in samples) * 1e3, "ms")
    rep.add("machine.engine_new_ms", statistics.median(r["engine_s"] for r in samples) * 1e3, "ms")
    compile_s = statistics.median(r["compile_s"] for r in samples)
    rep.add("scenario.compile_ms", compile_s * 1e3, "ms", "" if w.scenarios else not_run)
    staged = run_probe(probe_argv(w, probe_bin, seed, "points", "--phases"))
    checker.attempted += len(staged)
    checker.failed += len([r for r in staged if not r["ok"]])
    rep.add("apps.verify_ms", total(staged, "verify_s") * 1e3, "ms")

    # exec: serial sum of point times over the CLI's wall, same points.
    point_s = total(mine, "point_s")
    busy = cli_busy_s((first.directory / "stderr.txt").read_text())
    rep.add("exec.speedup", point_s / cost["wall_s"], "x")
    rep.add("exec.busy_frac", (busy or 0.0) / (w.jobs * cost["wall_s"]), "ratio")

    # core: per-point host time, and the paper's simulation-speed study.
    quartiles = statistics.quantiles([r["point_s"] * 1e3 for r in mine], n=4)
    rep.add("core.point_p50_ms", quartiles[1], "ms")
    rep.add("core.point_p75_ms", quartiles[2], "ms")
    s1(rep, checker, probe_bin, seed)
    return checker, rep


def s1(rep, checker, probe_bin, seed):
    """§7 'Speed of Simulation': CHOLESKY on the full network, host time
    of CLogP against the target, beside the paper's 25-30 %."""
    argv = [str(probe_bin), "points", "--figure", "S1", "--size", S1_SIZE, "--seed", str(seed)]
    walls = {m: [] for m in ("target", "logp", "clogp")}
    events = None
    for _ in range(S1_REPS):
        points = run_probe(argv)
        checker.attempted += len(points)
        checker.failed += len([r for r in points if not r["ok"]])
        for m in walls:
            walls[m].append(total([r for r in points if r["machine"] == m], "point_s"))
        counts = {m: total([r for r in points if r["machine"] == m], "events") for m in walls}
        if events not in (None, counts):
            # Event counts are deterministic; a change between
            # repetitions is a failure of the simulator.
            checker.failed += len(points)
        events = counts
    t_target, t_clogp = statistics.median(walls["target"]), statistics.median(walls["clogp"])
    gain = (t_target - t_clogp) / t_target * 100.0
    lo, hi = S1_PAPER_PCT
    gap = max(lo - gain, gain - hi, 0.0)
    rep.add("core.s1_clogp_gain_pct", gain, "%", f"paper: {lo:g}-{hi:g} %")
    rep.add("core.s1_gain_err_pp", gap, "pp", "distance from the paper's 25-30 % band")
    for m in ("target", "logp", "clogp"):
        rep.add(f"core.s1_events.{m}", events[m], "count")
    order = events["logp"] > events["target"] > events["clogp"]
    rep.notes["core.s1_events.clogp"] = (
        f"paper ordering LogP > target > CLogP: {events['logp']} > {events['target']} > "
        f"{events['clogp']} {'holds' if order else 'DOES NOT HOLD'}"
    )
