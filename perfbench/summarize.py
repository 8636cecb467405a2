#!/usr/bin/env python3
"""Pools benchmark results across runs.

    python3 perfbench/summarize.py RESULT_FILE...

Each file holds the stdout of one `run.py` invocation; its last line is
the result object. For every metric this prints the sample count, the
median, the quartiles, the spread (interquartile range over median, as
`statistics.quantiles(values, n=4)` gives the quartiles), the metric's
bound from BENCHMARK.json, and the highest percentile that has at least
ten samples beyond it (it needs at least 11 runs).
"""

import json
import math
import statistics
import sys
from pathlib import Path


def last_result(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def tail_percentile(values):
    """(q, value) for the highest whole percentile q with at least ten
    samples above it, or None when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    rank = max(0, math.ceil(q / 100 * n) - 1)
    return q, sorted(values)[rank]


def main(paths):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = [r for r in map(last_result, paths) if r]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{len(results)} runs, {failed} failed of {attempted} attempted points")
    names = sorted({n for r in results for n in r["metrics"]})
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        tail = tail_percentile(values)
        print(
            f"{name:32} n={len(values):3} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
            f"spread={spread:.4f}"
            + (f" bound={bound} ({'ok' if spread <= bound / 3 else 'WIDE'})" if bound else "")
            + (f" p{tail[0]}={tail[1]:.6g}" if tail else "")
        )


if __name__ == "__main__":
    main(sys.argv[1:])
