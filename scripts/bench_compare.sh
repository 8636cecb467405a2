#!/usr/bin/env bash
# Bench regression gate: re-run the wall-clock benches and compare
# min-wall (min_ns) per row against the committed baselines at the repo
# root (BENCH_sim_speed.json, BENCH_coherence_micro.json,
# BENCH_exec_speed.json, BENCH_scenario_speed.json,
# BENCH_net_micro.json). Fails if any timing
# row regresses more than the tolerance.
#
# Usage:
#   scripts/bench_compare.sh            # full gate: default iters, 10%
#   scripts/bench_compare.sh --smoke    # CI plumbing check: 3 iters, lax
#   scripts/bench_compare.sh --no-run   # compare existing fresh JSON only
#
# Environment:
#   SPASM_BENCH_TOLERANCE  max allowed min-wall regression, percent
#                          (default 10; --smoke defaults to 500 because
#                          a 3-iteration run on a busy host is noisy —
#                          the smoke gate catches order-of-magnitude
#                          breakage, not percent-level drift)
#   SPASM_BENCH_ITERS / SPASM_BENCH_WARMUP  forwarded to the harness
#
# Gauge rows (iters == 1, e.g. exec_speed's speedup_x1000) are printed
# for information but never gated: single-shot measurements and derived
# ratios are not wall-time minima.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(sim_speed coherence_micro exec_speed scenario_speed net_micro)
RUN=1
SMOKE=0
for arg in "$@"; do
    case "$arg" in
    --smoke) SMOKE=1 ;;
    --no-run) RUN=0 ;;
    *)
        echo "usage: $0 [--smoke] [--no-run]" >&2
        exit 2
        ;;
    esac
done

if [ "$SMOKE" -eq 1 ]; then
    TOL=${SPASM_BENCH_TOLERANCE:-500}
    export SPASM_BENCH_ITERS=${SPASM_BENCH_ITERS:-3}
    export SPASM_BENCH_WARMUP=${SPASM_BENCH_WARMUP:-1}
else
    TOL=${SPASM_BENCH_TOLERANCE:-10}
fi

if [ "$RUN" -eq 1 ]; then
    for b in "${BENCHES[@]}"; do
        echo "==> cargo bench -p spasm-bench --bench $b"
        cargo bench -q --offline -p spasm-bench --bench "$b" >/dev/null
    done
fi

# Extracts "name min_ns iters" triples from one of our hand-rolled
# BENCH_*.json files (one bench row per line; see harness.rs to_json).
rows() {
    sed -n 's/.*"name": "\([^"]*\)", "iters": \([0-9]*\), "min_ns": \([0-9]*\).*/\1 \3 \2/p' "$1"
}

fail=0
printf '%-44s %14s %14s %9s\n' "bench" "baseline_min" "current_min" "delta"
for b in "${BENCHES[@]}"; do
    base="BENCH_$b.json"
    fresh="crates/bench/BENCH_$b.json"
    if [ ! -f "$base" ]; then
        echo "ERROR: no committed baseline $base" >&2
        exit 1
    fi
    if [ ! -f "$fresh" ]; then
        echo "ERROR: no fresh results $fresh (run cargo bench -p spasm-bench --bench $b)" >&2
        exit 1
    fi
    while read -r name base_min base_iters; do
        cur=$(rows "$fresh" | awk -v n="$name" '$1 == n { print $2; exit }')
        if [ -z "$cur" ]; then
            echo "ERROR: $name present in $base but missing from $fresh" >&2
            fail=1
            continue
        fi
        delta=$(awk -v b="$base_min" -v c="$cur" \
            'BEGIN { if (b == 0) printf (c == 0 ? "=" : "new"); else printf "%+.1f%%", (c - b) * 100.0 / b }')
        mark=""
        if [ "$base_iters" -eq 1 ]; then
            mark="  (gauge, not gated)"
        elif awk -v b="$base_min" -v c="$cur" -v t="$TOL" \
            'BEGIN { exit !(c > b * (1 + t / 100.0)) }'; then
            mark="  REGRESSION (> ${TOL}%)"
            fail=1
        fi
        printf '%-44s %14s %14s %9s%s\n' "$name" "$base_min" "$cur" "$delta" "$mark"
    done < <(rows "$base")
done

if [ "$fail" -ne 0 ]; then
    echo "bench_compare: FAILED (tolerance ${TOL}%)" >&2
    exit 1
fi
echo "bench_compare: OK (tolerance ${TOL}%)"
