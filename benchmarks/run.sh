#!/usr/bin/env bash
# Run stabbench's workloads, one process each (bench.sh builds it when needed).
#
#   benchmarks/run.sh                      the four workloads, end-to-end metrics
#   benchmarks/run.sh --traced             the traced run: per-layer metrics
#   benchmarks/run.sh --smoke              one-second runs on reduced inputs
#   benchmarks/run.sh --workload sim8-ctrl one workload only
#   benchmarks/run.sh --seed 7 --seconds 8 --out benchmarks/out/set.jsonl
#                                          (default: BENCHMARK.json's run_seconds)
#   benchmarks/run.sh --seeds "1 2 3 4 5 6 7 8 9 10" --out benchmarks/out/a.jsonl
#
# Exits non-zero if any run fails a correctness check. `--out` appends
# one line per run to a set file for `stabbench compare A.jsonl B.jsonl`.
set -euo pipefail
cd "$(dirname "$0")/.."

seeds="1"
trace=0
workloads="tcp3-small tcp3-large tcp3-shard4 sim8-ctrl"
extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed|--seeds) seeds="$2"; shift 2 ;;
    --seconds) extra+=(--seconds "$2"); shift 2 ;;
    --traced) trace=1; shift ;;
    --workload) workloads="$2"; shift 2 ;;
    --smoke) extra+=(--smoke); shift ;;
    --out) mkdir -p "$(dirname "$2")"; extra+=(--out "$2"); shift 2 ;;
    --spans-out) extra+=(--spans-out "$2"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

status=0
for seed in $seeds; do
  for w in $workloads; do
    benchmarks/bench.sh --workload "$w" --seed "$seed" --trace "$trace" "${extra[@]}" || status=1
  done
done
exit $status
