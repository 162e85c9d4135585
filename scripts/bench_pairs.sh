#!/usr/bin/env bash
# Alternating parent/change benchmark pairs, the way every perf PR has
# measured by hand (choosing-metrics §8):
#
#   scripts/bench_pairs.sh <parent-tree> <change-tree> <workload> <pairs> \
#       [--seconds S] [--first-seed N]
#
# Each pair runs both trees' own `benchmarks/bench.sh` once on the same
# fresh seed (first-seed, first-seed+1, ...), the side that goes first
# flipped every pair; each tree builds into its own target directory.
# `--seconds` defaults to BENCHMARK.json's run_seconds. Prints every
# run, then per end-to-end metric each side's median and quartiles, the
# change's wins and ties over the pairs, and the claim rule: a gain may
# be claimed when at least ten pairs ran, the change won at least nine
# tenths of them and the medians are apart by more than the distance
# between the parent's quartiles. Exits non-zero if a run fails its
# correctness checks.
#
# Every run's line also carries the host's CPU steal over that run (the
# share of CPU time a hypervisor gave to other guests, from /proc/stat),
# and the summary gives each side's median steal: a pair taken in a
# steal burst shows as one.
set -euo pipefail

if [ $# -lt 4 ]; then
  sed -n '2,22p' "$0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
shift 4
seconds=""
seed=1
while [ $# -gt 0 ]; do
  case "$1" in
    --seconds) seconds=$2; shift 2 ;;
    --first-seed) seed=$2; shift 2 ;;
    *) echo "bench_pairs.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# Steal and total jiffies so far, from the `cpu` line of /proc/stat
# (user nice system idle iowait irq softirq steal; guest time is inside
# user), or nothing where there is no /proc/stat.
cpu_jiffies() {
  if [ -r /proc/stat ]; then
    awk '$1 == "cpu" { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat
  fi
}

# Steal between two cpu_jiffies readings, in per cent of the CPU time
# that passed, or "nan" without readings.
steal_pct() {
  awk -v a="$1" -v b="$2" 'BEGIN {
    if (split(a, x, " ") < 2 || split(b, y, " ") < 2 || y[2] <= x[2]) { print "nan"; exit }
    printf "%.1f\n", 100 * (y[1] - x[1]) / (y[2] - x[2])
  }'
}

# One run of one side: the last line of bench.sh's output is the JSON
# record; keep it, tagged with the side, the pair and the steal.
run_side() {
  local side=$1 tree=$2 pair=$3 run_seed=$4 out before steal
  before=$(cpu_jiffies)
  out=$(env -u CARGO_TARGET_DIR bash "$tree/benchmarks/bench.sh" \
    --workload "$workload" --seed "$run_seed" --trace 0 ${seconds:+--seconds "$seconds"}) || {
    echo "$out" >&2
    echo "bench_pairs.sh: $side run failed (pair $pair, seed $run_seed)" >&2
    exit 1
  }
  steal=$(steal_pct "$before" "$(cpu_jiffies)")
  echo "pair $pair $side (seed $run_seed): host steal $steal %"
  printf '%s %s %s %s\n' "$side" "$pair" "$steal" "$(printf '%s\n' "$out" | tail -n 1)" >> "$runs"
}

for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run_side parent "$parent" "$pair" "$seed"
    run_side change "$change" "$pair" "$seed"
  else
    run_side change "$change" "$pair" "$seed"
    run_side parent "$parent" "$pair" "$seed"
  fi
  seed=$((seed + 1))
done

python3 - "$runs" "$parent/BENCHMARK.json" "$workload" <<'PY'
import json, sys

runs_path, bench_path, workload = sys.argv[1:4]
sides = {"parent": {}, "change": {}}
steal = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for line in open(runs_path):
    side, pair, run_steal, record = line.split(" ", 3)
    steal[side][int(pair)] = float(run_steal)
    record = json.loads(record)
    sides[side][int(pair)] = {k: v["value"] for k, v in record["metrics"].items()}
    failed[side] += record["failed"]

def quantile(sorted_values, q):
    # Linear interpolation between closest ranks.
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)

pairs = sorted(sides["parent"])
print(f"== {workload}: {len(pairs)} alternating pairs ==")
for metric in json.load(open(bench_path))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    if any(name not in sides[s][p] for s in sides for p in pairs):
        continue
    print(f"{name} ({metric['unit']}, {metric['better']} is better)")
    stats = {}
    for side in ("parent", "change"):
        values = [sides[side][p][name] for p in pairs]
        print(f"  {side} runs: " + " ".join(f"{v:.6g}" for v in values))
        values.sort()
        stats[side] = [quantile(values, q) for q in (0.25, 0.5, 0.75)]
        q1, med, q3 = stats[side]
        print(f"  {side} median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    wins = ties = 0
    for p in pairs:
        a, b = sides["parent"][p][name], sides["change"][p][name]
        ties += a == b
        wins += (b > a) if higher else (b < a)
    (pq1, pmed, pq3), cmed = stats["parent"], stats["change"][1]
    ratio = cmed / pmed if pmed else float("nan")
    apart = abs(cmed - pmed) > (pq3 - pq1) and ((cmed > pmed) == higher)
    claim = len(pairs) >= 10 and wins * 10 >= len(pairs) * 9 and apart
    print(f"  change/parent median ratio {ratio:.4f}; change wins {wins}/{len(pairs)}, ties {ties}; "
          f"medians apart by more than the parent's inter-quartile distance ({pq3 - pq1:.6g}): "
          f"{'yes' if apart else 'no'}; gain claimable: {'yes' if claim else 'no'}")
print("host steal (% of CPU time over the run)")
for side in ("parent", "change"):
    values = [steal[side][p] for p in pairs]
    print(f"  {side} runs: " + " ".join(f"{v:.1f}" for v in values))
    print(f"  {side} median {quantile(sorted(values), 0.5):.1f}")
print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
PY
