#!/usr/bin/env bash
# Where a multi-threaded run's CPU time and context switches go, by
# thread role, read off /proc while the command runs:
#
#   scripts/thread_cpu.sh <command> [args...]
#   scripts/thread_cpu.sh benchmarks/stabbench/target/release/stabbench \
#       --workload tcp3-shard4 --seed 1 --seconds 8 --trace 0
#
# Runs the command, polls /proc/<pid>/task/*/{stat,status} five times a
# second (a thread that exits takes its counters with it, so the last
# reading of each is kept), and once the command has exited prints, per
# role — the thread name with every number replaced by N, so the I/O
# loops `stabs-0-io` and `stabs-2-io` are both `stabs-N-io` — how many
# threads had it, their CPU ticks (user + system, `getconf CLK_TCK` per
# second) and their voluntary and involuntary context switches, busiest
# role first. The command's own output goes to stderr; its exit status
# is this script's. Give it the binary, not a wrapper that forks it:
# only the threads of the process started here are read.
set -euo pipefail

if [ $# -lt 1 ]; then
  sed -n '2,18p' "$0" >&2
  exit 2
fi

samples=$(mktemp)
trap 'rm -f "$samples"' EXIT

"$@" >&2 &
pid=$!

# One line per live thread: tid, role, ticks, voluntary, involuntary.
# `stat` is "tid (name) state ..." and the name may hold spaces or
# parentheses: cut at the last ")"; utime and stime are fields 14 and
# 15, the 12th and 13th after it. A file that vanishes mid-read is a
# thread that just exited.
poll() {
  awk '
    FNR == 1 { file = FILENAME; sub(/\/[a-z]+$/, "", file); sub(/.*\//, "", file); tid = file }
    FILENAME ~ /\/stat$/ {
      name = $0; sub(/^[0-9]+ \(/, "", name); sub(/\)[^)]*$/, "", name)
      rest = $0; sub(/^.*\) /, "", rest); split(rest, f, " ")
      role[tid] = name; gsub(/[0-9]+/, "N", role[tid]); ticks[tid] = f[12] + f[13]
    }
    /^voluntary_ctxt_switches:/ { vol[tid] = $2 }
    /^nonvoluntary_ctxt_switches:/ { invol[tid] = $2 }
    END { for (t in role) if (t in vol) print t, role[t], ticks[t], vol[t], invol[t] }
  ' /proc/"$pid"/task/*/stat /proc/"$pid"/task/*/status 2>/dev/null || true
}

while kill -0 "$pid" 2>/dev/null; do
  poll >> "$samples"
  sleep 0.2
done
status=0
wait "$pid" || status=$?

awk -v hz="$(getconf CLK_TCK)" '
  { role[$1] = $2; ticks[$1] = $3; vol[$1] = $4; invol[$1] = $5 }
  END {
    for (t in role) {
      r = role[t]; n[r]++; c[r] += ticks[t]; v[r] += vol[t]; i[r] += invol[t]
      all += ticks[t]; allv += vol[t]; alli += invol[t]; alln++
    }
    printf "%-18s %7s %10s %7s %12s %12s\n", "role", "threads", "cpu_ticks", "share", "voluntary", "involuntary"
    while (length(n) > 0) {
      best = ""
      for (r in n) if (best == "" || c[r] > c[best]) best = r
      printf "%-18s %7d %10d %6.1f%% %12d %12d\n", best, n[best], c[best], all ? 100 * c[best] / all : 0, v[best], i[best]
      delete n[best]
    }
    printf "%-18s %7d %10d %6.1f%% %12d %12d\n", "total", alln, all, 100, allv, alli
    printf "(%d ticks per second; a thread is read at most 0.2 s before it exits)\n", hz
  }
' "$samples"
exit "$status"
