#!/usr/bin/env bash
# How many sends, receives, polls and wake-ups a stabbench workload pays
# per message — the tables behind EXPERIMENTS.md's "Where tcp3-small's
# wake-ups go", "Where tcp3-large's wake-ups go" and "Where
# `tcp3-small`'s threads go":
#
#   scripts/syscalls.sh <workload> [stabbench arguments]
#   scripts/syscalls.sh tcp3-small --seconds 8
#
# Builds stabbench (release, its usual target directory, as bench.sh
# does), runs the workload (default `--seed 1 --seconds 8 --trace 0`,
# later arguments win) with scripts/syscall_counter.c preloaded, and
# prints calls and bytes per message for `send`, `recv`, `readv`,
# `writev`, `send_unix`/`recv_unix` (the I/O loop's waker rung and
# silenced), `ppoll` (the loop's polls), futex wake and futex wait,
# over the run's attempted messages (every phase, set-up included).
# The counts move with the host's load: compare two trees run back to
# back, not against a recorded number. SYSCALLS_DIR is where the counter
# and its raw counts are kept (default target/syscalls). Needs gcc and
# python3; Linux only.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  sed -n '2,20p' "$0" >&2
  exit 2
fi
workload=$1
shift

dir=${SYSCALLS_DIR:-target/syscalls}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
gcc -O2 -shared -fPIC -o "$dir/counter.so" scripts/syscall_counter.c -ldl
cargo build --release --quiet --manifest-path benchmarks/stabbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmarks/stabbench/target}/release/stabbench"

LD_PRELOAD="$dir/counter.so" SYSCALLS_OUT="$dir/counts.txt" \
  "$bin" --workload "$workload" --seed 1 --seconds 8 --trace 0 "$@" | tee "$dir/run.txt"

python3 - "$dir/counts.txt" "$dir/run.txt" <<'PY'
import json, sys

counts_path, run_path = sys.argv[1:3]
messages = json.loads(open(run_path).read().splitlines()[-1])["attempted"]
print(f"\nper message, over {messages} messages")
print(f"{'call':<11} {'calls':>10} {'/msg':>8} {'bytes':>12} {'B/msg':>9}")
for line in open(counts_path):
    name, calls, moved = line.split()
    calls, moved = int(calls), int(moved)
    print(f"{name:<11} {calls:10d} {calls / messages:8.3f} {moved:12d} {moved / messages:9.1f}")
PY
