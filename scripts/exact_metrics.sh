#!/usr/bin/env bash
# The benchmark numbers that are exact under the seed — a function of
# the sources alone, whatever the host is doing — gated against the
# values recorded below:
#
#   scripts/exact_metrics.sh
#
# Runs stabbench's 8-node simulated workload at its smoke size (seed 1,
# 300 messages per node per round) and fails unless the bytes on the
# simulated wire per payload byte and the hash of everything the run
# observed (every delivery and every frontier update, with its virtual
# time) are the recorded ones. A change that is *meant* to move either —
# a message's size, the number of messages, the order or time of
# anything a node emits — re-records them here and says so; otherwise a
# difference is a behaviour change. Wall-clock metrics are not gated:
# they are a pairs-in-the-PR matter (scripts/bench_pairs.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

# Recorded in PR 19 (varint codec, no own-stream AckBatch); the full-size
# run's ratio is 9.938494140625, down from 15.111263671875.
want_ratio=9.90435546875
want_hash=371d7bfc805d4e09

out=$(bash benchmarks/bench.sh --workload sim8-ctrl --seed 1 --seconds 2 --trace 0 --smoke)
ratio=$(printf '%s\n' "$out" | tail -n 1 |
  python3 -c 'import json, sys; print(repr(json.load(sys.stdin)["metrics"]["wire_bytes_per_payload_byte"]["value"]))')
hash=$(printf '%s\n' "$out" | sed -n 's/.*outputs hash \([0-9a-f]\{16\}\) every time they agree.*/\1/p')

status=0
check() {
  if [ "$2" = "$3" ]; then
    echo "ok    $1 = $2"
  else
    echo "MOVED $1: recorded $3, measured ${2:-nothing}"
    status=1
  fi
}
check wire_bytes_per_payload_byte "$ratio" "$want_ratio"
check outputs_hash "$hash" "$want_hash"
if [ "$status" -ne 0 ]; then
  printf '%s\n' "$out" >&2
fi
exit "$status"
