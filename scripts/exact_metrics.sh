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
# time, and the node counters) are the recorded ones; then runs it
# traced and fails unless what a message costs in work — predicate
# evaluations, ACK cells folded, control messages, simulator events,
# heap allocations — is what was recorded, so a change that puts an
# evaluation or an allocation back fails by name. A change that is
# *meant* to move any of these — a message's size, the number of
# messages, the order or time of anything a node emits, the work done
# per message — re-records them here and says so; otherwise a difference
# is a behaviour change. Wall-clock metrics are not gated: they are a
# pairs-in-the-PR matter (scripts/bench_pairs.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

# The ratio was recorded in PR 19 (varint codec, no own-stream AckBatch);
# the full-size run's is 9.938494140625, down from 15.111263671875. The
# hash was re-recorded in PR 22 (371d7bfc805d4e09 before): the evaluation
# count is one of the seven counters folded into it, and the crossing
# rule moved that count and nothing else (EXPERIMENTS.md has the proof).
want_ratio=9.90435546875
want_hash=16d57c7b1c532ede
# Per message, smoke size, traced (PR 22; at full size 39.53 / 168 / 49 /
# 56 / 91.36). The allocation count includes the run's own logs and is
# exact for one toolchain's `Vec` growth policy: a toolchain bump that
# moves it alone re-records it. It was re-recorded in PR 23
# (134.99166666666667 before): the simulator driver moves a
# `FrontierUpdate` into its log instead of cloning the key, 27 fewer
# allocations per message; the other four did not move. It was
# re-recorded again when an in-order delivery stopped allocating a
# one-element `Vec` (108.1375 before): 16 807 fewer allocations, one
# per mirror for each of the 2 400 messages and the warm-up publish.
# And once more when a cluster built with hooks stopped keeping an
# `EventLog` (101.13458333333334 before): the 168 allocations that grew
# the eight nodes' frontier and delivery logs, 21 per node. And when a
# parsed predicate stopped being copied into a second, span-free tree
# before resolution (101.06458333333333 before): 2 072 fewer
# allocations, all while the eight nodes install their 27 predicates.
# And when every stream at full replication started sharing one
# replica set (100.20125 before): 8 fewer allocations per round, the
# eight copies of the 8-node set the config's placement map made.
# And when a predicate install stopped running the warn-mode analyzer
# and the f* prover, whose results are computed now only when read
# (100.19791666666667 before): 46 314 fewer allocations, all while the
# eight nodes install their 216 predicates. And when an install started
# sharing the compiled predicate of a key with the same source and
# replica set, and a clone of a predicate stopped copying its tree and
# program (80.90041666666667 before): 4 080 fewer allocations, all at
# the installs. And when an install stopped growing the engine's nested
# dependency lists, which the first fold after it now rebuilds as one
# flat table, and the config started parsing each startup predicate once
# for all eight nodes (79.20041666666667 before): 1 809 fewer
# allocations, all during the set-up. And when the node stopped keeping
# a second table of each registered key's source beside the engine's
# entries (78.44666666666667 before): 469 fewer allocations, the keys,
# sources and tree nodes of the eight nodes' 216 registrations. And
# when the engine started filing each key a program was compiled for
# under its source's hash and its stream, so an install finds a
# program to share by lookup rather than by a scan of every key
# (78.25125 before): 56 more allocations, the 48 owners' keys and the
# eight maps' tree nodes, all during the set-up. And when the origin's
# send buffer became one ring indexed by sequence number instead of two
# B-trees (78.27458333333334 before): 294 fewer allocations, the B-tree
# nodes that the eight send buffers' publishes and reclaims allocated.
# And when a received ACK row became the next batch's allocation, kept
# by the outbox for the flush that follows instead of freed after the
# fold (78.15208333333334 before): 79 997 fewer allocations, 33.33 per
# message, the batches a flush no longer allocates for the peers.
want_counts='core.frontier.evals_per_msg=39.24
core.recorder.acks_received_per_msg=168
core.node.ctrl_msgs_per_msg=49
netsim.sim.events_per_msg=56
alloc.count_per_msg=44.82'

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

traced=$(bash benchmarks/bench.sh --workload sim8-ctrl --seed 1 --seconds 2 --trace 1 --smoke)
while IFS='=' read -r name want; do
  got=$(printf '%s\n' "$traced" | tail -n 1 |
    python3 -c 'import json, sys; print(repr(json.load(sys.stdin)["metrics"][sys.argv[1]]["value"]))' "$name")
  check "$name" "$got" "$want"
done <<<"$want_counts"

if [ "$status" -ne 0 ]; then
  printf '%s\n%s\n' "$out" "$traced" >&2
fi
exit "$status"
