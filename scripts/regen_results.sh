#!/usr/bin/env bash
# Every file in results/ is the stdout of one harness binary run with
# fixed arguments; this is the one table of which:
#
#   scripts/regen_results.sh [--check] [name...]
#
# Builds the harnesses in release and rewrites results/<name>.txt for
# each name given (default: all of them). With --check nothing is
# written: each output is diffed against the recorded file and the
# script exits 1 if any differs. All runs are deterministic (fixed
# seeds, virtual time), so a difference means the sources moved, never
# the machine. The DSL's wall-clock compile/eval cost (§VI-A) is not a
# result file: `cargo bench -p stabilizer-bench --bench dsl_cost` runs it.
#
# The harnesses that finish in seconds in the debug profile are also
# pinned by `crates/bench/tests/results_pin.rs`; CI's `test` job runs
# `--check fig7 fig5_scale025 fig5` for the ones that do not.
set -euo pipefail
cd "$(dirname "$0")/.."

# results/<name>.txt <- <binary> [arguments]
table() {
  cat <<'EOF'
table1 table1
table2 table2
table3 table3
fig3 fig3
fig4 fig4
fig5 fig5 1.0
fig5_jitter5ms fig5 1.0 5
fig5_scale025 fig5 0.25
fig6 fig6
fig7 fig7 10000
fig8 fig8
ablation_loss ablation_loss
EOF
}

check=0
if [ "${1:-}" = "--check" ]; then
  check=1
  shift
fi
for name in "$@"; do
  table | grep -q "^$name " || {
    echo "regen_results.sh: no harness recorded as results/$name.txt" >&2
    exit 2
  }
done

bins=$(table | awk '{print $2}' | sort -u)
# shellcheck disable=SC2086
cargo build --release -q -p stabilizer-bench $(printf -- '--bin %s ' $bins)
target=${CARGO_TARGET_DIR:-target}

status=0
out=$(mktemp)
trap 'rm -f "$out"' EXIT
while read -r name bin args; do
  if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qx "$name"; then
    continue
  fi
  # shellcheck disable=SC2086
  "$target/release/$bin" $args > "$out" 2>/dev/null
  if [ "$check" -eq 0 ]; then
    cp "$out" "results/$name.txt"
    echo "wrote results/$name.txt ($bin $args)"
  elif cmp -s "$out" "results/$name.txt"; then
    echo "ok    results/$name.txt"
  else
    echo "DRIFT results/$name.txt ($bin $args):"
    diff -u "results/$name.txt" "$out" | head -n 40 || true
    status=1
  fi
done < <(table)
exit "$status"
