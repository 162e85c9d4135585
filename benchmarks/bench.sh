#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json's `command`): build
# stabbench if it needs building, then run it with the arguments given:
#
#   bash benchmarks/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Not `cargo run`: crates/telemetry's build script watches .git/HEAD,
# which a checkout that is not a git repository lacks, so there cargo
# finds three crates dirty and spends 13 s rebuilding them before every
# single run. Build only when the binary is missing or older than a
# source file (BENCHMARK.json is one: `compare` has its bounds built in).
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${CARGO_TARGET_DIR:-benchmarks/stabbench/target}/release/stabbench"
newer_source() {
  find BENCHMARK.json benchmarks/stabbench/src benchmarks/stabbench/Cargo.toml benchmarks/configs crates vendor \
    -newer "$bin" \( -name '*.rs' -o -name '*.toml' -o -name '*.cfg' -o -name '*.json' \) -print -quit
}
if [ ! -x "$bin" ] || [ -n "$(newer_source)" ]; then
  cargo build --release --quiet --manifest-path benchmarks/stabbench/Cargo.toml
fi
exec "$bin" "$@"
