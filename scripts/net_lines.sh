#!/usr/bin/env bash
# Non-test lines of Rust per crate, for one tree or as the delta between
# two — the number every PR states ("net non-test line delta"):
#
#   scripts/net_lines.sh <parent-tree> [<change-tree>]
#   scripts/net_lines.sh ../parent .
#
# Counts, in each of `crates/*/src/**/*.rs` and `src/**/*.rs` (listed as
# crate `.`), the lines before the file's first inline `#[cfg(test)]`
# module — a `#[cfg(test)]` on a field or a statement (`core/src/node.rs`
# has three) is production code's and does not end the count; the whole
# file when it has no test module — blank lines and comments included:
# doc comments are part of what a reader must get through, and dropping
# them is not a reduction. A module declared `#[cfg(test)] mod x;` is
# test code: the declaration is not counted, nor is `x.rs` (or `x/`).
# `benchmarks/` (its own package), `tests/`, `benches/` and `examples/`
# are not counted. With one tree: crate and lines; with two: crate,
# parent, change, delta, a crate present in only one tree counting as 0
# in the other. The last row is the total.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  sed -n '2,19p' "$0" >&2
  exit 2
fi

# A `mod` item after `#[cfg(test)]`; `MOD_DECL` is one without a body.
# (Read through ENVIRON: `awk -v` would process the backslashes.)
export MOD='^[[:space:]]*(pub(\([a-z]+\))? )?mod '
export MOD_DECL="${MOD}[A-Za-z0-9_]+;"

# "crate lines" per crate of the tree at $1, sorted by crate.
count() {
  (
    cd "$1"
    files=$(find src crates/*/src -name '*.rs' 2>/dev/null | sort)
    # The path stem of every `#[cfg(test)] mod x;`: `x` beside a
    # `lib.rs`/`main.rs`/`mod.rs`, `dir/y/x` under `dir/y.rs`.
    tests=$(for file in $files; do
      awk -v file="$file" '
        gated && $0 ~ ENVIRON["MOD_DECL"] {
          name = $0; sub(ENVIRON["MOD"], "", name); sub(/;.*/, "", name)
          dir = file; sub(/\.rs$/, "", dir); sub(/\/(lib|main|mod)$/, "", dir)
          print dir "/" name
        }
        { gated = /^[[:space:]]*#\[cfg\(test\)\]/ }
      ' "$file"
    done)
    for file in $files; do
      for stem in $tests; do
        case "$file" in "$stem.rs" | "$stem"/*) continue 2 ;; esac
      done
      case "$file" in
        src/*) crate=. ;;
        *) crate=${file#crates/} crate=${crate%%/*} ;;
      esac
      awk -v crate="$crate" '
        gated && $0 ~ ENVIRON["MOD_DECL"] { n--; gated = 0; next }
        gated && $0 ~ ENVIRON["MOD"] { n--; exit }
        { gated = /^[[:space:]]*#\[cfg\(test\)\]/; n++ }
        END { print crate, n + 0 }
      ' "$file"
    done
  ) | awk '{ lines[$1] += $2 } END { for (c in lines) print c, lines[c] }' | sort
}

if [ $# -eq 1 ]; then
  count "$1" | awk '
    { printf "%-14s %7d\n", $1, $2; total += $2 }
    END { printf "%-14s %7d\n", "total", total }
  '
else
  join -a1 -a2 -e0 -o0,1.2,2.2 <(count "$1") <(count "$2") | awk '
    BEGIN { printf "%-14s %7s %7s %7s\n", "crate", "parent", "change", "delta" }
    { printf "%-14s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; p += $2; c += $3 }
    END { printf "%-14s %7d %7d %+7d\n", "total", p, c, c - p }
  '
fi
