#!/usr/bin/env bash
# Stale-reference gate: every backticked reference in the prose docs must
# name something that still exists.
#
#   scripts/doc_refs.sh            # exit 1 and list each stale reference
#
# Reads README.md, DESIGN.md and the module docs (the `//!` lines of
# every `.rs` file under `src/` and `crates/*/src/`), skipping fenced
# code blocks, and checks each backticked span without whitespace:
#
# * a path — a span ending in a file extension or `/`, or starting with a
#   top-level directory — must be a tracked file or directory, or the
#   tail of one (so `crates/<path>`, `node/recovery.rs` and a bare file
#   name resolve), with `crate/rest` also read as
#   `crates/<crate>/src/rest`. `:<line>` and `::<item>` suffixes are
#   dropped first;
# * an endpoint (`/name`, `/name.ext`, query dropped) must be quoted as a
#   string in non-test code;
# * `Type::item` must have `Type` and `item` in one non-test source
#   file;
# * a bare CamelCase name (two humps or more) must appear in code, test
#   code included: the docs name test oracles such as `NaiveEngine`.
#
# Non-test code is every tracked `.rs` file under `src/`, `crates/*/src/`
# and `benchmarks/stabbench/src/`, cut at its inline `#[cfg(test)]`
# module; code is every tracked `.rs` file. Comment lines are dropped
# from both: a name that only a comment still says is stale. Names that
# are historical on purpose are listed, one per line, in
# `scripts/doc_refs.allow`.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md)
module_docs=$(git ls-files 'src/*.rs' 'crates/*/src/*.rs')
allow=$(grep -v '^[[:space:]]*\(#\|$\)' scripts/doc_refs.allow || true)
tracked=$(git ls-files)

# One comment-free copy per source file: `$corpus` holds the non-test
# code, `$code` all of it.
corpus=$(mktemp -d)
code=$(mktemp -d)
trap 'rm -rf "$corpus" "$code"' EXIT
git ls-files '*.rs' | while read -r file; do
  flat=${file//\//__}
  grep -v '^[[:space:]]*//' "$file" >"$code/$flat" || true
  case $file in
    src/* | crates/*/src/* | benchmarks/stabbench/src/*)
      awk '
        test && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { exit }
        { test = /^[[:space:]]*#\[cfg\(test\)\]/ }
        { print }
      ' "$code/$flat" >"$corpus/$flat"
      ;;
  esac
done

# The backticked spans of a Markdown file (`md`) or of `//!` lines (`rs`),
# one per line.
spans() {
  awk -v mode="$1" '
    mode == "rs" && !/^[[:space:]]*\/\/!/ { next }
    { sub(/^[[:space:]]*\/\/! ?/, "") }
    /^[[:space:]]*```/ { fence = !fence; next }
    !fence { text = text " " $0 }
    END { n = split(text, part, "`"); for (i = 2; i <= n; i += 2) print part[i] }
  ' "$2"
}

# Whether `$1` resolves as a path: a tracked file or directory, or the
# tail of one (`crates/<path>`, `node/recovery.rs`, a bare file name), or
# `crate/rest` read as `crates/<crate>/src/rest`.
is_path() {
  local p=${1%/}
  grep -q -- "\(^\|/\)$p\(/\|$\)" <<<"$tracked" ||
    grep -q -- "^crates/${p%%/*}/src/${p#*/}\(/\|$\)" <<<"$tracked"
}

check() {
  local ref=$1 p
  case $ref in
    /*)
      p=${ref%%\?*}
      grep -rqF -- "\"$p" "$corpus"
      ;;
    */* | *.*)
      p=${ref%%::*}
      is_path "${p%%:[0-9]*}"
      ;;
    [A-Z]*::*)
      local ty=${ref%%::*} item=${ref#*::} files
      item=${item%%::*}
      files=$(grep -rlw -- "$ty" "$corpus" || true)
      # Flattened file names hold no whitespace.
      # shellcheck disable=SC2086
      [ -n "$files" ] && grep -qw -- "$item" $files
      ;;
    *)
      grep -rqw -- "$ref" "$code"
      ;;
  esac
}

# What makes a span a path: a leading top-level directory, a trailing
# `/`, or a file extension.
top='(crates|scripts|benchmarks|tests|examples|results|configs|vendor|src|\.github)'
ext='(rs|sh|md|toml|json|jsonl|txt|yml|c|cfg)'
stale=0
for doc in "${docs[@]}" $module_docs; do
  case $doc in *.rs) mode=rs ;; *) mode=md ;; esac
  while read -r span; do
    # Calls and generic arguments name their item: `f()`, `Vec<T>`.
    ref=${span%%(*}
    ref=${ref%%<*}
    ref=${ref%[.,;:]}
    [[ -z $ref || $ref =~ [[:space:]] ]] && continue
    if [[ $ref =~ ^/[a-z_]+(\.[a-z]+)?(\?.*)?$ ]] ||
      [[ $ref =~ ^[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]*)*(:[0-9]+|::[A-Za-z0-9_]+)?$ &&
        ($ref =~ ^$top/ || $ref == */ || $ref =~ \.$ext(:[0-9]+|::.*)?$) ]] ||
      [[ $ref =~ ^[A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*$ ]] ||
      [[ $ref =~ ^[A-Z][a-z0-9]+([A-Z][a-z0-9]*)+$ ]]; then
      grep -qxF -- "$ref" <<<"$allow" && continue
      if ! check "$ref"; then
        echo "$doc: \`$ref\` names nothing in the tree"
        stale=$((stale + 1))
      fi
    fi
  done < <(spans "$mode" "$doc" | sort -u)
done

if [ "$stale" -gt 0 ]; then
  echo "$stale stale reference(s); fix the doc, or list a name that is historical on purpose in scripts/doc_refs.allow" >&2
  exit 1
fi
