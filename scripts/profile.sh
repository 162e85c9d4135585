#!/usr/bin/env bash
# Where a stabbench workload's CPU goes — the sampling profile behind
# EXPERIMENTS.md's "Where ... goes" tables:
#
#   scripts/profile.sh <workload> [stabbench arguments]
#   scripts/profile.sh sim8-ctrl --seconds 8 --top 30
#
# Builds stabbench with debug info (same optimisation settings) into its
# own target directory, runs the workload (default `--seed 1 --seconds 8
# --trace 0`, later arguments win) with scripts/profile_sampler.c
# preloaded, and prints two tables, in samples, share of all samples and
# samples per 1 000 messages — the unit that compares two trees, since a
# faster tree gets through more messages in the same seconds:
#
#   inclusive  a function counts once per sample in whose stack it
#              occurs, inlined or not (`addr2line -i` unfolds the chain);
#              a frame our code called outside the binary counts as its
#              file, so `[libc.so.6]` is malloc, free and memcpy together
#   exclusive  the sample goes to the physical (not inlined) function
#              that was executing; time in libc or the kernel's vdso is
#              charged to the function of ours that called it
#
# `--top N` (default 25) sets the rows per table and `--only REGEX` which
# names the inclusive one lists (default: this workspace's crates, `alloc`
# and other files — not the runtime's frames under `main`); PROFILE_HZ is
# the sampling rate (default 200 per CPU second) and PROFILE_DIR where
# everything is kept (default target/profile: the raw samples stay there
# as samples.txt). Needs gcc, addr2line and python3; x86-64 Linux only.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  sed -n '2,28p' "$0" >&2
  exit 2
fi
workload=$1
shift
top=25
only='stabilizer_|stabbench::|alloc::|^\['
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --top) top=$2; shift 2 ;;
    --only) only=$2; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

dir=${PROFILE_DIR:-target/profile}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
gcc -O2 -shared -fPIC -o "$dir/sampler.so" scripts/profile_sampler.c
CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR="$dir/target" \
  cargo build --release --quiet --manifest-path benchmarks/stabbench/Cargo.toml
bin="$dir/target/release/stabbench"

LD_PRELOAD="$dir/sampler.so" PROFILE_OUT="$dir/samples.txt" \
  "$bin" --workload "$workload" --seed 1 --seconds 8 --trace 0 "${args[@]}" | tee "$dir/run.txt"

python3 - "$bin" "$dir/samples.txt" "$dir/run.txt" "$top" "$only" <<'PY'
import collections, json, os, re, struct, subprocess, sys

binary, samples_path, run_path, top, only = sys.argv[1:6]
binary = os.path.realpath(binary)
stacks, maps = open(samples_path).read().split("== maps\n")
stacks = [[int(pc, 16) for pc in line.split()] for line in stacks.splitlines() if line.strip()]
messages = json.loads(open(run_path).read().splitlines()[-1])["attempted"]

# Where each file is mapped: (start, end, file offset, path).
mapped = []
for line in maps.splitlines():
    fields = line.split()
    if len(fields) >= 6:
        start, end = (int(x, 16) for x in fields[0].split("-"))
        mapped.append((start, end, int(fields[2], 16), os.path.realpath(fields[5])))

# The ELF's LOAD segments: a position-independent executable's text is
# not at file offset = address, so a PC goes mapping -> file offset ->
# the segment holding that offset -> link-time address.
with open(binary, "rb") as f:
    elf = f.read(64)
    phoff, = struct.unpack_from("<Q", elf, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", elf, 0x36)
    f.seek(phoff)
    headers = [struct.unpack_from("<IIQQQQQQ", f.read(phentsize)) for _ in range(phnum)]
loads = [(off, off + filesz, vaddr) for kind, _, off, vaddr, _, filesz, _, _ in headers if kind == 1]

def link_address(pc):
    """The binary's link-time address of `pc`, or the name of the other file it is in."""
    for start, end, offset, path in mapped:
        if start <= pc < end:
            at = pc - start + offset
            for lo, hi, vaddr in loads:
                if path == binary and lo <= at < hi:
                    return at - lo + vaddr
            return f"[{os.path.basename(path)}]"
    return "[unmapped]"

# A return address names the instruction after the call; one byte back
# is inside the call, which is what the line tables describe.
wanted = {}
for stack in stacks:
    for depth, pc in enumerate(stack):
        address = link_address(pc)
        wanted[pc, depth > 0] = address if isinstance(address, str) else address - (depth > 0)
addresses = sorted({a for a in wanted.values() if isinstance(a, int)})
out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
                     input="\n".join(hex(a) for a in addresses), capture_output=True, text=True, check=True).stdout

def short(name):
    return re.sub(r"::h[0-9a-f]{16}$", "", name)

# Per address: its inline chain, innermost first; the last entry is the
# physical function.
chains, current = {}, None
lines = out.splitlines()
i = 0
while i < len(lines):
    if lines[i].startswith("0x") and " " not in lines[i]:
        current = chains.setdefault(int(lines[i], 16), [])
        i += 1
    else:
        current.append(short(lines[i]))
        i += 2  # skip the file:line row

# A stack, innermost first, as inline chains; a frame outside the binary
# is a one-name chain, kept only where it is inside our code (malloc,
# memcpy), not around it (the thread's start in libc).
inclusive, exclusive = collections.Counter(), collections.Counter()
for stack in stacks:
    frames = [wanted[pc, depth > 0] for depth, pc in enumerate(stack)]
    entered = next((i for i, f in enumerate(frames) if isinstance(f, int)), len(frames))
    frames = [[f] for f in frames[:entered]] + [chains[f] for f in frames[entered:] if isinstance(f, int)]
    inclusive.update({name for chain in frames for name in chain if re.search(only, name)})
    exclusive[frames[min(entered, len(frames) - 1)][-1]] += 1

total = len(stacks)
print(f"\n{total} samples over {messages} messages = {1000 * total / messages:.2f} per 1 000 messages")
for title, counts in (("inclusive", inclusive), ("exclusive, per physical function", exclusive)):
    print(f"\n{title}\n{'samples':>8} {'share':>7} {'/1000 msg':>10}  function")
    for name, count in counts.most_common(int(top)):
        print(f"{count:8d} {100 * count / total:6.1f}% {1000 * count / messages:10.3f}  {name[:110]}")
PY
