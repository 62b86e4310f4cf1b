#!/usr/bin/env python3
"""Resolves a scripts/sigprof.c sample file into a per-function table.

    python3 scripts/profile.py PROF_OUT.<pid> [--binary PATH] [--top N] [--under FUNC]

The file holds the process's /proc/self/maps and one line of program
counters per sample, innermost frame first (after the profiler's own two:
its handler and the kernel's signal trampoline). Counters inside the binary
are rebased on its load address and resolved with `addr2line -f -C -i`
(perf/Cargo.toml keeps line tables in release builds); counters elsewhere
are named after the mapped file.

Two shares per function, both of all samples:
  self       the sampled counter was inside the function as emitted, i.e.
             with everything the compiler inlined into it; a sample inside
             a shared library (memcpy in libc, a libm call, the vDSO clock)
             counts for its innermost caller in the binary, as
             "caller [libc.so.6]", so each caller gets its own row
  inclusive  the function was anywhere on the stack, inlined frames
             included (so a function that only exists inlined still shows)

--under FUNC prints one more table: FUNC's inclusive share split by the
direct callee each sample passed through below FUNC's outermost frame
("(self)" when FUNC itself was running). FUNC is a full name as the
tables print it, or its last path segments (`TimerWheel::insert`).
"""
import argparse
import collections
import os
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")


def parse(path):
    maps, samples, in_samples = [], [], False
    for line in open(path):
        if line.startswith("--samples--"):
            in_samples = True
        elif in_samples:
            pcs = [int(pc, 16) for pc in line.split()][2:]  # drop handler + trampoline
            if pcs:
                samples.append(pcs)
        else:
            f = line.split()
            if len(f) >= 6:
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, f[5]))
    return maps, samples


def resolve(binary, vaddrs):
    """vaddr -> inline chain of function names, innermost first."""
    if not vaddrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
        input="\n".join(hex(a) for a in vaddrs), stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.splitlines()
    chains, addr, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            addr = int(out[i], 16)
            chains[addr] = []
            i += 1
        else:
            chains[addr].append(HASH.sub("", out[i]))
            i += 2  # function, then file:line
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--binary", default="perf/target/release/perf")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--under", metavar="FUNC", help="split FUNC's inclusive share by direct callee")
    args = ap.parse_args()

    maps, samples = parse(args.profile)
    if not samples:
        sys.exit(f"{args.profile}: no samples")
    real = os.path.realpath(args.binary)
    own = [m for m in maps if m[2] == real] or \
          [m for m in maps if os.path.basename(m[2]) == os.path.basename(real)]
    if not own:
        sys.exit(f"{args.profile}: {args.binary} is not mapped in this process")
    base = min(lo for lo, _, _ in own)  # a PIE's first segment sits at vaddr 0

    def locate(pc):
        for lo, hi, name in maps:
            if lo <= pc < hi:
                return (pc - base) if (lo, hi, name) in own else f"[{os.path.basename(name)}]"
        return "[unmapped]"

    # A caller's counter is its return address: step back into the call.
    located = [[locate(pc if k == 0 else pc - 1) for k, pc in enumerate(s)] for s in samples]
    chains = resolve(args.binary, sorted({f for s in located for f in s if isinstance(f, int)}))
    chain = lambda f: chains.get(f) or ["??"] if isinstance(f, int) else [f]

    def self_name(s):
        """The emitted function the sample is in; a library sample's row
        is its innermost in-binary caller, tagged with the library."""
        if isinstance(s[0], int):
            return chain(s[0])[-1]
        caller = next((f for f in s if isinstance(f, int)), None)
        return s[0] if caller is None else f"{chain(caller)[-1]} {s[0]}"

    def matches(name):
        return name == args.under or name.endswith("::" + args.under)

    self_n, incl_n, under_n = collections.Counter(), collections.Counter(), collections.Counter()
    for s in located:
        self_n[self_name(s)] += 1
        names = [name for f in s for name in chain(f)]  # innermost first
        incl_n.update(set(names))
        if args.under:
            at = next((i for i in reversed(range(len(names))) if matches(names[i])), None)
            if at is not None:
                under_n[names[at - 1] if at > 0 else "(self)"] += 1

    n = len(samples)
    print(f"# {n} samples, {args.profile}")
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print(f"\n{title:>9}  function")
        rows = [(name, c) for name, c in counts.most_common() if c < n or title == "self"]
        for name, c in rows[:args.top]:  # on every stack = the runtime's entry frames
            print(f"{100 * c / n:8.1f}%  {name}")
    if args.under:
        total = sum(under_n.values())
        print(f"\n{100 * total / n:8.1f}%  under {args.under}, by direct callee")
        for name, c in under_n.most_common(args.top):
            print(f"{100 * c / n:8.1f}%  {name}")


if __name__ == "__main__":
    main()
