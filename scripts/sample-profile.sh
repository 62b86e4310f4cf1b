#!/usr/bin/env bash
# Sampling profile of one BENCHMARK.json workload, for a container with
# neither perf nor valgrind: builds scripts/sigprof.c, preloads it into the
# benchmark binary and prints scripts/profile.py's self/inclusive table.
#
#   scripts/sample-profile.sh <workload> [seed] [seconds]
#   TOP=60 scripts/sample-profile.sh replay-mesh 1 8
#   UNDER=TimerWheel::insert scripts/sample-profile.sh sim-paper 1 10
#
# UNDER=FUNC adds profile.py's --under table: FUNC's share by direct callee.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/sample-profile.sh <workload> [seed] [seconds]}"
seed="${2:-1}"
seconds="${3:-8}"

# On sock-* the benchmark runs `cargo build -p clusterd` under the preload.
# rustup's cargo proxy execs the toolchain's cargo with the profiling timer
# still armed and no handler yet, and a SIGPROF then kills it: call the
# toolchain's cargo directly.
if command -v rustup > /dev/null; then
  PATH="$(dirname "$(rustup which cargo)"):$PATH"
fi

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
gcc -O2 -shared -fPIC -o "$out/sigprof.so" scripts/sigprof.c
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
git checkout -- perf/Cargo.lock # an offline build rewrites it; perf/** is not ours to change
# The sock-* benchmark builds clusterd itself, under the preload: a linker
# run there dies of the profiling timer ("ld terminated with signal 27").
# Built here first, that build has nothing left to link.
case "$workload" in
  sock-*) cargo build --release --offline --quiet -p clusterd ;;
esac

# The binary itself, not `cargo run`: cargo would be profiled too. Children
# the workload spawns inherit the preload and write their own files.
LD_PRELOAD="$out/sigprof.so" PROF_OUT="$out/prof" ./perf/target/release/perf \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$out/stdout" &
pid=$!
wait "$pid" || { cat "$out/stdout"; echo "sample-profile.sh: the benchmark failed"; exit 1; }
grep '^# ' "$out/stdout" | grep 'model_fingerprint' || true
python3 scripts/profile.py "$out/prof.$pid" --top "${TOP:-25}" ${UNDER:+--under "$UNDER"}

# The `sock-*` workloads' clusterd servers (built by the benchmark into
# target/release) do most of the work there: one table per server. The
# other children (the benchmark's cargo build of clusterd) are skipped.
for prof in "$out"/prof.*; do
  [ "$prof" != "$out/prof.$pid" ] && grep -q '/clusterd$' "$prof" || continue
  echo
  python3 scripts/profile.py "$prof" --binary target/release/clusterd --top "${TOP:-25}" \
    || echo "sample-profile.sh: no table for $prof"
done
