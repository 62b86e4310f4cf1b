#!/usr/bin/env bash
# Offline CI entrypoint (documented in ROADMAP.md).
#
# Runs the tier-1 verify and then builds the rustdoc with warnings
# promoted to errors. Everything runs --offline: all dependencies are
# vendored path crates (see vendor/README.md), so no step may touch a
# registry or the network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (tier-1)"
cargo build --release --offline --workspace

echo "==> cargo test -q (tier-1, whole workspace)"
cargo test -q --workspace --offline

echo "==> cargo test --release (gruber, dpnode, grubsim, digruber: the expiry queue, the replay order, the request table and the locked calls as the benchmark runs them)"
# Debug builds trap integer overflow and keep debug_assert!; release
# wraps and drops them, which is exactly where a hand-rolled bucket
# queue or an index-addressed ledger would differ. The differential
# proptests and grubsim's reference replay order judge both builds.
cargo test --release --offline -q -p gruber -p dpnode -p grubsim -p digruber

echo "==> reference backends are test code: one event queue, one grid view"
# The heap behind desim's timing wheel and the map-of-heaps behind
# gruber's GridView are differential oracles: each lives in the
# #[cfg(test)] tail of the file it judges, as concrete types. A queue or
# view trait, a backend type parameter or a twin entry point that brings
# one back into the build fails here, as does the wheel named outside
# desim's own sources.
refs='EventQueue|HeapQueue|with_queue|ViewStore|RefView|with_backend'
for f in $(grep -rlE "$refs" --include=*.rs crates tests examples src); do
  { ! sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$refs"; } \
    || { echo "ci.sh: a reference backend outside the #[cfg(test)] tail of $f (lines above)"; exit 1; }
done
{ ! grep -rn 'TimerWheel' --include=*.rs crates tests examples src | grep -v '^crates/desim/src/' \
  && ! grep -n 'availability_into\|pub fn merge_peer_records_' crates/gruber/src/engine.rs \
  && ! grep -n 'fn run_' crates/core/src/run.rs | grep -v 'fn run_experiment(\|fn run_to_end('; } \
  || { echo "ci.sh: the wheel named outside desim, or a twin entry point (lines above)"; exit 1; }

echo "==> every dependency edge is used: each workspace dependency a crate declares is named in its sources"
# A crate's [dependencies] and [dev-dependencies] entries are edges in the
# build graph: an edge no source names (`name::`, `use name` or `name!`)
# only makes the crate wait for another to compile.
unused=0
for manifest in crates/*/Cargo.toml; do
  dir="${manifest%/Cargo.toml}"
  for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") }
                    on && /^[A-Za-z0-9_-]+\.workspace = true$/ { sub(/\.workspace.*/, ""); print }' "$manifest"); do
    id="${dep//-/_}"
    grep -rqE "\\b$id::|\\buse $id\\b|\\b$id!" --include=*.rs "$dir" \
      || { echo "ci.sh: $manifest declares $dep, which nothing under $dir names"; unused=1; }
  done
done
[ "$unused" -eq 0 ] || exit 1

echo "==> events are data: the boxed closure is desim's default payload and nobody else's"
# core schedules `digruber::events::Ev` values through a scheduler type that
# has no closure-taking methods; a boxed FnOnce anywhere but desim's own
# `Closure` is an anonymous event growing back.
{ ! grep -rn 'Box<dyn FnOnce' --include=*.rs crates src tests examples \
      | grep -v '^crates/desim/src/engine.rs:'; } \
  || { echo "ci.sh: a boxed closure outside crates/desim/src/engine.rs (lines above)"; exit 1; }

echo "==> requests are a ledger: no hashed table on the simulator's per-request path"
# Tags and job ids are dense counters, so World's per-request state is
# index-addressed (world::RequestTable, world::AccuracyLedger). Test
# modules may keep a HashMap: it is the model the table is checked against.
for f in crates/core/src/world.rs crates/core/src/events.rs crates/core/src/run.rs; do
  { ! sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'HashMap'; } \
    || { echo "ci.sh: a HashMap grew back in $f (lines above)"; exit 1; }
done

echo "==> one host: both wall-clock runtimes step a SharedPoint on the caller's thread; no point thread, no mailbox"
# dpstore::mailbox::SharedPoint is the one way a wall-clock point is hosted,
# and Point::step the one interpreter of `NodeMsg` and `Routed`: a thread
# runtime call, a socket reader, the ticker and a peer sender each step the
# point under its lock. A second loop, a second per-point stats struct, a
# `match` on `Routed::` in either runtime or a channel of NodeMsg is the
# mailbox hop growing back; the channel and lock stand-ins it needed are
# gone with it (std::sync has both). The one exception is a line of the
# equivalence suite's module doc, which is kept byte-for-byte as it was.
{ ! grep -rn 'Routed::' crates/core/src/live.rs crates/clusterd/src \
  && ! grep -rnE 'crossbeam|parking_lot|node_loop|fn dp_main' crates tests examples src Cargo.toml \
      | grep -v '^tests/sim_live_equivalence.rs:7:' \
  && ! grep -rnE 'Sender<(Msg|NodeMsg)|channel::<NodeMsg' --include=*.rs crates \
  && [ "$(grep -rn 'pub struct .*DpStats' --include=*.rs crates src | grep -vc '^crates/dpnode/')" -eq 1 ]; } \
  || { echo "ci.sh: a node loop, a mailbox, a channel or lock stand-in, a Routed interpreter or a second DpStats struct (lines above)"; exit 1; }

echo "==> one stopwatch: crates/bench reads no clock and no /proc (timing and memory are perf/'s)"
# Every BENCH_*.json is diffed byte-for-byte below; a wall-clock or RSS
# column in one of them is a committed artifact that drifts unnoticed.
{ ! grep -rn 'Instant\|VmHWM\|peak_rss' crates/bench/src; } \
  || { echo "ci.sh: a stopwatch grew back in crates/bench (lines above)"; exit 1; }

echo "==> one dispatch record, one wire reader"
# gruber_types::DispatchRecord and its to_wire/from_wire are the record and
# its 36-byte layout. Two names survive for perf/src/kernels.rs (frozen
# until the next [benchmark] PR): the `DispatchDelta` alias and the identity
# `record_to_delta`; nothing in this tree may use them.
{ ! grep -rn 'DispatchDelta\|record_to_delta\|delta_to_record' --include=*.rs crates src tests examples \
      | grep -v '^crates/simnet/src/codec.rs:[0-9]*:pub type DispatchDelta = DispatchRecord;$' \
      | grep -v '^crates/dpnode/src/node.rs:[0-9]*:pub fn record_to_delta(r: &DispatchRecord) -> DispatchRecord ' \
      | grep -v '^crates/dpnode/src/lib.rs:[0-9]*: *record_to_delta, '; } \
  || { echo "ci.sh: the second dispatch record or its converters are back (lines above)"; exit 1; }
# Socket and disk bytes are read through simnet::codec::Reader and fail as
# GridError::Malformed; InvalidConfig is for configuration. Test modules may
# build hostile bytes however they like.
for f in crates/simnet/src/codec.rs crates/clusterd/src/proto.rs crates/dpnode/src/node.rs crates/dpstore/src/file.rs; do
  { ! sed '/^#\[cfg(test)\]/,$d' "$f" \
      | grep -n 'get_u8()\|get_u16_le()\|get_u32_le()\|get_u64_le()\|fn take_u\|GridError::InvalidConfig'; } \
    || { echo "ci.sh: a hand-rolled read or an InvalidConfig for malformed bytes in $f (lines above)"; exit 1; }
done

echo "==> one trace clock: health is scored on the timeline's bins, nodes never self-clock"
# obs::timeline's cadence bins are the health scoring windows, the sink
# calls its two in-crate folds directly and the autoscaler reads
# Recorder::degraded. A second scorer or config, a consumer trait or
# fan-out, a mirror of the flags, or a node-requested timer is the
# duplicate growing back. (obs::health's tests keep the old scorer as
# `RefScorer`, the reference they compare against.)
{ ! grep -rnE 'HealthScorer\b|HealthConfig|TraceConsumer|fn attach|HealthWatch|DegradedFlags|TimerFired|SetTimer' \
      --include=*.rs crates src tests examples \
  && ! grep -rn 'sync_every: Some' --include=*.rs crates src tests examples perf; } \
  || { echo "ci.sh: a second trace clock, consumer fan-out or node timer is back (lines above)"; exit 1; }
# A wall-clock step reads the clock once (dpstore::mailbox's **Time**); a
# client reads it for a trace event only when a recorder is on. A clock read
# as `emit`'s eager time argument runs on every call, traced or not.
{ ! grep -nE 'emit\((self\.now\(\)|since\(|mailbox::since\()' \
      crates/core/src/live.rs crates/clusterd/src/client.rs; } \
  || { echo "ci.sh: an untraced call reads the clock for a trace event (lines above)"; exit 1; }

echo "==> one count per trace event: a bin is its DpSample, run totals are folded from the per-point totals"
# obs::timeline counts a per-point event into the point's open bin (the
# DpSample it exports) and its DpTotals; the 22 RunTotals fields with a
# per-point counter are folded from DpTotals in `finish`, and the health
# scorer reads the closed DpSample. A bin struct beside the sample, a scorer
# feature struct, or a folded run total counted a second time on the stream
# is the duplicate growing back.
{ ! grep -rnwE 'BinCounters|Features' crates/obs/src \
  && ! sed '/^#\[cfg(test)\]/,$d' crates/obs/src/timeline.rs \
      | grep -nE 'self\.totals\.(issued|answered|late|timed_out|denied|accepted|duplicates|failures|recoveries|dropped_requests|rebinds|msgs_lost|retries|retries_exhausted|msgs_duplicated|partition_drops|wal_appends|snapshots|wal_replayed|max_recovery_ms|health_degrades|health_recovers)\b'; } \
  || { echo "ci.sh: obs counts a trace event twice or keeps a second bin/feature struct (lines above)"; exit 1; }

echo "==> every capability earns its keep: sites are FIFO, loss is a fault-plan clause, one join/leave path, one site selector, one GRUB-SIM path, no one-consumer crate"
# Site disciplines and the base WAN loss rate had no paper claim, study
# cell, test or workload behind them and were deleted; a second site
# scheduler or a second loss path is the unused option growing back.
# (`\b` lets the test `message_loss_degrades_but_does_not_wedge` keep its
# name; it runs on a `loss@` clause.)
{ ! grep -rnE 'SiteDiscipline|with_discipline|EasyBackfill|\bmessage_loss\b|with_loss|"--discipline"|"--loss"' \
      --include=*.rs crates src tests examples; } \
  || { echo "ci.sh: a deleted capability is back (lines above)"; exit 1; }
# desim's `core::elastic` is the one join/leave path (the thread runtime's
# pool is fixed); the client timeout is a constant; the serve address is
# `--listen`, one name per clusterd setting.
{ ! grep -rnE '\b(join_dp|leave_dp)\b|Msg::(StateTransfer|Leave)\b|Answer::Records|client_timeout:|"--timeout-secs"|"bind"' \
      --include=*.rs crates src tests examples; } \
  || { echo "ci.sh: a deleted capability is back (lines above)"; exit 1; }
# One site selector and one GRUB-SIM path: least-used is the policy every
# experiment runs (the `SiteSelector` trait stays as the extension point),
# and table3 replays a run's traces in process, with no file in between.
{ ! grep -rnE 'SelectorKind|RandomSelector|RoundRobinSelector|LeastRecentlyUsedSelector|UslaAwareSelector|"--selector"|simulate_rebalancing|grubsim_cli|save-traces|from_lines|dyn SiteSelector' \
      --include=*.rs --include=Cargo.toml crates src tests examples; } \
  || { echo "ci.sh: a deleted selector or GRUB-SIM path is back (lines above)"; exit 1; }

# A crate with one consumer is folded into it: `membership` is
# `digruber::elastic`, `gruber-metrics` is `diperf`'s summary and series
# plus `digruber::metrics`, and `euryale` is the umbrella package's module.
# Neither the crates nor their crate paths may come back, nor the dead
# code that had no caller anywhere (a second site monitor, a per-VO usage
# sum, a Zipf sampler).
{ [ -z "$(ls -d crates/membership crates/metrics crates/euryale 2>/dev/null)" ] \
  && ! grep -nE '^(membership|gruber-metrics|euryale)\b|package\.(membership|gruber-metrics|euryale)\]' \
      Cargo.toml crates/*/Cargo.toml \
  && ! grep -rnE '(^|[^:[:alnum:]_])(membership|gruber_metrics|euryale)::|use (membership|gruber_metrics|euryale)\b' \
      --include=*.rs crates src tests examples \
  && ! grep -rnwE 'SiteMonitor|SiteLoad|vo_running_cpus|Zipf' --include=*.rs crates src tests examples; } \
  || { echo "ci.sh: a folded crate or deleted dead code is back (lines above)"; exit 1; }

echo "==> the elastic state machines stay sans-IO: ring, scaler and table reach only gruber_types and std"
# The member table, hash ring and autoscaler are pure state machines that
# any runtime can drive. Nothing stops a submodule of digruber from
# reaching for the World, a clock or a trace sink, so this check does:
# outside comments and the #[cfg(test)] tail, every lower-case path root
# is gruber_types, std or a primitive type (no crate::, super::, obs::).
for f in crates/core/src/elastic/ring.rs crates/core/src/elastic/scaler.rs crates/core/src/elastic/table.rs; do
  { ! sed '/^#\[cfg(test)\]/,$d' "$f" | grep -v '^[[:space:]]*//' \
      | grep -noE '\b[a-z_][a-z0-9_]*::' \
      | grep -vE ':(gruber_types|std|u8|u16|u32|u64|usize|i32|i64|f32|f64)::$'; } \
    || { echo "ci.sh: $f reaches past gruber_types and std (paths above)"; exit 1; }
done

echo "==> one handshake, one frame reader: the socket runtime's connection edge is clusterd::conn"
# The hello exchange, its deadlines and frame reassembly live in one module
# that the acceptor, the peer sender and the client all call; a hello coded
# by hand or a second read loop is the triplicate growing back.
{ ! grep -rnE 'encode_hello|decode_hello|FrameBuf::new|set_read_timeout' crates/clusterd/src \
      | grep -v '^crates/clusterd/src/conn.rs:'; } \
  || { echo "ci.sh: a second handshake or frame reader in clusterd (lines above)"; exit 1; }

echo "==> perf/ builds against the workspace crates (the benchmark is its own workspace)"
cargo build --release --offline --manifest-path perf/Cargo.toml
# An offline build rewrites perf's lock file; perf/** is not this tree's to change.
git checkout -- perf/Cargo.lock

echo "==> cargo doc --no-deps (warnings are errors; umbrella package + the crates whose docs are guides)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q \
  -p di-gruber-repro -p dpnode -p dpstore -p desim -p obs -p clusterd \
  -p digruber -p simnet -p gruber-types -p grubsim -p diperf

echo "==> experiments recovery health degradation topology scale (60 fingerprints + the five tables, byte-identical)"
./target/release/experiments recovery health degradation topology scale > results/experiments_studies.txt

# The build and smoke outputs below go into a scratch directory, not the tree.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

echo "==> the sampling profiler builds (scripts/sample-profile.sh: sigprof.c preload + profile.py)"
gcc -O2 -Wall -shared -fPIC -o "$smoke_dir/sigprof.so" scripts/sigprof.c
python3 -c 'import py_compile, sys; py_compile.compile(sys.argv[1], cfile=sys.argv[2], doraise=True)' \
  scripts/profile.py "$smoke_dir/profile.pyc"
bash -n scripts/sample-profile.sh

echo "==> clusterd 3-process loopback smoke (real TCP, clean shutdown, state exchanged)"
# Bounded wall-clock: a wedged cluster (half-open peer, lost shutdown)
# must fail CI loudly, not hang it.
timeout 120 ./target/release/clusterd --spawn-local 3 --jobs 8 \
    --trace-dir "$smoke_dir" > "$smoke_dir/run.log" \
  || { echo "ci.sh: clusterd spawn-local smoke failed (or timed out)"; cat "$smoke_dir/run.log"; exit 1; }
grep -q 'SPAWN_LOCAL_OK n=3' "$smoke_dir/run.log" \
  || { echo "ci.sh: spawn-local smoke did not report success"; cat "$smoke_dir/run.log"; exit 1; }
for i in 0 1 2; do
  test -s "$smoke_dir/dp$i.jsonl" \
    || { echo "ci.sh: dp$i wrote no trace (unclean shutdown?)"; exit 1; }
  grep -q 'digruber-trace/5' "$smoke_dir/dp$i.jsonl" \
    || { echo "ci.sh: dp$i trace has wrong schema"; exit 1; }
done
# The traces must show actual peer exchanges — a run that never flooded
# would still print SPAWN_LOCAL_OK-shaped stdout if the asserts regressed.
grep -q '"exchanges_out":[1-9]' "$smoke_dir"/dp*.jsonl \
  || { echo "ci.sh: no decision point recorded an outgoing exchange"; exit 1; }

echo "==> doc links (every file the top-level guides link to or name in back-ticks exists)"
missing=0
for doc in README.md ARCHITECTURE.md FAULTS.md OBSERVABILITY.md DEPLOYMENT.md EXPERIMENTS.md DESIGN.md; do
  # Markdown link targets that look like local paths (URLs skipped, anchors
  # stripped), plus back-ticked source paths such as `crates/x/src/y.rs`,
  # so deleting a file fails CI until the prose that names it is fixed.
  for target in $( { grep -o '](\([^)]*\))' "$doc" | sed 's/](\([^)#]*\).*/\1/' \
                       | grep -v '^[a-z][a-z0-9+.-]*:'
                     grep -oE '`(crates|tests|examples|scripts)/[A-Za-z0-9_./-]+\.(rs|sh)`' "$doc" \
                       | tr -d '`'; } | sort -u); do
    if [ ! -e "$target" ]; then
      echo "ci.sh: $doc names a missing file: $target"
      missing=1
    fi
  done
done
[ "$missing" -eq 0 ] || exit 1

echo "==> committed artifacts (BENCH_*.json, results/) are what this tree regenerates"
git diff --exit-code -- 'BENCH_*.json' results/ \
  || { echo "ci.sh: a committed BENCH_* / results/ artifact moved"; exit 1; }

echo "ci.sh: all green"
