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

echo "==> cargo clippy -D warnings (every warning blocks: unreachable_pub and dead_code included)"
# The root Cargo.toml turns on `unreachable_pub` for every member; with
# rustc's default `dead_code`, a `pub` that no consumer needs or an item
# nothing calls fails here.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test --release (desim, gridemu, gruber, dpnode, grubsim, digruber: the wheel link, the ledger slot, the expiry queue, the replay order, the request table and the locked calls as the benchmark runs them)"
# Debug builds trap integer overflow and keep debug_assert!; release
# wraps and drops them, which is exactly where a hand-rolled bucket
# queue or an index-addressed ledger would differ: desim's wheel threaded
# through its slab (a 16-byte link per slot, its seq implied by its place
# in the bucket list, u32::MAX the list terminator), gridemu's packed
# ledger slot (a flags byte for the record's optional fields) and
# gruber's 8-byte expiry entry (a key rebuilt from its low 28 bits, a
# shifted fields word above them, a far heap for keys past a 2^28-ms
# block and for records too wide for the entry) among them.
# The differential proptests and grubsim's reference replay order judge
# both builds; the queue's heap model and the streamed replay order's
# proptest run again at 20,000 cases each.
cargo test --release --offline -q -p desim -p gridemu -p gruber -p dpnode -p grubsim -p digruber
PROPTEST_CASES=20000 cargo test --release --offline -q -p gruber -- prop_queue_matches_heap_model
PROPTEST_CASES=20000 cargo test --release --offline -q -p grubsim -- prop_streamed_order_is_the_reference_order

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
# A package's [dependencies] and [dev-dependencies] entries are edges in the
# build graph: an edge no source names (`name::`, `use name` or `name!`)
# only makes the crate wait for another to compile.
# The umbrella package's sources are src/, tests/ and examples/.
unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dirs="${manifest%Cargo.toml}"
  [ "$manifest" = Cargo.toml ] && dirs="src tests examples"
  for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") }
                    on && /^[A-Za-z0-9_-]+\.workspace = true$/ { sub(/\.workspace.*/, ""); print }' "$manifest"); do
    id="${dep//-/_}"
    grep -rqE "\\b$id::|\\buse $id\\b|\\b$id!" --include=*.rs $dirs \
      || { echo "ci.sh: $manifest declares $dep, which nothing under $dirs names"; unused=1; }
  done
done
[ "$unused" -eq 0 ] || exit 1

echo "==> one public surface: every name a crate root re-exports is named outside its crate"
# A crate's lib.rs is its public surface: private modules plus the
# `pub use` of what other crates, tests, examples and the benchmark
# consume (the `unreachable_pub` lint in the root Cargo.toml holds the
# items behind it to the same rule). A re-exported name that no file
# outside the crate names is surface nobody consumes. A crate's own
# binaries under src/bin are outside it.
unconsumed=0
for lib in src/lib.rs crates/*/src/lib.rs; do
  src="${lib%/lib.rs}"
  names=$(sed '/^#\[cfg(test)\]/,$d' "$lib" \
    | awk '/^pub use /{ on = 1 } on { print } on && /;/ { on = 0 }' \
    | sed -E 's/^pub use //; s/[A-Za-z0-9_]+ as ([A-Za-z0-9_]+)/\1/g; s/[{},;]/ /g')
  for path in $names; do
    name="${path##*::}"
    [ -n "$name" ] || continue # the `a::b::` before a `{...}` list
    grep -rlw --include=*.rs "$name" crates src tests examples perf/src \
      | grep -v "^$src/" | grep -q . \
      || grep -rlw --include=*.rs "$name" "$src/bin" 2>/dev/null | grep -q . \
      || { echo "ci.sh: $lib re-exports $name, which nothing outside $src names"; unconsumed=1; }
  done
done
[ "$unconsumed" -eq 0 ] || exit 1

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

echo "==> one host: every runtime without a WAN model steps a Point; the wall-clock ones a SharedPoint, with no point thread and no mailbox"
# dpstore::mailbox::Point::step is the one interpreter of `NodeMsg`, and of
# `Routed` for every runtime but desim, whose WAN model (core::events) is
# the other: trace replay steps a Point per decision point, and
# dpstore::mailbox::SharedPoint is the one way a wall-clock point is
# hosted — a thread runtime call, a socket reader, the ticker and a peer
# sender each step the point under its lock. A `Routed::` match anywhere
# else (dpstore's own tests of the host aside), a `NodeHost::handle` call
# or a flood/crash/recovery trace emission in GRUB-SIM, a second loop, a
# second per-point stats struct or a channel of NodeMsg is a runtime
# interpreting the node again; the channel and lock stand-ins the mailbox
# hop needed are gone with it (std::sync has both). The one exception is a
# line of the equivalence suite's module doc, kept byte-for-byte as it was.
{ ! grep -rn 'Routed::' --include=*.rs crates tests examples src \
      | grep -v '^crates/dpstore/src/\|^crates/dpstore/tests/\|^crates/core/src/events.rs:' \
  && ! grep -rnE 'Routed|\.handle\(|ExchangeSent|DpFailed|DpRecovered|RecoveryReplayed' crates/grubsim/src \
  && ! grep -rnE 'crossbeam|parking_lot|node_loop|fn dp_main' crates tests examples src Cargo.toml \
      | grep -v '^tests/sim_live_equivalence.rs:7:' \
  && ! grep -rnE 'Sender<(Msg|NodeMsg)|channel::<NodeMsg' --include=*.rs crates \
  && [ "$(grep -rn 'pub struct .*DpStats' --include=*.rs crates src | grep -vc '^crates/dpnode/')" -eq 1 ]; } \
  || { echo "ci.sh: a node loop, a mailbox, a channel or lock stand-in, a Routed interpreter, a replay that handles its own floods or crashes, or a second DpStats struct (lines above)"; exit 1; }

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
# `JobSpec::storage_mb` is the same kind of shim: kernels.rs writes it and
# nothing reads it (sites account CPUs only).
{ ! grep -rnE '\.storage_mb\b' --include=*.rs crates src tests examples; } \
  || { echo "ci.sh: something reads JobSpec::storage_mb again (lines above)"; exit 1; }
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

echo "==> one pin: a run is pinned by its declared model and engine halves, hashed by the one FNV-1a"
# bench::output_pins and obs::RunTimeline::pin hash declared fields into a
# model half and an engine half with gruber_types::Fnv1a (ARCHITECTURE.md,
# *Pins*). A hand-written Debug kept to hold an old pin, a fingerprint
# taken by formatting a whole output, or a second copy of the FNV
# constants is the old pin growing back. So is a second SplitMix64 (its
# increment): desim's streams and the ring's points both rest on
# gruber_types::splitmix64. perf/src and vendor/proptest keep their own
# copies: each stands alone.
{ ! grep -rnE 'impl (std::fmt::|fmt::)?Debug for (ExperimentOutput|RunTotals)\b' \
      --include=*.rs crates src tests examples \
  && ! grep -rniE '0x[0_]*100_?0000_?01b3|1099511628211|0xcbf2_?9ce4_?8422_?2325|14695981039346656037' \
      --include=*.rs --include=*.sh --include=*.py crates src tests examples scripts \
      | grep -v '^crates/types/src/hash.rs:\|^scripts/ci.sh:' \
  && ! grep -rniE '0x9e_?37_?79_?b9_?7f_?4a_?7c_?15|11400714819323198485' \
      --include=*.rs --include=*.sh --include=*.py crates src tests examples scripts \
      | grep -v '^crates/types/src/hash.rs:\|^scripts/ci.sh:'; } \
  || { echo "ci.sh: a hand-written Debug of a pinned struct, a second FNV-1a or a second SplitMix64 (lines above)"; exit 1; }
for f in $(grep -rlE --include=*.rs 'ExperimentOutput' crates/*/src src examples); do
  { ! sed '/^#\[cfg(test)\]/,$d' "$f" \
      | grep -nE '\{([a-z]+_)?out(put)?:\?\}|"\{:\?\}", *&?([a-z]+_)?out(put)?\b'; } \
    || { echo "ci.sh: $f formats a whole ExperimentOutput outside its tests (lines above)"; exit 1; }
done

echo "==> every capability earns its keep: sites are FIFO, CPU-only and uncapped, loss and churn are fault-plan clauses, one join/leave path, one site selector, one GRUB-SIM path, one way a client arrives, no one-consumer crate"
# Site disciplines and the base WAN loss rate had no paper claim, study
# cell, test or workload behind them and were deleted; a second site
# scheduler or a second loss path is the unused option growing back.
# (`\b` lets the test `message_loss_degrades_but_does_not_wedge` keep its
# name; it runs on a `loss@` clause.)
{ ! grep -rnE 'SiteDiscipline|with_discipline|EasyBackfill|\bmessage_loss\b|with_loss|"--discipline"|"--loss"' \
      --include=*.rs crates src tests examples; } \
  || { echo "ci.sh: a deleted capability is back (lines above)"; exit 1; }
# One crash path: the exponential failure clock is a `churn@` clause that
# shares `crash@`'s crash and restart events, and failover is the
# `DigruberConfig::failover_after` client policy. No site caps a VO: the
# paper leaves S-PEPs out and no policy in the tree ever set a cap.
{ ! grep -rnE 'FailureConfig|SeedFailures|\bDpFail\b|DpRepair|PlannedCrash|BeginRestore|seed_failures|"--failures"|vo_cap_fraction|vo_cpus' \
      --include=*.rs crates src tests examples; } \
  || { echo "ci.sh: a second crash path or a site cap is back (lines above)"; exit 1; }
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
# One way a client arrives: every run posts each client's start on the
# one DiPerF ramp before its first event. A chunked seeder event was a
# second path whose only reason, an insertion cost, the wheel no longer has.
{ ! grep -rnE 'arrival_batch|SeedClients|seed_clients' --include=*.rs crates src tests examples; } \
  || { echo "ci.sh: a second client-seeding path is back (lines above)"; exit 1; }

# A crate with one consumer is folded into it: `membership` is
# `digruber::elastic`, `gruber-metrics` is `diperf`'s summary and series
# plus `digruber::metrics`. Neither the crates nor their crate paths may
# come back, nor code that no figure, table or study reaches: a second
# site monitor, a per-VO usage sum, a Zipf sampler, the Euryale planner
# and the job failure and resubmission only it drove (no runtime models a
# site failure), storage accounting (every workload is CPU-only) and
# multi-cluster sites. Nor may a setting with one value in use: an elastic
# pool is its autoscaler policy (64 vnodes and a 30 s tick are constants
# of `digruber::elastic`), the paper's 0.6 ramp share lives in
# `WorkloadSpec` alone, and GRUB-SIM's burst allowance is a constant.
# Nor a USLA text format, resource dimension or user level: every USLA
# set is built in code from VO and group CPU shares, and one that fails
# validation is `InvalidConfig`.
{ [ -z "$(ls -d crates/membership crates/metrics crates/euryale 2>/dev/null)" ] \
  && ! grep -nE '^(membership|gruber-metrics|euryale)\b|package\.(membership|gruber-metrics|euryale)\]' \
      Cargo.toml crates/*/Cargo.toml \
  && ! grep -rnE '(^|[^:[:alnum:]_])(membership|gruber_metrics|euryale)::|use (membership|gruber_metrics|euryale)\b' \
      --include=*.rs crates src tests examples \
  && ! grep -rnwE 'SiteMonitor|SiteLoad|vo_running_cpus|Zipf' --include=*.rs crates src tests examples \
  && ! grep -rnE 'EuryalePlanner|JobDag|SubmitFile|job_storage_mb|total_storage_mb|free_storage_mb|JobState::Failed|fn resubmit|ClusterSpec' \
      --include=*.rs crates src tests examples \
  && ! grep -rnE 'MembershipConfig|RampSchedule::paper_default|burst_backlog' \
      --include=*.rs crates src tests examples \
  && ! grep -rnE 'usla::parse|usla::print|ResourceKind|Principal::User|UslaParse|refuses_hostile_text' \
      --include=*.rs crates src tests examples; } \
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

echo "==> one command-line reader: gruber_types::CommandLine reads every binary's flags, and refuse is the one exit 2"
# sweep, experiments and clusterd parse their arguments with the reader in
# crates/types/src/cli.rs, whose refusals are unit-tested once. A per-binary
# flag table or checker, or a binary's own exit-2 path, is a hand-rolled
# reader growing back. So is a config file: a second route to a setting is
# a second reader, and the command line is every binary's only one.
{ ! grep -rnE 'VALUE_FLAGS|SWITCHES|FLAG_ONLY|check_known|drain_value' --include=*.rs crates/*/src src \
      | grep -v '^crates/types/src/cli.rs:' \
  && ! grep -rnE 'fn die\b|process::exit\(2\)' --include=*.rs crates/*/src/bin \
  && ! grep -rnE 'parse_toml|TomlValue|fn fill\b|"--config"' --include=*.rs crates/*/src; } \
  || { echo "ci.sh: a second command-line reader, exit-2 path or config file (lines above)"; exit 1; }

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

echo "==> experiments all (the paper's figures and tables, byte-identical)"
./target/release/experiments all > results/experiments_all.txt

echo "==> the examples EXPERIMENTS.md quotes results from (byte-identical)"
# reliability_failover's table and dynamic_reconfiguration's pool log are
# quoted in EXPERIMENTS.md; both are deterministic simulations, so their
# stdout is a committed artifact like the figures above.
{ cargo run --release --offline -q --example reliability_failover
  cargo run --release --offline -q --example dynamic_reconfiguration; } > results/examples.txt

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

echo "==> non-test lines per crate (information, not a gate; ROADMAP's size rule)"
scripts/loc.sh

echo "ci.sh: all green"
