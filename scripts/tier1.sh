#!/usr/bin/env sh
# Tier-1 gate: the full test suite on a normal build, the trace-analytics
# phase (golden-ledger suite and the solsched-inspect CLI), the campaign
# kill/resume smoke, the live-telemetry drill (stop under SOLSCHED_OBS,
# torn-tail heal, resume, watch exit codes), the serve daemon kill/restart
# drill (SIGKILL mid-load, backoff reconnect, bit-identical decisions across
# the restart), the serve observability drill (SLO burn-rate alert under an
# injected delay fault, timeseries ring flush, a traced request stitched
# across the client and server Chrome-trace dumps), the perfbench smoke run
# (every benchmark workload on its smallest inputs, checking metrics,
# failures and the decision and served-reply digests), the
# scheduler-registry zoo suite
# (`ctest -L sched`: id->factory->name round-trips, 1-vs-N-thread
# bit-identity across the zoo, reused-instance == fresh-instance records,
# the per-slot allocation budget, campaign journals keyed by canonical id,
# spec-axis/registry drift), a
# SOLSCHED_SIMD=OFF scalar-fallback build with a cross-build
# controller-decision check, a 1-vs-4-thread journal comparison with the
# Optimal row's nested DP, plus the concurrency/obs/telemetry/serve/
# tsdb/sched/durable suites rerun under ThreadSanitizer, the fault suite
# rerun under UndefinedBehaviorSanitizer, and the simd parity, sched and
# durable suites rerun under AddressSanitizer+UBSan.
#
#   scripts/tier1.sh [build-dir] [tsan-build-dir] [ubsan-build-dir] [scalar-build-dir] [asan-build-dir]
#
# The first phase is exactly the ROADMAP tier-1 command (configure, build,
# full ctest); the scalar phase proves the kernel layer's bit-exactness
# contract end to end (identical campaign decision fingerprints on the wam
# and ecg workloads from both builds); the TSan phase rebuilds only to run
# `ctest -L "concurrency|obs|telemetry|serve|tsdb|sched|durable"` — the
# label families with real cross-thread traffic (durable: concurrent
# AppendLog appends); the UBSan phase runs `ctest -L fault` — the
# injection paths push NaN and out-of-range values through the decoders,
# exactly where UB would hide; the ASan+UBSan phase runs
# `ctest -L "simd|sched|durable"` — the vector kernels' tails and pack
# buffers, the policies' reused, re-sized slot-path scratch buffers, and
# the durable layer's torn-tail scan and truncate/heal buffers are exactly
# where an out-of-bounds read would hide.
set -eu

BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
UBSAN_DIR="${3:-build-ubsan}"
SCALAR_DIR="${4:-build-scalar}"
ASAN_DIR="${5:-build-asan}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

echo "== tier 1: full suite ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== tier 1: trace analytics ($BUILD_DIR) =="
# The golden-ledger suite standalone: energy conservation, DMR attribution,
# manifests, trace profiles and timelines, and the solsched-inspect exit
# codes (including its strict numeric flag parsing).
# Performance is gated by the perfbench smoke phase below, not here.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L analysis

echo "== tier 1: scheduler registry zoo ($BUILD_DIR) =="
# The sched label: every registered policy round-trips id -> factory ->
# name(), the whole controller-free zoo simulates bit-identically at 1 vs
# 4 threads, a ccedf/laedf/greedy/dvfs-match campaign journals rows keyed
# by the canonical ids, and the campaign scheduler axis is pinned to the
# registry (drift test), so a new registry entry cannot silently miss the
# spec vocabulary. One instance reused over different traces and graphs
# must match fresh instances, and a warm simulated day may allocate at most
# once per slot (the returned decision) plus 4 per period: a policy that
# starts allocating per slot fails here by name, with its count. The
# dvfs-match tests also pin the bench/dvfs_extension DMR grid.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L sched

echo "== tier 1: campaign kill/resume smoke ($BUILD_DIR) =="
# The campaign suite, then the CLI-level crash-safety drill: one
# uninterrupted serial campaign, one campaign stopped after 3 shards
# (exit 3) and resumed at default threads sharing the same artifact cache —
# the two aggregate files must be byte-identical.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L campaign
CAMP_SPEC="workloads=ecg;seeds=1..4;intensities=0,1;fault=blackout=3"
CAMP_SPEC="$CAMP_SPEC;schedulers=inter,proposed;periods=12;slots=10;days=1"
CAMP_SPEC="$CAMP_SPEC;train_days=1;n_caps=2;dp_buckets=6;pretrain_epochs=2"
CAMP_SPEC="$CAMP_SPEC;finetune_epochs=10"
CAMP_TMP="$BUILD_DIR/campaign-smoke"
rm -rf "$CAMP_TMP"
SOLSCHED_THREADS=1 "$BUILD_DIR/tools/solsched-campaign" run \
  --spec "$CAMP_SPEC" --dir "$CAMP_TMP/full" --cache-dir "$CAMP_TMP/cache"
rc=0
"$BUILD_DIR/tools/solsched-campaign" run --spec "$CAMP_SPEC" \
  --dir "$CAMP_TMP/resumed" --cache-dir "$CAMP_TMP/cache" \
  --stop-after 3 || rc=$?
[ "$rc" -eq 3 ] || { echo "expected exit 3 from --stop-after, got $rc"; exit 1; }
"$BUILD_DIR/tools/solsched-campaign" run --spec "$CAMP_SPEC" \
  --dir "$CAMP_TMP/resumed" --cache-dir "$CAMP_TMP/cache"
cmp "$CAMP_TMP/full/aggregate.json" "$CAMP_TMP/resumed/aggregate.json"
"$BUILD_DIR/tools/solsched-inspect" campaign \
  "$CAMP_TMP/resumed/journal.jsonl" > /dev/null
echo "campaign kill/resume aggregates bit-identical"

echo "== tier 1: live telemetry ($BUILD_DIR) =="
# The telemetry suite, then the CLI-level drill from DESIGN.md §15: a
# campaign stopped mid-flight under SOLSCHED_OBS leaves a truthful partial
# status.json (state "stopped", exit 3 from watch); a crash-torn
# telemetry.jsonl tail heals on resume; the finished run watches clean
# (exit 0) and renders through solsched-inspect; and the aggregate stays
# byte-identical to the telemetry-free run above.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L telemetry
TELEM_TMP="$CAMP_TMP/telem"
rm -rf "$TELEM_TMP"
rc=0
SOLSCHED_OBS=1 "$BUILD_DIR/tools/solsched-campaign" run --spec "$CAMP_SPEC" \
  --dir "$TELEM_TMP" --cache-dir "$CAMP_TMP/cache" --stop-after 3 || rc=$?
[ "$rc" -eq 3 ] || { echo "expected exit 3 from telemetry stop, got $rc"; exit 1; }
grep -q '"state": "stopped"' "$TELEM_TMP/status.json" || {
  echo "status.json does not record the stopped state"; exit 1; }
rc=0
"$BUILD_DIR/tools/solsched-campaign" watch "$TELEM_TMP" --plain --once || rc=$?
[ "$rc" -eq 3 ] || { echo "expected exit 3 from watch on stopped run, got $rc"; exit 1; }
printf '{"seq": 9999, "type": "shard.don' >> "$TELEM_TMP/telemetry.jsonl"
SOLSCHED_OBS=1 "$BUILD_DIR/tools/solsched-campaign" run --spec "$CAMP_SPEC" \
  --dir "$TELEM_TMP" --cache-dir "$CAMP_TMP/cache"
"$BUILD_DIR/tools/solsched-campaign" watch "$TELEM_TMP" --plain --once
"$BUILD_DIR/tools/solsched-inspect" telemetry "$TELEM_TMP" > /dev/null
cmp "$CAMP_TMP/full/aggregate.json" "$TELEM_TMP/aggregate.json"
echo "telemetry stop/heal/resume drill passed, aggregate unchanged"

echo "== tier 1: serve daemon drill ($BUILD_DIR) =="
# The serve suite, then the CLI-level crash drill from DESIGN.md §16: a
# daemon serving the campaign cache above answers a query, survives a
# loadgen burst, is SIGKILLed while a second loadgen is mid-flight, a
# fresh daemon rebinds the same socket, the stranded clients reconnect
# through backoff (exit 0 = every query eventually answered), and the
# post-restart decision is byte-identical to the pre-kill one. train_days=1
# k-means-clusters each controller to a single capacitor, hence the single
# --voltages entry and --caps 1.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L serve
SERVE_TMP="$CAMP_TMP/serve"
rm -rf "$SERVE_TMP"
mkdir -p "$SERVE_TMP"
KEY="$(basename "$(ls "$CAMP_TMP/cache"/*.controller | head -n 1)" .controller)"
SERVE_SOCK="$SERVE_TMP/sock"
SERVE_STATUS="$SERVE_TMP/status.json"
"$BUILD_DIR/tools/solsched-serve" run --socket "$SERVE_SOCK" \
  --cache-dir "$CAMP_TMP/cache" --status "$SERVE_STATUS" \
  --status-interval-ms 50 &
SERVE_PID=$!
SERVE_SOLAR="0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1"
"$BUILD_DIR/tools/solsched-serve" query --socket "$SERVE_SOCK" \
  --key "$KEY" --voltages 2.5 --solar "$SERVE_SOLAR" --period 4 \
  --max-attempts 40 > "$SERVE_TMP/pre.txt"
"$BUILD_DIR/tools/solsched-serve" loadgen --socket "$SERVE_SOCK" \
  --key "$KEY" --count 50 --clients 4 --caps 1 --slots 10
"$BUILD_DIR/tools/solsched-serve" loadgen --socket "$SERVE_SOCK" \
  --key "$KEY" --count 500 --clients 2 --caps 1 --slots 10 \
  --max-attempts 60 --base-backoff-ms 20 \
  > "$SERVE_TMP/loadgen-kill.txt" &
LOADGEN_PID=$!
kill -9 "$SERVE_PID"
"$BUILD_DIR/tools/solsched-serve" run --socket "$SERVE_SOCK" \
  --cache-dir "$CAMP_TMP/cache" --status "$SERVE_STATUS" \
  --status-interval-ms 50 &
SERVE_PID=$!
wait "$LOADGEN_PID" || { echo "loadgen across the kill lost queries"; \
  cat "$SERVE_TMP/loadgen-kill.txt"; exit 1; }
grep -q "refused 0 exhausted 0" "$SERVE_TMP/loadgen-kill.txt"
"$BUILD_DIR/tools/solsched-serve" query --socket "$SERVE_SOCK" \
  --key "$KEY" --voltages 2.5 --solar "$SERVE_SOLAR" --period 4 \
  --max-attempts 40 > "$SERVE_TMP/post.txt"
cmp "$SERVE_TMP/pre.txt" "$SERVE_TMP/post.txt"
"$BUILD_DIR/tools/solsched-serve" stop --socket "$SERVE_SOCK"
wait "$SERVE_PID"
"$BUILD_DIR/tools/solsched-inspect" serve "$SERVE_STATUS" > /dev/null
echo "serve kill/restart decisions bit-identical"

echo "== tier 1: serve observability drill ($BUILD_DIR) =="
# The tsdb suite, then the DESIGN.md §17 drill: a daemon with an SLO
# config, a 30 ms reply-delay fault, a timeseries ring and an armed trace
# sink serves a loadgen burst whose 20 ms deadlines expire in queue behind
# the single delayed worker. The burn rate blows the 0.95 budget in both
# windows, so `solsched-inspect slo` must page (exit 1). A traced query
# then writes the client half of the timeline; the daemon's stop flushes
# the server half; `solsched-inspect timeline` stitches the two dumps into
# one flow-linked view of that id (and exits 1 for an id that is absent).
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L tsdb
OBS_TMP="$CAMP_TMP/serve-obs"
rm -rf "$OBS_TMP"
mkdir -p "$OBS_TMP"
OBS_SOCK="$OBS_TMP/sock"
OBS_STATUS="$OBS_TMP/status.json"
"$BUILD_DIR/tools/solsched-serve" run --socket "$OBS_SOCK" \
  --cache-dir "$CAMP_TMP/cache" --status "$OBS_STATUS" \
  --status-interval-ms 50 --workers 1 \
  --slo "availability=0.95,fast-s=5,slow-s=10,burn=2" \
  --fault "seed=1,delay=1.0,delay-ms=30" \
  --timeseries "$OBS_TMP/timeseries.jsonl" \
  --trace-out "$OBS_TMP/server_trace.json" &
OBS_PID=$!
"$BUILD_DIR/tools/solsched-serve" loadgen --socket "$OBS_SOCK" \
  --key "$KEY" --count 25 --clients 2 --caps 1 --slots 10 \
  --deadline-ms 20 --max-attempts 40 \
  > "$OBS_TMP/loadgen.txt" || true
grep -q "timeout-seen [1-9]" "$OBS_TMP/loadgen.txt" || {
  echo "delay fault produced no client-visible timeouts"; \
  cat "$OBS_TMP/loadgen.txt"; exit 1; }
sleep 1  # two status ticks: the SLO engine samples the burst.
rc=0
"$BUILD_DIR/tools/solsched-inspect" slo "$OBS_STATUS" || rc=$?
[ "$rc" -eq 1 ] || { echo "expected burn-rate alert (exit 1), got $rc"; exit 1; }
[ -s "$OBS_TMP/timeseries.jsonl" ] || { echo "timeseries ring never flushed"; exit 1; }
"$BUILD_DIR/tools/solsched-serve" query --socket "$OBS_SOCK" \
  --key "$KEY" --voltages 2.5 --solar "$SERVE_SOLAR" --period 4 \
  --max-attempts 40 --trace-id 0xabc123 \
  --trace-out "$OBS_TMP/client_trace.json" > /dev/null
"$BUILD_DIR/tools/solsched-serve" stop --socket "$OBS_SOCK"
wait "$OBS_PID"
"$BUILD_DIR/tools/solsched-inspect" timeline \
  "$OBS_TMP/client_trace.json" "$OBS_TMP/server_trace.json" \
  --trace-id 0xabc123 --merged-out "$OBS_TMP/merged_trace.json" \
  > "$OBS_TMP/timeline.txt"
grep -q "serve.req" "$OBS_TMP/timeline.txt"
grep -q "serve.client.request" "$OBS_TMP/timeline.txt"
rc=0
"$BUILD_DIR/tools/solsched-inspect" timeline "$OBS_TMP/merged_trace.json" \
  --trace-id 0xdead > /dev/null || rc=$?
[ "$rc" -eq 1 ] || { echo "expected exit 1 for an absent trace id, got $rc"; exit 1; }
echo "serve slo alert + stitched client/server timeline drill passed"

echo "== tier 1: benchmark smoke (perfbench) =="
# The BENCHMARK.json command's smoke mode: it builds the benchmark from this
# checkout into .bench_build/ and runs all four workloads untraced and
# traced on their smallest inputs. Every listed metric must be emitted with
# its unit, no operation may fail, trace coverage must reach 0.95, and the
# seed-2015 decision digests must match perfbench/reference.json — for
# serve_hot and serve_mixed that is every reply byte the daemon sends.
python3 perfbench/run.py --smoke

echo "== tier 1: scalar-fallback build + cross-build decision check ($SCALAR_DIR) =="
# SOLSCHED_SIMD=OFF build: the simd suite must pass with the dispatch
# resolving to the scalar reference bodies, and a serial wam+ecg campaign
# from each build must journal byte-identical records — same rows, same
# predict_batch controller fingerprints. This is the kernel layer's
# bit-exactness contract checked end to end, not kernel by kernel.
cmake -B "$SCALAR_DIR" -S . -DSOLSCHED_SIMD=OFF
cmake --build "$SCALAR_DIR" -j "$JOBS"
ctest --test-dir "$SCALAR_DIR" --output-on-failure -j "$JOBS" -L simd
XBUILD_SPEC="workloads=wam,ecg;seeds=1..2;intensities=0"
XBUILD_SPEC="$XBUILD_SPEC;schedulers=inter,proposed;periods=12;slots=10;days=1"
XBUILD_SPEC="$XBUILD_SPEC;train_days=1;n_caps=2;dp_buckets=6;pretrain_epochs=2"
XBUILD_SPEC="$XBUILD_SPEC;finetune_epochs=10"
XBUILD_TMP="$BUILD_DIR/xbuild-smoke"
rm -rf "$XBUILD_TMP"
SOLSCHED_THREADS=1 "$BUILD_DIR/tools/solsched-campaign" run \
  --spec "$XBUILD_SPEC" --dir "$XBUILD_TMP/simd"
SOLSCHED_THREADS=1 "$SCALAR_DIR/tools/solsched-campaign" run \
  --spec "$XBUILD_SPEC" --dir "$XBUILD_TMP/scalar"
cmp "$XBUILD_TMP/simd/journal.jsonl" "$XBUILD_TMP/scalar/journal.jsonl"
echo "scalar and SIMD builds journal bit-identical wam+ecg decisions"

echo "== tier 1: thread-count cross check ($BUILD_DIR) =="
# The same grid with the Optimal row added, at 1 and at 4 threads. Each
# shard's rows run as pool jobs, the Optimal row's DP fans out its labels
# under its row, and every pareto subset sweep fans out under its label:
# nested parallel regions end to end. Records land in completion order, so
# both journals are sorted before the byte comparison.
XTHREAD_SPEC="$(echo "$XBUILD_SPEC" | sed 's/schedulers=inter,proposed/&,optimal/')"
SOLSCHED_THREADS=1 "$BUILD_DIR/tools/solsched-campaign" run \
  --spec "$XTHREAD_SPEC" --dir "$XBUILD_TMP/threads1"
SOLSCHED_THREADS=4 "$BUILD_DIR/tools/solsched-campaign" run \
  --spec "$XTHREAD_SPEC" --dir "$XBUILD_TMP/threads4"
sort "$XBUILD_TMP/threads1/journal.jsonl" > "$XBUILD_TMP/threads1.sorted"
sort "$XBUILD_TMP/threads4/journal.jsonl" > "$XBUILD_TMP/threads4.sorted"
cmp "$XBUILD_TMP/threads1.sorted" "$XBUILD_TMP/threads4.sorted"
echo "1-thread and 4-thread campaigns journal bit-identical records"

echo "== tier 1: TSan rerun of concurrency + obs + telemetry + serve + tsdb + sched + durable ($TSAN_DIR) =="
# sched rides along because the registry is consulted concurrently from
# every comparison job and the zoo suite runs 4-thread sweeps — exactly
# where a mutable-registry regression would race. durable rides along for
# its N-thread AppendLog append test.
cmake -B "$TSAN_DIR" -S . -DSOLSCHED_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS"
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
  -L "concurrency|obs|telemetry|serve|tsdb|sched|durable"

echo "== tier 1: UBSan rerun of fault suite ($UBSAN_DIR) =="
cmake -B "$UBSAN_DIR" -S . -DSOLSCHED_SANITIZE=undefined
cmake --build "$UBSAN_DIR" -j "$JOBS"
ctest --test-dir "$UBSAN_DIR" --output-on-failure -j "$JOBS" -L fault

echo "== tier 1: ASan+UBSan rerun of simd + sched + durable suites ($ASAN_DIR) =="
# sched rides along because every policy reuses slot-path scratch buffers
# re-sized per graph (DESIGN.md §9): a stale size there reads out of bounds.
# durable rides along for the torn-at-every-byte sweep: the AppendLog tail
# scan and replay_lines slice buffers at every truncation offset.
cmake -B "$ASAN_DIR" -S . -DSOLSCHED_SANITIZE=address
cmake --build "$ASAN_DIR" -j "$JOBS"
ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS" -L "simd|sched|durable"

echo "tier 1 passed"
