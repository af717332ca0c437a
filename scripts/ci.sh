#!/usr/bin/env bash
# Tier-1 verification: build (warnings are errors) + test the one
# default configuration (telemetry is always compiled in; the runtime
# switch is its only gate), then the kernel-pinned, loaded-repeat,
# bench-smoke, perfbench self-test, end-to-end and sanitizer steps
# below.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

echo "=== configure build ==="
cmake -B build -S . -DCA_WERROR=ON
echo "=== build build ==="
cmake --build build -j "$JOBS"
echo "=== test build ==="
ctest --test-dir build --output-on-failure -j "$JOBS"

# The optimisation level perfbench times (-O3), warnings as errors too:
# GCC warns differently at -O3, and the measured build must stay clean.
echo "=== configure build-release (Release, warnings are errors) ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DCA_WERROR=ON
echo "=== build build-release ==="
cmake --build build-release -j "$JOBS"
# The kernel suites in the build perfbench times: -O3 inlines and
# vectorizes the steppers differently, so the oracle-equivalence tests
# run on the optimised kernels too.
echo "=== test build-release (sim|match) ==="
ctest --test-dir build-release -L "sim|match" --output-on-failure -j "$JOBS"

# The sim and runtime suites under each execution kernel: CA_SIM_KERNEL
# overrides the kernel process-wide, StreamServer engines included, so
# the oracle-equivalence, streaming, checkpoint and served-stream
# contracts are enforced with the sparse and the dense stepper (Auto is
# the in-tree default and already ran above).
CA_SIM_KERNEL=sparse ctest --test-dir build -L "sim|runtime" \
    --output-on-failure -j "$JOBS"
CA_SIM_KERNEL=dense ctest --test-dir build -L "sim|runtime" \
    --output-on-failure -j "$JOBS"

# The serving suites repeated under load: 8 parallel ctest jobs, each
# test run up to 20 times. A test that asserts an ordering without a
# barrier (e.g. across two connections) flakes here long before it
# flakes in a single run.
ctest --test-dir build --repeat until-fail:20 -j 8 -L "net|runtime|cluster" \
    --output-on-failure

# The kernel-comparison bench's plumbing (table + cross-kernel report
# check) at smoke size, so the bench binary cannot rot between releases.
# It also runs from build-release: its cross-check compares every suite
# automaton's reports and activity counters across the three kernels and
# against the sim, on multi-partition automata, and -O3 vectorizes the
# steppers' word loops differently.
./build/bench/bench_kernel_comparison --smoke >/dev/null
./build-release/bench/bench_kernel_comparison --smoke >/dev/null

# The chunk-parallel matching bench's plumbing (table + per-degree
# report cross-check against the sim) at smoke size.
./build/bench/bench_parallel_match --smoke >/dev/null

# The scored-matching bench's plumbing (MatchEngine scored vs plain
# table + reference cross-check of every engine and sim arm's reports
# and scores) at smoke size.
./build/bench/bench_scored_match --smoke >/dev/null

# The serving benchmark's self-test: every workload at tiny scale, with
# every delivered report, and every bio_scored score, checked against a
# serial reference. It builds its own Release tree in .bench_build/.
python3 perfbench/run.py --selftest >/dev/null

# The observability-overhead bench's plumbing at smoke size: it must
# drive real traffic with a live STATS poller ("polls > 0" in its
# output proves the stats plane answered mid-load).
./build/bench/bench_observability_overhead --smoke >/dev/null

# The cluster-replication bench's plumbing at smoke size: a real
# loopback peer pull into a cold cache plus the warm-hit path.
./build/bench/bench_cluster_replication --smoke >/dev/null

# End-to-end scrape smoke: a real ca_server with the stats endpoint and
# a real ca_top against the in-band STATS protocol. One client stream
# runs first, so every serving counter has counted before the scrape;
# a metric family exported twice (the same `# TYPE` name on one page)
# fails the step, because Prometheus rejects such a page. The scrape
# uses bash's /dev/tcp so CI needs no curl/netcat.
echo "=== ca_server stats endpoint + ca_top smoke ==="
# An option the tool does not know is a usage error (exit status 2).
rc=0; ./build/tools/ca_server --no-such-flag 2>/dev/null || rc=$?; [ "$rc" -eq 2 ]
./build/tools/ca_server --pattern 'cat|dog' --port 0 \
    --stats-port 0 >/tmp/ca_ci_obs_server.log 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    grep -q "stats listening" /tmp/ca_ci_obs_server.log && break
    sleep 0.1
done
MATCH_PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' \
    /tmp/ca_ci_obs_server.log | head -1)
STATS_PORT=$(sed -n 's/.*stats listening on [0-9.]*:\([0-9]*\)$/\1/p' \
    /tmp/ca_ci_obs_server.log | head -1)
printf 'the cat chased the dog %d\n' $(seq 2500) >/tmp/ca_ci_obs_input.txt
./build/tools/ca_client --port "$MATCH_PORT" /tmp/ca_ci_obs_input.txt \
    >/dev/null
exec 9<>"/dev/tcp/127.0.0.1/${STATS_PORT}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&9
SCRAPE=$(cat <&9)
exec 9<&- 9>&-
echo "$SCRAPE" | grep -q "200 OK"
echo "$SCRAPE" | grep -q "ca_server_uptime_seconds"
echo "$SCRAPE" | grep -q "ca_net_frames_in_total"
REPEATED=$(echo "$SCRAPE" | grep '^# TYPE' | awk '{print $3}' | sort |
    uniq -d)
if [ -n "$REPEATED" ]; then
    echo "stats page repeats metric families:" >&2
    echo "$REPEATED" >&2
    exit 1
fi
./build/tools/ca_top --port "$MATCH_PORT" --once \
    | grep -q "ca_top"
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
rm -f /tmp/ca_ci_obs_input.txt

# Loopback two-server cluster smoke (docs/CLUSTER.md): node A serves an
# artifact, ca_artifact fetch pulls it by fingerprint, node B starts
# from nothing but the fingerprint + A as a peer, and A hot-swaps on
# SIGHUP while a client is streaming.
echo "=== two-server replication + hot-swap smoke ==="
CLDIR=$(mktemp -d /tmp/ca_ci_cluster.XXXXXX)
trap 'kill "${A_PID:-}" "${B_PID:-}" 2>/dev/null || true; rm -rf "$CLDIR"' EXIT
./build/tools/ca_artifact pack --out "$CLDIR/rules.caa" \
    --pattern 'cat|dog' >/dev/null
./build/tools/ca_server --artifact "$CLDIR/rules.caa" --port 0 \
    --admin-port 0 >"$CLDIR/a.log" 2>&1 &
A_PID=$!
for _ in $(seq 50); do
    grep -q "^fingerprint" "$CLDIR/a.log" && break
    sleep 0.1
done
A_PORT=$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' \
    "$CLDIR/a.log" | head -1)
FP=$(sed -n 's/^fingerprint \([0-9a-f]*\)$/\1/p' "$CLDIR/a.log" | head -1)

# Out-of-band pull + full verification of the fetched artifact.
./build/tools/ca_artifact fetch "$FP" --from "127.0.0.1:${A_PORT}" \
    --out "$CLDIR/fetched.caa" >/dev/null
./build/tools/ca_artifact verify "$CLDIR/fetched.caa" \
    --input-bytes 4096 >/dev/null

# Node B: fingerprint + peer only; must serve the identical automaton
# (the client pins the fingerprint it got from A).
./build/tools/ca_server --fingerprint "$FP" \
    --peer "127.0.0.1:${A_PORT}" --cache-dir "$CLDIR/cache_b" \
    --port 0 >"$CLDIR/b.log" 2>&1 &
B_PID=$!
for _ in $(seq 50); do
    grep -q "^fingerprint" "$CLDIR/b.log" && break
    sleep 0.1
done
B_PORT=$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' \
    "$CLDIR/b.log" | head -1)
head -c 2097152 /dev/urandom >"$CLDIR/input.bin"
./build/tools/ca_client --port "$B_PORT" --fingerprint "$FP" \
    "$CLDIR/input.bin" >/dev/null
grep -q "ca-fp-${FP}.caa" <<<"$(ls "$CLDIR/cache_b")"

# Hot-swap A to a new ruleset on SIGHUP while a client is mid-stream;
# the stream must finish cleanly and A must report the swap.
./build/tools/ca_artifact pack --out "$CLDIR/rules.caa" \
    --pattern 'fish|owl' >/dev/null
./build/tools/ca_client --port "$A_PORT" --chunk-bytes 4096 \
    "$CLDIR/input.bin" >/dev/null &
CLIENT_PID=$!
sleep 0.2
kill -HUP "$A_PID"
wait "$CLIENT_PID"
for _ in $(seq 50); do
    grep -q "^SIGHUP: swapped" "$CLDIR/a.log" && break
    sleep 0.1
done
grep -q "^SIGHUP: swapped ${FP} ->" "$CLDIR/a.log"
NEW_FP=$(sed -n 's/^SIGHUP: swapped [0-9a-f]* -> \([0-9a-f]*\).*/\1/p' \
    "$CLDIR/a.log" | head -1)
./build/tools/ca_client --port "$A_PORT" --fingerprint "$NEW_FP" \
    "$CLDIR/input.bin" >/dev/null
kill "$A_PID" "$B_PID"
wait "$A_PID" "$B_PID" 2>/dev/null || true
trap - EXIT
rm -rf "$CLDIR"

# ThreadSanitizer over the concurrency code: build only the runtime-
# labeled tests (the multi-stream runtime, the checkpoint/streaming
# contract it is built on, the persist cache's shared-directory
# concurrency, and the TCP match service's reader/writer/sink threads)
# with -fsanitize=thread and run that subset. persist_test, net_test,
# and observability_test carry the runtime label, so their concurrent
# tests (including snapshot-while-mutating) run under TSan here.
echo "=== configure build-tsan (ThreadSanitizer, runtime label) ==="
cmake -B build-tsan -S . "-DCMAKE_CXX_FLAGS=-fsanitize=thread"
cmake --build build-tsan -j "$JOBS" \
    --target runtime_test streaming_test persist_test net_test \
    observability_test cluster_test match_test score_test
ctest --test-dir build-tsan -L runtime --output-on-failure -j "$JOBS"

# The scored suite under TSan: the scored ParallelMatcher path must
# fall back to serial (speculation cannot certify scores), and the
# fallback decision itself must be race-free.
ctest --test-dir build-tsan -L score --output-on-failure -j "$JOBS"

# The same TSan subset with every worker engine forced onto the dense
# kernel: all workers read the dense tables of one immutable
# MatchContext and step their own engine's frontier bitvectors, and
# this run proves the multi-stream scheduler keeps both data-race-free
# under context switching.
CA_SIM_KERNEL=dense ctest --test-dir build-tsan -L runtime \
    --output-on-failure -j "$JOBS"

# AddressSanitizer + UndefinedBehaviorSanitizer over the whole suite,
# not one label: the kernels index per-byte start tables and dense
# frontier words on every symbol, and every engine, decoder and serving
# test drives that code. -fno-sanitize-recover makes a UBSan finding
# fail its test instead of scrolling past as a warning.
echo "=== configure build-asan (ASan+UBSan, full suite) ==="
cmake -B build-asan -S . \
    "-DCMAKE_CXX_FLAGS=-g -fsanitize=address,undefined -fno-sanitize-recover=undefined"
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "ci: all configurations passed"
