#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then the
# parallel engine's tests again under ThreadSanitizer so data races in
# src/engine/ (or anything it drives concurrently) fail the build.
#
# Usage: scripts/tier1.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== tier 1: build + ctest =="
cmake -B build -S .
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== tier 1: differential fuzz label =="
# The fuzz-labelled tests carry their own per-test timeouts
# (tests/CMakeLists.txt); run them serially so a timeout is attributable.
(cd build && ctest --output-on-failure -L fuzz)

echo "== tier 1: resilience label =="
# The fault-injection matrix (tests/test_resilience.cpp) runs as its own
# leg with a ctest timeout: a fallback ladder that stops terminating hangs
# here, attributably, instead of inside the main suite.
(cd build && ctest --output-on-failure -L resilience)

echo "== tier 1: observability label =="
# The obs determinism/golden suite (tests/test_obs.cpp) as its own leg so
# a metrics fingerprint drift or golden-trace mismatch is attributable.
(cd build && ctest --output-on-failure -L obs)

echo "== tier 1: pass-pipeline label =="
# The pass suite (tests/test_pass.cpp) pins facade-vs-PassManager byte
# parity and ArchArtifacts equivalence; a drift here means Compiler no
# longer compiles what its declared pipeline says it does.
(cd build && ctest --output-on-failure -L pass)

echo "== tier 1: compile-service label =="
# The service suite (tests/test_service.cpp) pins the cache semantics the
# daemon's answers depend on: single-flight dedup, LRU/TTL behaviour,
# canonical cache keys, and hit-replays-cold fingerprint identity across
# 1/2/8 dispatcher threads.
(cd build && ctest --output-on-failure -L service)

echo "== tier 1: chaos label =="
# The chaos-hardening suite (tests/test_chaos.cpp): the seeded
# ChaosTransport matrix (mixed-validity traffic x wire faults x 1/2/8
# dispatcher threads, fingerprints pinned against fault-free runs),
# overload shedding, brownout, circuit breakers, and graceful drain.
(cd build && ctest --output-on-failure -L chaos)

echo "== tier 1: qmap_serve drain (process level) =="
# SIGTERM a live daemon mid-stream: exit 0, drain reported, every accepted
# request answered.
scripts/chaos_drain_test.sh build

echo "== tier 1: bridge router + token-swap finisher leg =="
# The BRIDGE router and the token-swapping permutation finisher as their
# own leg: the 4-CX template property tests, the token-swap phase tests,
# and the finisher's end-to-end placement-restoration contract.
(cd build && ctest --output-on-failure -R 'Bridge|TokenSwap')

echo "== tier 1: route_ir label =="
# The data-oriented routing core suite (tests/test_route_ir.cpp): the
# byte-parity matrix pinning every RouteIR-backed router against golden
# pre-refactor fingerprints across devices and seeds, the reliability and
# shuttle pins, the CSR and FrontLayer checked against a naive pairwise
# DAG, arena rewind semantics, and the 1/2/8-thread fingerprint pin.
(cd build && ctest --output-on-failure -L route_ir)

echo "== tier 1: stream label =="
# The streaming compilation suite (tests/test_stream.cpp): incremental
# QASM parsing, streamed-vs-materialized route byte parity across the
# chunk-size matrix, the run_stream golden-fingerprint pin, fallback
# semantics for non-streamable pipeline shapes, and the allocation audit
# of the token-swap finisher splice.
(cd build && ctest --output-on-failure -L stream)

echo "== tier 1: schedule label =="
# The scheduler suite (tests/test_schedule.cpp): the running-window
# constrained scheduler pinned byte-identical to the O(n^2) reference
# loop on Surface-17, Surface-7 and a 5-ion trap, and the window-peak
# bound that fails fast if the window regrows with the circuit.
(cd build && ctest --output-on-failure -L schedule)

echo "== tier 1: pass registry lint =="
# Every registered pass name must be documented in DESIGN.md's pass table.
scripts/check_pass_registry.sh

echo "== tier 1: service metrics lint =="
# Every service.* metric recorded in src/service/ must be documented in
# DESIGN.md's §10 metrics table.
scripts/check_service_metrics.sh

echo "== tier 1: test_engine + test_verify + test_resilience + test_obs + test_pass + test_service + test_chaos under ThreadSanitizer =="
cmake -B build-tsan -S . -DQMAP_SANITIZE=thread
cmake --build build-tsan -j "${JOBS}" --target test_engine test_verify test_resilience test_obs test_pass test_service test_chaos
# TSAN_OPTIONS makes the run fail loudly on the first race report.
# test_verify's fuzzer tests fan compiles across the engine ThreadPool, so
# they double as a race check of the whole compile pipeline;
# test_resilience adds the fault injector's concurrent fired-fault
# recording and the supervisor/portfolio interplay; test_obs hammers the
# sharded trace buffer and metrics registry from concurrent strategies.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_engine
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_verify
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_resilience
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_obs
# test_pass adds the shared-ArchArtifacts concurrent reads and the lazy
# CouplingGraph distance-cache first-use race.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_pass
# The bridge/token-swap property tests re-run under TSan: BridgeRouter
# reads the shared ArchArtifacts distance tables from portfolio threads.
cmake --build build-tsan -j "${JOBS}" --target test_route
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_route \
    --gtest_filter='BridgeRouter.*:TokenSwap.*:RoutingEmitter.Bridge*:RouterProperty*'
# test_service hammers the sharded result cache (single-flight leaders,
# blocking followers, LRU under byte pressure), the round-robin dispatch
# queues, and disconnect-driven cancellation from concurrent clients.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_service
# test_chaos re-runs the full wire-fault matrix and the overload/breaker/
# drain machinery under TSan: brownout hysteresis under the queue lock,
# breaker transitions from dispatcher threads, and drain racing serve().
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_chaos
# The RouteIR thread tests re-run under TSan: per-route thread_local
# arena reuse across portfolio-style worker threads, all routers sharing
# one warmed distance cache — a race here would corrupt routing state
# silently (the fingerprint pin only catches it after the fact).
cmake --build build-tsan -j "${JOBS}" --target test_route_ir
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_route_ir \
    --gtest_filter='RouteIrThreads.*'
# The streaming thread tests re-run under TSan: the bounded PipeStream
# hand-off between a producer thread and the routing thread (chunked
# reader -> router), and the 1/2/8-thread streamed-route digest pin.
cmake --build build-tsan -j "${JOBS}" --target test_stream
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_stream \
    --gtest_filter='StreamThreads.*'

echo "== tier 1: arena-backed suites under ASan+UBSan =="
# The arena hands out raw pointers with manual lifetime (marker rewind,
# block reuse); ASan+UBSan over the full RouteIR suite — parity matrix
# included — catches out-of-bounds SoA/CSR indexing, use-after-rewind,
# and misaligned loads that plain tests cannot see. The constrained
# scheduler (test_schedule), the execution snapshot (test_core) and the
# reliability (test_noise) and shuttle (test_shuttle) routers run on
# RouteIR arena memory too.
cmake -B build-asan -S . -DQMAP_SANITIZE=address
cmake --build build-asan -j "${JOBS}" --target test_route_ir test_schedule \
    test_core test_noise test_shuttle
for suite in test_route_ir test_schedule test_core test_noise test_shuttle; do
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
      "./build-asan/tests/${suite}"
done

echo "tier 1 OK"
