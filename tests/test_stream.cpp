// Streaming compilation tests (`ctest -L stream`).
//
// The out-of-core pipeline's contract is byte identity: every streaming
// component — the chunked OpenQASM reader/writer, the sliding-window
// routers, the windowed pass pipeline — must produce exactly the bytes
// its materialized counterpart produces, for every chunk size. These
// tests pin that contract, plus the line/column diagnostics of the
// incremental parser and the thread-handoff determinism that tier1.sh
// re-runs under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "decompose/decomposer.hpp"
#include "ir/circuit.hpp"
#include "ir/gate_stream.hpp"
#include "layout/placers.hpp"
#include "pass/manager.hpp"
#include "pass/passes.hpp"
#include "qasm/openqasm.hpp"
#include "qasm/stream.hpp"
#include "route/bridge.hpp"
#include "route/router.hpp"
#include "route/sabre.hpp"
#include "verify/reproducer.hpp"
#include "workloads/stream_workloads.hpp"
#include "workloads/workloads.hpp"

// --- Counting global allocator (allocation audits) ---
//
// Replacing the global operator new lets the allocation audits pin heap
// traffic. The postroute audit bounds one PostRoutePass run. The
// token-swap-finisher audit asserts that its allocation count is
// independent of the routed prefix length: the pre-splice pass rebuilt
// the circuit gate-by-gate, costing two allocations per prefix gate (each
// Gate owns its qubit/param vectors). Relaxed atomics keep the threaded
// tests clean under TSan.
namespace {
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

// GCC cannot see that the replaced operator new/delete pair is internally
// consistent (malloc in, free out) and flags every inlined call site.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
// The nothrow form (std::stable_sort's temporary buffer) is replaced too:
// its memory comes back through the operator delete below, and under
// AddressSanitizer a sanitizer-allocated block freed here is reported as
// an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace qmap {
namespace {

Circuit stream_test_circuit(std::uint64_t seed, int num_qubits = 5,
                            int num_gates = 60) {
  Rng rng(Rng::derive_stream(0x57E4, seed));
  Circuit circuit =
      workloads::random_circuit(num_qubits, num_gates, rng, 0.5);
  circuit.measure_all();
  return circuit;
}

// --- OpenQASM istream overload (satellite: parse_openqasm(std::istream&)) ---

TEST(QasmIstream, ParityWithStringParse) {
  const std::string text = to_openqasm(workloads::qft(5));
  const Circuit from_string = parse_openqasm(text);
  std::istringstream in(text);
  const Circuit from_stream = parse_openqasm(in);
  EXPECT_EQ(to_openqasm(from_stream), to_openqasm(from_string));
  EXPECT_EQ(from_stream.num_qubits(), from_string.num_qubits());
  EXPECT_EQ(from_stream.size(), from_string.size());
}

TEST(QasmIstream, MalformedMidStreamReportsLineAndColumn) {
  // The bad statement sits on line 5, after several valid ones — a
  // regression guard for the incremental lexer's position tracking.
  const std::string text =
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "qreg q[3];\n"
      "h q[0];\n"
      "frobnicate q[1];\n"
      "cx q[0], q[2];\n";
  std::istringstream in(text);
  try {
    (void)parse_openqasm(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 5) << e.what();
    EXPECT_GT(e.column(), 0) << e.what();
    EXPECT_NE(std::string(e.what()).find("(line 5"), std::string::npos);
  }
}

TEST(QasmIstream, CommentsDoNotShiftReportedLines) {
  const std::string text =
      "OPENQASM 2.0;\n"
      "// a comment line\n"
      "qreg q[2];\n"
      "// another comment\n"
      "h q[0];\n"
      "cx q[0], q[9];\n";  // out-of-range index on line 6
  std::istringstream in(text);
  try {
    (void)parse_openqasm(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 6) << e.what();
  }
}

TEST(QasmIstream, MissingFinalSemicolonReportsStatementStart) {
  const std::string text =
      "OPENQASM 2.0;\n"
      "qreg q[2];\n"
      "h q[0]";
  std::istringstream in(text);
  try {
    (void)parse_openqasm(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("missing ';'"), std::string::npos);
    EXPECT_EQ(e.line(), 3) << e.what();
  }
}

TEST(QasmIstream, UnterminatedGateDefinitionThrows) {
  const std::string text =
      "OPENQASM 2.0;\n"
      "qreg q[2];\n"
      "gate foo a, b {\n"
      "  cx a, b;\n";
  std::istringstream in(text);
  EXPECT_THROW((void)parse_openqasm(in), ParseError);
}

// --- Chunked OpenQASM source/sink vs the materialized front end ---

TEST(QasmStream, SourceMatchesMaterializedParse) {
  const Circuit circuit = stream_test_circuit(1);
  const std::string text = to_openqasm(circuit);
  const Circuit materialized = parse_openqasm(text);

  std::istringstream in(text);
  QasmStreamSource source(in);
  EXPECT_EQ(source.num_qubits(), materialized.num_qubits());
  EXPECT_EQ(source.num_cbits(), materialized.num_cbits());
  CircuitSink sink(source.num_qubits(), "streamed");
  std::vector<Gate> chunk;
  // A deliberately awkward chunk size so pulls straddle statements.
  while (source.pull(chunk, 7) > 0) {
    sink.put_chunk(chunk);
    chunk.clear();
  }
  EXPECT_EQ(to_openqasm(sink.circuit()), text);
}

TEST(QasmStream, SinkMatchesToOpenqasm) {
  const Circuit circuit = stream_test_circuit(2);
  std::ostringstream out;
  QasmStreamSink sink(out, circuit.num_qubits(), circuit.num_cbits());
  CircuitSource source(circuit);
  std::vector<Gate> chunk;
  while (source.pull(chunk, 5) > 0) {
    sink.put_chunk(chunk);
    chunk.clear();
  }
  sink.flush();
  EXPECT_EQ(out.str(), to_openqasm(circuit));
  EXPECT_EQ(sink.gates_written(), circuit.size());
}

TEST(QasmStream, SinkRejectsUndeclaredClassicalBit) {
  std::ostringstream out;
  QasmStreamSink sink(out, 2, 1);
  Gate measure;
  measure.kind = GateKind::Measure;
  measure.qubits = {1};
  measure.cbit = 1;  // only c[0] declared
  EXPECT_THROW(sink.put(std::move(measure)), CircuitError);
}

// --- In-memory adapters ---

TEST(GateStream, CircuitRoundTripAcrossChunkSizes) {
  const Circuit circuit = stream_test_circuit(3);
  for (const std::size_t chunk_size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{1024}}) {
    CircuitSource source(circuit);
    CircuitSink sink(circuit.num_qubits(), circuit.name());
    std::vector<Gate> chunk;
    while (source.pull(chunk, chunk_size) > 0) {
      sink.put_chunk(chunk);
      chunk.clear();
    }
    EXPECT_EQ(to_openqasm(sink.circuit()), to_openqasm(circuit))
        << "chunk size " << chunk_size;
  }
}

TEST(GateStream, CountingSinkCounts) {
  const Circuit circuit = stream_test_circuit(4);
  std::size_t two_qubit = 0;
  for (const Gate& gate : circuit) {
    if (gate.is_two_qubit()) ++two_qubit;
  }
  CountingSink sink;
  CircuitSource source(circuit);
  std::vector<Gate> chunk;
  while (source.pull(chunk, 13) > 0) {
    sink.put_chunk(chunk);
    chunk.clear();
  }
  EXPECT_EQ(sink.total_gates(), circuit.size());
  EXPECT_EQ(sink.two_qubit_gates(), two_qubit);
}

// --- Streaming route vs materialized route: the byte-parity matrix ---

struct StreamedRoute {
  Circuit circuit;
  StreamRouteStats stats;
};

std::unique_ptr<Router> make_router(const std::string& name) {
  if (name == "bridge") return std::make_unique<BridgeRouter>();
  return std::make_unique<SabreRouter>();
}

StreamedRoute route_streamed(const std::string& router_name,
                             const Circuit& circuit, const Device& device,
                             const Placement& placement,
                             std::size_t chunk_gates) {
  const std::unique_ptr<Router> router = make_router(router_name);
  EXPECT_TRUE(router->supports_streaming());
  CircuitSource source(circuit);
  CircuitSink sink(device.num_qubits(),
                   circuit.name() + "@" + device.name());
  StreamRouteOptions options;
  options.chunk_gates = chunk_gates;
  StreamRouteStats stats =
      router->route_stream(source, device, placement, sink, options);
  return StreamedRoute{std::move(sink).take(), stats};
}

void expect_stream_parity(const std::string& router_name,
                          const Device& device, const Circuit& circuit,
                          std::size_t chunk_gates, const std::string& label) {
  const Placement placement = GreedyPlacer().place(circuit, device);
  const RoutingResult materialized =
      make_router(router_name)->route(circuit, device, placement);
  const StreamedRoute streamed = route_streamed(
      router_name, circuit, device, placement, chunk_gates);

  EXPECT_EQ(to_openqasm(streamed.circuit), to_openqasm(materialized.circuit))
      << label;
  EXPECT_EQ(streamed.stats.added_swaps, materialized.added_swaps) << label;
  EXPECT_EQ(streamed.stats.added_bridges, materialized.added_bridges)
      << label;
  EXPECT_EQ(streamed.stats.direction_fixes, materialized.direction_fixes)
      << label;
  EXPECT_EQ(streamed.stats.gates_in, circuit.size()) << label;
  EXPECT_EQ(streamed.stats.gates_out, streamed.circuit.size()) << label;
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    EXPECT_EQ(streamed.stats.final.phys_of_program(q),
              materialized.final.phys_of_program(q))
        << label << " program qubit " << q;
  }
}

void expect_stream_parity(const std::string& router_name,
                          const std::string& device_name,
                          std::uint64_t seed, std::size_t chunk_gates) {
  Rng rng(Rng::derive_stream(0x50A17E, seed));
  expect_stream_parity(router_name, verify::device_by_name(device_name),
                       workloads::random_circuit(5, 60, rng, 0.5),
                       chunk_gates,
                       router_name + "@" + device_name + "#" +
                           std::to_string(seed) + " chunk=" +
                           std::to_string(chunk_gates));
}

// The chunk sizes of the parity matrix: chunk=1 forces the smallest legal
// window at every step (the invariant is exercised gate by gate); chunk=3
// staggers chunk and statement boundaries; chunk=16 spills the routed
// output mid-circuit in batches; chunk=4096 >= the circuit degenerates to
// materialized.
constexpr std::size_t kParityChunks[] = {1, 3, 16, 4096};
const char* const kStreamRouters[] = {"sabre", "bridge"};

TEST(StreamRouteParity, MatrixMatchesMaterializedRoute) {
  const char* const devices[] = {"ibm_qx4", "ibm_qx5", "surface17"};
  for (const char* router : kStreamRouters) {
    for (const char* device : devices) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const std::size_t chunk : kParityChunks) {
          expect_stream_parity(router, device, seed, chunk);
        }
      }
    }
  }
}

TEST(StreamRouteParity, WideCircuitWithBarriersAndMeasures) {
  // Barriers (including a full-width one) and measures exercise the
  // non-2q scheduling path and the wide-gate successor overflow.
  const Device device = verify::device_by_name("surface17");
  Rng rng(Rng::derive_stream(0xBA44, 7));
  Circuit circuit = workloads::random_circuit(8, 40, rng, 0.5);
  circuit.barrier({0, 1, 2});
  Circuit tail = workloads::random_circuit(8, 40, rng, 0.5);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    circuit.add_unchecked(tail.gate(i));
  }
  circuit.barrier();  // all 8 qubits
  circuit.measure_all();
  const Placement placement = GreedyPlacer().place(circuit, device);
  const RoutingResult materialized =
      SabreRouter().route(circuit, device, placement);
  const StreamedRoute streamed =
      route_streamed("sabre", circuit, device, placement, 2);
  EXPECT_EQ(to_openqasm(streamed.circuit), to_openqasm(materialized.circuit));
}

TEST(StreamRouteParity, LongIdleQubitStretchesThenShrinksTheWindow) {
  // Program qubit 5 is used at the start, then sits idle for 120 gates
  // (more than 4 chunks even at chunk=16) before it is used again:
  // invariant (a) keeps pulling while it is idle, so the window stretches
  // over the whole gap, then shrinks once qubit 5 is busy again. Qubit 5
  // goes idle in the middle of the first flush, and the h(5) past the gap
  // is ready at once: it must be emitted in the next pass, as the
  // materialized route emits it.
  const Device device = verify::device_by_name("ibm_qx5");
  Rng rng(Rng::derive_stream(0x1D7E, 1));
  Circuit circuit(6, "long_idle");
  circuit.h(5).cx(5, 0);
  circuit.append(workloads::random_circuit(5, 120, rng, 0.5));
  circuit.h(5).cx(2, 5);
  circuit.append(workloads::random_circuit(6, 60, rng, 0.5));
  circuit.measure_all();
  for (const char* router : kStreamRouters) {
    for (const std::size_t chunk : kParityChunks) {
      expect_stream_parity(router, device, circuit, chunk,
                           std::string(router) + " long_idle chunk=" +
                               std::to_string(chunk));
    }
  }
}

TEST(StreamRouteParity, MidStreamFullWidthBarriersAndMeasures) {
  // Full-width barriers and measurements in the middle of the stream, with
  // the measured qubits reused afterwards: a full-width barrier waits on
  // every qubit's last toucher and then unlocks all of them at once.
  const Device device = verify::device_by_name("surface17");
  Rng rng(Rng::derive_stream(0xBA45, 2));
  Circuit circuit(8, "mid_barriers");
  for (int block = 0; block < 3; ++block) {
    circuit.append(workloads::random_circuit(8, 30, rng, 0.5));
    circuit.barrier();
    circuit.measure(block, block).measure(7 - block, 7 - block);
    circuit.append(workloads::random_circuit(8, 10, rng, 0.5));
    circuit.barrier();
  }
  circuit.measure_all();
  for (const char* router : kStreamRouters) {
    for (const std::size_t chunk : kParityChunks) {
      expect_stream_parity(router, device, circuit, chunk,
                           std::string(router) + " mid_barriers chunk=" +
                               std::to_string(chunk));
    }
  }
}

TEST(StreamRouteParity, QasmSourceEndToEnd) {
  // QASM text -> chunked parse -> streamed route must equal
  // materialized parse -> materialized route.
  const Device device = verify::device_by_name("ibm_qx5");
  const Circuit circuit = stream_test_circuit(9, 5, 80);
  const std::string text = to_openqasm(circuit);
  const Circuit materialized_parse = parse_openqasm(text);
  const Placement placement =
      GreedyPlacer().place(materialized_parse, device);
  const RoutingResult materialized =
      SabreRouter().route(materialized_parse, device, placement);

  std::istringstream in(text);
  QasmStreamSource source(in);
  CircuitSink sink(device.num_qubits(), "streamed");
  StreamRouteOptions options;
  options.chunk_gates = 5;
  SabreRouter router;
  (void)router.route_stream(source, device, placement, sink, options);
  EXPECT_EQ(to_openqasm(sink.circuit()), to_openqasm(materialized.circuit));
}

TEST(StreamRoute, CommutationModeRefusesToStream) {
  SabreRouter::Options options;
  options.use_commutation = true;
  SabreRouter router(options);
  EXPECT_FALSE(router.supports_streaming());
  const Device device = verify::device_by_name("ibm_qx4");
  const Circuit circuit = stream_test_circuit(1);
  CircuitSource source(circuit);
  CircuitSink sink(device.num_qubits(), "out");
  EXPECT_THROW(router.route_stream(source, device,
                                   GreedyPlacer().place(circuit, device),
                                   sink, StreamRouteOptions{}),
               MappingError);
}

TEST(StreamRoute, RejectsZeroOperandGates) {
  const Device device = verify::device_by_name("ibm_qx4");
  Circuit circuit(2);
  circuit.h(0);
  Gate empty_barrier;
  empty_barrier.kind = GateKind::Barrier;
  circuit.add_unchecked(std::move(empty_barrier));
  CircuitSource source(circuit);
  CircuitSink sink(device.num_qubits(), "out");
  SabreRouter router;
  EXPECT_THROW(router.route_stream(source, device,
                                   GreedyPlacer().place(circuit, device),
                                   sink, StreamRouteOptions{}),
               MappingError);
}

TEST(StreamRoute, RejectsWideNonBarrierGates) {
  const Device device = verify::device_by_name("surface17");
  Circuit circuit(3);
  circuit.ccx(0, 1, 2);
  CircuitSource source(circuit);
  CircuitSink sink(device.num_qubits(), "out");
  SabreRouter router;
  EXPECT_THROW(router.route_stream(source, device,
                                   GreedyPlacer().place(circuit, device),
                                   sink, StreamRouteOptions{}),
               MappingError);
}

TEST(StreamRoute, WindowPeakStaysBoundedOnLongCircuits) {
  // 20x the gates must not mean 20x the window: the resident high-water
  // mark is a function of the circuit's qubit-reuse distance, not its
  // length, since every pull drops the scheduled gates from the window.
  const Device device = verify::device_by_name("ibm_qx5");
  StreamRouteOptions options;
  options.chunk_gates = 64;
  std::size_t peak_short = 0;
  std::size_t peak_long = 0;
  for (const int repeats : {50, 1000}) {
    Circuit block = workloads::qft(8, /*with_swaps=*/false);
    Circuit circuit(8, "repeated_qft");
    for (int r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < block.size(); ++i) {
        circuit.add_unchecked(block.gate(i));
      }
    }
    CircuitSource source(circuit);
    CountingSink sink;
    SabreRouter router;
    const StreamRouteStats stats = router.route_stream(
        source, device, GreedyPlacer().place(circuit, device), sink,
        options);
    EXPECT_EQ(stats.gates_in, circuit.size());
    (repeats == 50 ? peak_short : peak_long) = stats.window_peak_gates;
  }
  EXPECT_LE(peak_long, 2 * peak_short)
      << "window must not scale with circuit length";
}

// --- Thread determinism: the TSan target ---

std::vector<std::string> stream_route_digests(int num_threads) {
  const char* const routers[] = {"sabre", "bridge"};
  constexpr int kTasks = 12;
  std::vector<std::string> digests(kTasks);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([t, num_threads, &routers, &digests] {
      for (int task = t; task < kTasks; task += num_threads) {
        const Device device = verify::device_by_name("ibm_qx5");
        Rng rng(Rng::derive_stream(
            0x50A17E, static_cast<std::uint64_t>(task % 3) + 1));
        const Circuit circuit =
            workloads::random_circuit(5, 60, rng, 0.5);
        const Placement placement =
            GreedyPlacer().place(circuit, device);
        CircuitSource source(circuit);
        CircuitSink sink(device.num_qubits(), "out");
        StreamRouteOptions options;
        options.chunk_gates = 8;
        const StreamRouteStats stats =
            make_router(routers[task % 2])
                ->route_stream(source, device, placement, sink, options);
        digests[static_cast<std::size_t>(task)] =
            content_digest(to_openqasm(sink.circuit()) + "#" +
                           std::to_string(stats.added_swaps) + "#" +
                           std::to_string(stats.added_bridges));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return digests;
}

TEST(StreamThreads, RouteDigestsIdenticalAcross1_2_8Threads) {
  const std::vector<std::string> serial = stream_route_digests(1);
  EXPECT_EQ(stream_route_digests(2), serial);
  EXPECT_EQ(stream_route_digests(8), serial);
}

// --- Chunk-wise decompose: StreamingLowerer vs lower_to_device ---

TEST(StreamPass, StreamingLowererMatchesBatchAcrossChunks) {
  for (const char* device_name : {"ibm_qx4", "ibm_qx5"}) {
    const Device device = verify::device_by_name(device_name);
    for (const bool keep_swaps : {false, true}) {
      const Circuit circuit = stream_test_circuit(11, 5, 120);
      const Circuit batch = lower_to_device(circuit, device, keep_swaps);
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                      std::size_t{64}, std::size_t{1000}}) {
        StreamingLowerer lowerer(device, circuit.num_qubits(), keep_swaps);
        Circuit out(circuit.num_qubits(), circuit.name());
        std::vector<Gate> gates;
        for (std::size_t i = 0; i < circuit.size(); i += chunk) {
          gates.clear();
          for (std::size_t j = i; j < std::min(i + chunk, circuit.size());
               ++j) {
            gates.push_back(circuit.gate(j));
          }
          lowerer.lower_chunk(gates, out);
        }
        lowerer.finish(out);
        EXPECT_EQ(to_openqasm(out), to_openqasm(batch))
            << device_name << " keep_swaps=" << keep_swaps
            << " chunk=" << chunk;
      }
    }
  }
}

// --- Pass-layer streaming: PassManager::run_stream ---

PipelineSpec streamed_spec(const std::string& router, bool token_swap,
                           bool tail) {
  PipelineSpec spec;
  spec.append("decompose");
  Json placer_options;
  placer_options["algorithm"] = Json(std::string("identity"));
  spec.append("placer", std::move(placer_options));
  Json router_options;
  router_options["algorithm"] = Json(std::string(router));
  spec.append("router", std::move(router_options));
  if (token_swap) spec.append("token_swap_finisher");
  if (tail) {
    spec.append("postroute");
    spec.append("schedule");
  }
  return spec;
}

// Fully out-of-core path: identity placer, streamed decompose + route (+
// token-swap cleanup), no materialized tail. The sink's gate stream and
// every scalar the result carries must match the materialized pipeline.
TEST(StreamPass, FullyStreamedMatchesMaterialized) {
  const Device device = verify::device_by_name("ibm_qx5");
  for (const char* router : {"sabre", "bridge"}) {
    for (const bool token_swap : {false, true}) {
      const PassManager manager(streamed_spec(router, token_swap, false));
      const PipelineRuntime runtime;
      const Circuit circuit = stream_test_circuit(9);
      const CompilationResult materialized =
          manager.run(circuit, device, runtime);
      for (const std::size_t chunk :
           {std::size_t{7}, std::size_t{64}, std::size_t{4096}}) {
        const std::string label = std::string(router) +
                                  " token_swap=" + std::to_string(token_swap) +
                                  " chunk=" + std::to_string(chunk);
        CircuitSource source(circuit);
        CircuitSink sink(device.num_qubits(),
                         circuit.name() + "@" + device.name());
        StreamPipelineOptions options;
        options.chunk_gates = chunk;
        const StreamReport report =
            manager.run_stream(source, device, sink, runtime, options);
        EXPECT_TRUE(report.stream.streamed_route) << label;
        EXPECT_TRUE(report.stream.materialized_passes.empty()) << label;
        EXPECT_EQ(report.stream.gates_in, circuit.size()) << label;
        const Circuit streamed = std::move(sink).take();
        EXPECT_EQ(report.stream.gates_out, streamed.size()) << label;
        EXPECT_EQ(to_openqasm(streamed),
                  to_openqasm(materialized.routing.circuit))
            << label;
        EXPECT_EQ(report.result.baseline_cycles, materialized.baseline_cycles)
            << label;
        EXPECT_EQ(report.result.routing.added_swaps,
                  materialized.routing.added_swaps)
            << label;
        EXPECT_EQ(report.result.routing.added_bridges,
                  materialized.routing.added_bridges)
            << label;
        for (int q = 0; q < circuit.num_qubits(); ++q) {
          EXPECT_EQ(report.result.routing.final.phys_of_program(q),
                    materialized.routing.final.phys_of_program(q))
              << label << " program qubit " << q;
        }
      }
    }
  }
}

// Streamed head + materialized tail: postroute/schedule collect the routed
// stream, and the sink receives the final circuit.
TEST(StreamPass, PostrouteTailMatchesMaterialized) {
  const Device device = verify::device_by_name("ibm_qx5");
  const PassManager manager(streamed_spec("sabre", true, true));
  const PipelineRuntime runtime;
  const Circuit circuit = stream_test_circuit(12);
  const CompilationResult materialized = manager.run(circuit, device, runtime);
  CircuitSource source(circuit);
  CircuitSink sink(device.num_qubits(), circuit.name() + "@" + device.name());
  const StreamReport report =
      manager.run_stream(source, device, sink, runtime);
  EXPECT_TRUE(report.stream.streamed_route);
  EXPECT_EQ(report.stream.materialized_passes,
            (std::vector<std::string>{"postroute", "schedule"}));
  EXPECT_EQ(to_openqasm(std::move(sink).take()),
            to_openqasm(materialized.final_circuit));
  EXPECT_EQ(report.result.scheduled_cycles, materialized.scheduled_cycles);
  EXPECT_EQ(report.result.baseline_cycles, materialized.baseline_cycles);
  EXPECT_EQ(report.result.final_metrics.two_qubit_gates,
            materialized.final_metrics.two_qubit_gates);
}

// StreamStats::stage_ms accounts for a whole run: the per-stage self
// times sum to run_stream's wall time within 5%. QASM text in and out, so
// parsing and emitting are in the run; three streamed shapes (with and
// without a materialized tail, with and without the token-swap finisher)
// and the materialized one.
TEST(StreamPass, StageTimesSumToWallTime) {
  const Device device = verify::device_by_name("ibm_qx5");
  Rng rng(Rng::derive_stream(0x57A6E, 1));
  const std::string text =
      to_openqasm(workloads::random_clifford_circuit(16, 8000, rng));
  struct Shape {
    const char* label;
    PipelineSpec spec;
    bool streamed;
  };
  const std::vector<Shape> shapes = {
      {"streamed, postroute+schedule tail", streamed_spec("sabre", true, true),
       true},
      {"streamed, no tail", streamed_spec("sabre", true, false), true},
      {"streamed, no finisher", streamed_spec("sabre", false, false), true},
      {"materialized", PipelineSpec::standard("greedy", "sabre"), false}};
  for (const Shape& shape : shapes) {
    const PassManager manager(shape.spec);
    std::istringstream in(text);
    QasmStreamSource source(in, "stage-times");
    std::ostringstream out;
    QasmStreamSink sink(out, device.num_qubits(), source.num_cbits());
    const auto start = std::chrono::steady_clock::now();
    const StreamReport report =
        manager.run_stream(source, device, sink, PipelineRuntime{});
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const StreamStageTimes& t = report.stream.stage_ms;
    EXPECT_EQ(report.stream.streamed_route, shape.streamed) << shape.label;
    for (const double ms :
         {t.source_ms, t.decompose_ms, t.placer_ms, t.route_ms,
          t.token_swap_ms, t.collect_ms, t.postroute_ms, t.schedule_ms,
          t.sink_ms}) {
      EXPECT_GE(ms, 0.0) << shape.label;
    }
    EXPECT_GT(t.source_ms, 0.0) << shape.label;
    EXPECT_GT(t.decompose_ms, 0.0) << shape.label;
    EXPECT_GT(t.route_ms, 0.0) << shape.label;
    EXPECT_GT(t.sink_ms, 0.0) << shape.label;
    EXPECT_LE(t.total_ms(), wall_ms) << shape.label;
    EXPECT_GE(t.total_ms(), 0.95 * wall_ms)
        << shape.label << ": stages sum to " << t.total_ms() << " ms of a "
        << wall_ms << " ms run (source " << t.source_ms << ", decompose "
        << t.decompose_ms << ", placer " << t.placer_ms << ", route "
        << t.route_ms << ", token swap " << t.token_swap_ms << ", collect "
        << t.collect_ms << ", postroute " << t.postroute_ms << ", schedule "
        << t.schedule_ms << ", sink " << t.sink_ms << ")";
  }
}

// The golden fingerprint matrix (tests/golden/route_ir_fingerprints.txt)
// pins run_stream against the pre-refactor Compiler byte-for-byte. The
// annealing placer needs the whole circuit, so every row runs the
// materialized shape (drain the source, PassManager::run, push the
// product) and must reproduce the exact CompilationResult fingerprint.
std::map<std::string, std::string> load_stream_golden() {
  std::map<std::string, std::string> out;
  std::ifstream in(std::string(QMAP_GOLDEN_DIR) + "/route_ir_fingerprints.txt");
  std::string id;
  std::string digest;
  while (in >> id >> digest) out[id] = digest;
  return out;
}

std::string stream_golden_id(const std::string& router,
                             const std::string& device, std::uint64_t seed) {
  std::string id = router + "@" + device + "#" + std::to_string(seed);
  for (char& c : id) {
    if (c == '+') c = 'P';
  }
  return id;
}

TEST(StreamPass, FingerprintMatchesGoldenMatrix) {
  const std::map<std::string, std::string> golden = load_stream_golden();
  ASSERT_FALSE(golden.empty());
  for (const char* router : {"sabre", "bridge", "sabre+commute"}) {
    for (const char* device_name : {"ibm_qx4", "ibm_qx5", "surface17"}) {
      const Device device = verify::device_by_name(device_name);
      for (const std::uint64_t seed : {1, 2, 3}) {
        const std::string id = stream_golden_id(router, device_name, seed);
        const PassManager manager(PipelineSpec::standard("annealing", router));
        PipelineRuntime runtime;
        runtime.seed = seed;
        Rng rng(Rng::derive_stream(0x50A17E, seed));
        const Circuit circuit = workloads::random_circuit(5, 60, rng, 0.5);
        CircuitSource source(circuit);
        CountingSink sink;
        const StreamReport report =
            manager.run_stream(source, device, sink, runtime);
        const auto it = golden.find(id);
        ASSERT_NE(it, golden.end()) << id;
        EXPECT_EQ(content_digest(report.result.fingerprint()), it->second)
            << id << ": run_stream drifted from the materialized pipeline";
        EXPECT_FALSE(report.stream.streamed_route) << id;
        EXPECT_EQ(report.stream.gates_in, circuit.size()) << id;
        EXPECT_EQ(sink.total_gates(), report.stream.gates_out) << id;
      }
    }
  }
}

// Non-standard pipeline shapes (here: a repeated pass) run materialized
// and still deliver the product to the sink.
TEST(StreamPass, NonStandardShapeFallsBackToMaterialized) {
  const Device device = verify::device_by_name("ibm_qx5");
  PipelineSpec spec;
  spec.append("decompose");
  spec.append("placer");
  spec.append("placer");
  spec.append("router");
  const PassManager manager(spec);
  const PipelineRuntime runtime;
  const Circuit circuit = stream_test_circuit(13);
  const CompilationResult materialized = manager.run(circuit, device, runtime);
  CircuitSource source(circuit);
  CircuitSink sink(device.num_qubits(), circuit.name() + "@" + device.name());
  const StreamReport report =
      manager.run_stream(source, device, sink, runtime);
  EXPECT_FALSE(report.stream.streamed_route);
  EXPECT_EQ(report.stream.materialized_passes,
            (std::vector<std::string>{"decompose", "placer", "placer",
                                      "router"}));
  EXPECT_EQ(to_openqasm(std::move(sink).take()),
            to_openqasm(materialized.routing.circuit));
}

// A router without a placer must fail with the same error the materialized
// pipeline raises.
TEST(StreamPass, RouterWithoutPlacerThrows) {
  const Device device = verify::device_by_name("ibm_qx4");
  PipelineSpec spec;
  spec.append("decompose");
  spec.append("router");
  const PassManager manager(spec);
  const PipelineRuntime runtime;
  const Circuit circuit = stream_test_circuit(14);
  CircuitSource source(circuit);
  CountingSink sink;
  try {
    (void)manager.run_stream(source, device, sink, runtime);
    FAIL() << "expected MappingError";
  } catch (const MappingError& error) {
    EXPECT_NE(std::string(error.what()).find("needs an initial placement"),
              std::string::npos);
  }
}

// A million-gate-shaped workload (repeated blocks) streams end-to-end with
// a bounded window: nothing materialized, window peak far below the
// stream length.
TEST(StreamPass, RepeatedBlockWorkloadStreamsOutOfCore) {
  const Device device = verify::device_by_name("ibm_qx5");
  workloads::RepeatedBlockSource source = workloads::qft_stream(8, 20000);
  const std::size_t total = source.total_gates();
  ASSERT_GE(total, 20000u);
  const PassManager manager(streamed_spec("sabre", true, false));
  const PipelineRuntime runtime;
  CountingSink sink;
  StreamPipelineOptions options;
  options.chunk_gates = 512;
  const StreamReport report =
      manager.run_stream(source, device, sink, runtime, options);
  EXPECT_EQ(report.stream.gates_in, total);
  EXPECT_TRUE(report.stream.streamed_route);
  EXPECT_TRUE(report.stream.materialized_passes.empty());
  EXPECT_EQ(report.stream.gates_out, sink.total_gates());
  EXPECT_GT(sink.total_gates(), total / 2);
  EXPECT_GT(report.stream.window_peak_gates, 0u);
  EXPECT_LT(report.stream.window_peak_gates, total / 4);
}

// --- Allocation audit: the token-swap finisher splices, never copies ---

std::size_t token_swap_finisher_allocations(std::size_t prefix_gates) {
  const Device device = verify::device_by_name("ibm_qx5");
  Circuit routed(device.num_qubits(), "tsf-alloc");
  for (std::size_t i = 0; i < prefix_gates; ++i) {
    const int a = static_cast<int>(i % 4);
    routed.cx(a, a + 1);
  }
  for (int q = 0; q < 4; ++q) routed.measure(q, q);
  const Circuit input(device.num_qubits(), "tsf-alloc-input");
  CompileContext ctx(input, device, PipelineRuntime{});
  ctx.placed = true;
  ctx.routed = true;
  ctx.result.routing.circuit = std::move(routed);
  ctx.result.routing.initial =
      Placement::identity(device.num_qubits(), device.num_qubits());
  ctx.result.routing.final = ctx.result.routing.initial;
  ctx.result.routing.final.apply_swap(0, 1);
  ctx.result.routing.final.apply_swap(5, 6);
  TokenSwapFinisherPass pass;
  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  pass.run(ctx);
  return g_allocation_count.load(std::memory_order_relaxed) - before;
}

TEST(StreamAlloc, TokenSwapFinisherAllocationsIndependentOfPrefix) {
  // Warm up any lazy one-time initialization (device tables, artifacts).
  (void)token_swap_finisher_allocations(16);
  const std::size_t small = token_swap_finisher_allocations(128);
  const std::size_t large = token_swap_finisher_allocations(64 * 1024);
  EXPECT_GT(small, 0u);
  // The pre-splice pass copied the prefix gate-by-gate (>= 2 allocations
  // per gate); the spliced pass costs O(cleanup swaps + suffix).
  EXPECT_LE(large, small + 16);
}

// --- Allocation audit: one postroute run over one gate buffer ---

std::size_t postroute_allocations(const Device& device) {
  const Circuit lowered =
      lower_to_device(workloads::qft(16), device, /*keep_swaps=*/true);
  const Placement initial = GreedyPlacer().place(lowered, device);
  const Circuit input(device.num_qubits(), "postroute-alloc");
  CompileContext ctx(input, device, PipelineRuntime{});
  ctx.placed = true;
  ctx.routed = true;
  ctx.result.routing = make_router("sabre")->route(lowered, device, initial);
  PostRoutePass pass;
  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  pass.run(ctx);
  return g_allocation_count.load(std::memory_order_relaxed) - before;
}

TEST(StreamAlloc, PostrouteAllocationsStayBelowAThirdOfTheCopyChain) {
  // Counts of the seven-copy chain the one-buffer pass replaced (peephole
  // fixpoints rebuilt an optional<Gate> vector per iteration, and every
  // fused or lowered single-qubit gate built several heap matrices). The
  // one-buffer chain measured 7,579 and 5,153.
  constexpr std::size_t kCopyChainSurface17 = 58119;
  constexpr std::size_t kCopyChainQx5 = 42315;
  const std::size_t surface17 =
      postroute_allocations(verify::device_by_name("surface17"));
  const std::size_t qx5 =
      postroute_allocations(verify::device_by_name("ibm_qx5"));
  EXPECT_LE(surface17, kCopyChainSurface17 / 3);
  EXPECT_LE(qx5, kCopyChainQx5 / 3);
}

}  // namespace
}  // namespace qmap
