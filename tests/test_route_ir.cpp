// RouteIR byte-parity and structural tests.
//
// The data-oriented routing core (src/route/route_ir.hpp) re-implements
// the sabre/bridge/astar/qmap inner loops over flat SoA arrays and a CSR
// dependency DAG. The refactor's contract is *byte identity*: every
// RouteIR-backed router must produce exactly the CompilationResult the
// pointer-chasing implementation produced, for every device and seed.
//
// The parity matrix below pins that contract against golden fingerprint
// digests generated from the PRE-refactor routers and checked in under
// tests/golden/route_ir_fingerprints.txt. Do not regenerate them after a
// router change unless the change is an intentional behavior change:
//   QMAP_REGEN_GOLDEN=1 ./build/tests/test_route_ir
// then review and commit the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/builtin.hpp"
#include "arch/noise.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "naive_dag.hpp"
#include "route/route_ir.hpp"
#include "verify/reproducer.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

// --- Parity matrix: router x device x seed -> fingerprint digest ---

const char* const kParityRouters[] = {"sabre", "sabre+commute", "bridge",
                                      "astar", "qmap"};
const char* const kParityDevices[] = {"ibm_qx4", "ibm_qx5", "surface17"};
const std::uint64_t kParitySeeds[] = {1, 2, 3};

// One random workload per seed, wide enough to stress routing on the
// 5-qubit QX4 and identical across all devices.
Circuit parity_circuit(std::uint64_t seed) {
  Rng rng(Rng::derive_stream(0x50A17E, seed));
  return workloads::random_circuit(5, 60, rng, 0.5);
}

std::string parity_case_id(const std::string& router,
                           const std::string& device, std::uint64_t seed) {
  std::string id = router + "@" + device + "#" + std::to_string(seed);
  for (char& c : id) {
    if (c == '+') c = 'P';
  }
  return id;
}

std::string parity_digest(const std::string& router, const Device& device,
                          std::uint64_t seed) {
  CompilerOptions options;
  // The annealing placer consumes the seed, so each seed exercises the
  // router from a genuinely different starting placement.
  options.placer = "annealing";
  options.router = router;
  options.seed = seed;
  const Circuit circuit = parity_circuit(seed);
  const CompilationResult result = Compiler(device, options).compile(circuit);
  return content_digest(result.fingerprint());
}

// Compares `actual` with tests/golden/<file> row for row, or rewrites the
// file when QMAP_REGEN_GOLDEN is set.
void expect_golden_fingerprints(
    const std::string& file, const std::map<std::string, std::string>& actual) {
  const std::string path = std::string(QMAP_GOLDEN_DIR) + "/" + file;
  const char* regen = std::getenv("QMAP_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0') {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const auto& [id, digest] : actual) out << id << ' ' << digest << '\n';
    GTEST_SKIP() << "regenerated " << path;
  }

  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string id;
  std::string digest;
  while (in >> id >> digest) golden[id] = digest;
  ASSERT_FALSE(golden.empty())
      << "no golden fingerprints at " << path
      << " (QMAP_REGEN_GOLDEN=1 generates them)";
  ASSERT_EQ(actual.size(), golden.size());
  for (const auto& [case_id, value] : actual) {
    const auto it = golden.find(case_id);
    ASSERT_NE(it, golden.end()) << "missing golden for " << case_id;
    EXPECT_EQ(value, it->second)
        << case_id << ": router output drifted from the golden fingerprint";
  }
}

TEST(RouteIrParity, MatchesPreRefactorGoldenFingerprints) {
  std::map<std::string, std::string> actual;
  for (const char* router : kParityRouters) {
    for (const char* device : kParityDevices) {
      for (const std::uint64_t seed : kParitySeeds) {
        actual[parity_case_id(router, device, seed)] =
            parity_digest(router, verify::device_by_name(device), seed);
      }
    }
  }
  expect_golden_fingerprints("route_ir_fingerprints.txt", actual);
}

// --- Reliability and shuttle pins: router x device x seed -> digest ---
//
// The two routers outside the parity matrix above, each on the device
// family it needs: `reliability` on Surface-17 with a seeded randomized
// noise model (as tests/test_noise.cpp builds one), `shuttle` on a 3x3
// quantum-dot grid with free sites to move into. Captured before the two
// routers moved onto FrontLayer; their own file, so the 45 rows above
// stay untouched.

Device noisy_surface17() {
  Rng rng(21);
  Device device = devices::surface17();
  device.set_noise(NoiseModel::randomized(device.coupling(), rng, 1e-3, 1e-2,
                                          2e-2));
  return device;
}

TEST(RouteIrParity, ReliabilityAndShuttleMatchGoldenFingerprints) {
  const Device noisy = noisy_surface17();
  const Device dots = devices::quantum_dot_array(3, 3);
  std::map<std::string, std::string> actual;
  for (const std::uint64_t seed : kParitySeeds) {
    actual[parity_case_id("reliability", "noisy_surface17", seed)] =
        parity_digest("reliability", noisy, seed);
    actual[parity_case_id("shuttle", "qdot3x3", seed)] =
        parity_digest("shuttle", dots, seed);
  }
  expect_golden_fingerprints("route_ir_ported_fingerprints.txt", actual);
}

// --- CSR property tests: RouteIR vs the naive pairwise DAG ---

Circuit property_circuit(std::uint64_t seed, int num_qubits = 6,
                         int num_gates = 80) {
  Rng rng(Rng::derive_stream(0xC5A11, seed));
  return workloads::random_circuit(num_qubits, num_gates, rng, 0.5);
}

void expect_csr_matches_dag(const Circuit& circuit, DagMode mode) {
  RouteArena arena;
  const ArenaScope scope(arena);
  const RouteIR ir = RouteIR::build(circuit, mode, arena);
  const NaiveDag dag = naive_dag(circuit, mode);
  ASSERT_EQ(ir.num_gates, dag.preds.size());

  std::size_t total_edges = 0;
  for (std::uint32_t node = 0; node < ir.num_gates; ++node) {
    const std::vector<int>& succs = dag.succs[node];
    const std::uint32_t begin = ir.succ_offsets[node];
    const std::uint32_t end = ir.succ_offsets[node + 1];
    ASSERT_EQ(end - begin, succs.size()) << "successor count of " << node;
    for (std::size_t k = 0; k < succs.size(); ++k) {
      EXPECT_EQ(ir.succ[begin + k], static_cast<std::uint32_t>(succs[k]))
          << "successor " << k << " of node " << node;
    }
    EXPECT_EQ(ir.pred_count[node], dag.preds[node].size())
        << "in-degree of " << node;
    total_edges += succs.size();
  }
  EXPECT_EQ(ir.num_edges(), total_edges);

  // Topological consistency: every edge points forward in program order.
  for (std::uint32_t node = 0; node < ir.num_gates; ++node) {
    for (std::uint32_t e = ir.succ_offsets[node]; e < ir.succ_offsets[node + 1];
         ++e) {
      EXPECT_GT(ir.succ[e], node) << "edge must point forward";
    }
  }

  // SoA records match the circuit, two-qubit index list is ascending.
  for (std::uint32_t node = 0; node < ir.num_gates; ++node) {
    const Gate& gate = circuit.gate(node);
    EXPECT_EQ(ir.gate_kind(node), gate.kind);
    EXPECT_EQ(ir.is_two_qubit(node), gate.is_two_qubit());
    if (!gate.qubits.empty()) {
      EXPECT_EQ(ir.q0[node], static_cast<std::uint32_t>(gate.qubits[0]));
    }
    if (gate.qubits.size() >= 2) {
      EXPECT_EQ(ir.q1[node], static_cast<std::uint32_t>(gate.qubits[1]));
    }
  }
  for (std::uint32_t k = 1; k < ir.num_two_qubit; ++k) {
    EXPECT_LT(ir.two_qubit[k - 1], ir.two_qubit[k]);
  }

  // Front layer == the in-degree-0 set, ascending.
  FrontLayer front(ir, arena);
  const std::vector<int> ready =
      naive_ready(dag, std::vector<bool>(ir.num_gates, false));
  ASSERT_EQ(front.ready_size(), ready.size());
  for (std::uint32_t k = 0; k < front.ready_size(); ++k) {
    EXPECT_EQ(front.ready()[k], static_cast<std::uint32_t>(ready[k]));
    EXPECT_EQ(ir.pred_count[front.ready()[k]], 0u);
  }
}

TEST(RouteIrCsr, MatchesNaiveDagSequential) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_csr_matches_dag(property_circuit(seed), DagMode::Sequential);
  }
}

TEST(RouteIrCsr, MatchesNaiveDagCommutation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_csr_matches_dag(property_circuit(seed), DagMode::Commutation);
  }
}

TEST(RouteIrCsr, HandlesEmptyAndSingleGateCircuits) {
  RouteArena arena;
  const ArenaScope scope(arena);
  const Circuit empty(3);
  const RouteIR ir_empty = RouteIR::build(empty, DagMode::Sequential, arena);
  EXPECT_EQ(ir_empty.num_gates, 0u);
  EXPECT_EQ(ir_empty.num_edges(), 0u);

  Circuit one(2);
  one.cx(0, 1);
  const RouteIR ir_one = RouteIR::build(one, DagMode::Sequential, arena);
  EXPECT_EQ(ir_one.num_gates, 1u);
  EXPECT_EQ(ir_one.num_edges(), 0u);
  EXPECT_EQ(ir_one.num_two_qubit, 1u);
  FrontLayer front(ir_one, arena);
  EXPECT_EQ(front.ready_size(), 1u);
}

// The scheduling walk: drive FrontLayer through a random schedule and
// demand, at every step, the naive ready set (unscheduled gates whose
// predecessors are all scheduled, ascending), in both dependency modes.
void expect_schedule_parity(const Circuit& circuit, DagMode mode,
                            std::uint64_t seed) {
  RouteArena arena;
  const ArenaScope scope(arena);
  const RouteIR ir = RouteIR::build(circuit, mode, arena);
  FrontLayer front(ir, arena);
  const NaiveDag dag = naive_dag(circuit, mode);
  std::vector<bool> scheduled(ir.num_gates, false);
  std::vector<int> ready;
  Rng rng(Rng::derive_stream(0xF207, seed));

  const auto expect_ready_equal = [&] {
    ready = naive_ready(dag, scheduled);
    ASSERT_EQ(front.ready_size(), ready.size());
    std::vector<std::uint32_t> two_expected;
    for (std::uint32_t k = 0; k < front.ready_size(); ++k) {
      ASSERT_EQ(front.ready()[k], static_cast<std::uint32_t>(ready[k]));
      ASSERT_FALSE(front.scheduled(front.ready()[k]));
      if (circuit.gate(static_cast<std::size_t>(ready[k])).is_two_qubit()) {
        two_expected.push_back(static_cast<std::uint32_t>(ready[k]));
      }
    }
    std::vector<std::uint32_t> two(ir.num_two_qubit);
    two.resize(front.ready_two_qubit(two.data()));
    ASSERT_EQ(two, two_expected);
  };

  expect_ready_equal();
  std::uint32_t count = 0;
  while (!front.all_scheduled()) {
    const int node = ready[rng.index(ready.size())];
    front.mark_scheduled(static_cast<std::uint32_t>(node));
    scheduled[static_cast<std::size_t>(node)] = true;
    ++count;
    expect_ready_equal();
    ASSERT_EQ(front.num_scheduled(), count);
  }
  EXPECT_EQ(count, ir.num_gates);

  // reset() restores the post-construction state.
  front.reset();
  std::fill(scheduled.begin(), scheduled.end(), false);
  expect_ready_equal();
  EXPECT_EQ(front.num_scheduled(), 0u);
}

TEST(RouteIrFront, TracksNaiveReadySetThroughRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_schedule_parity(property_circuit(seed), DagMode::Sequential, seed);
    expect_schedule_parity(property_circuit(seed), DagMode::Commutation, seed);
  }
}

TEST(RouteIrFront, MarkScheduledRejectsNonReadyNodes) {
  RouteArena arena;
  const ArenaScope scope(arena);
  Circuit circuit(2);
  circuit.h(0).cx(0, 1);
  const RouteIR ir = RouteIR::build(circuit, DagMode::Sequential, arena);
  FrontLayer front(ir, arena);
  // Node 1 depends on node 0: pending, not ready.
  EXPECT_THROW(front.mark_scheduled(1), CircuitError);
  front.mark_scheduled(0);
  EXPECT_THROW(front.mark_scheduled(0), CircuitError);  // already scheduled
  front.mark_scheduled(1);
  EXPECT_TRUE(front.all_scheduled());
}

// --- RouteArena ---

TEST(RouteArenaTest, MarkerRewindReusesBlocks) {
  RouteArena arena;
  void* first = nullptr;
  {
    const ArenaScope scope(arena);
    first = arena.alloc<std::uint64_t>(100);
  }
  std::size_t reserved = 0;
  for (int round = 0; round < 50; ++round) {
    const ArenaScope scope(arena);
    void* again = arena.alloc<std::uint64_t>(100);
    EXPECT_EQ(again, first) << "rewound arena must hand back the same block";
    (void)arena.alloc<double>(1000);
    if (round == 0) reserved = arena.bytes_reserved();
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved)
      << "steady-state reuse must not grow the arena";
}

TEST(RouteArenaTest, AlignmentAndLargeBlocks) {
  RouteArena arena;
  const ArenaScope scope(arena);
  for (int i = 0; i < 32; ++i) {
    auto* b = arena.alloc<std::uint8_t>(3);
    auto* d = arena.alloc<double>(5);
    auto* u = arena.alloc<std::uint32_t>(7);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(std::uint8_t), 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u) % alignof(std::uint32_t),
              0u);
    b[0] = 1;
    d[4] = 2.0;
    u[6] = 3;
  }
  // Larger than any default block: must still succeed (fresh block).
  auto* big = arena.alloc<std::uint64_t>(1 << 20);
  big[0] = 1;
  big[(1 << 20) - 1] = 2;
  EXPECT_GE(arena.bytes_reserved(), (std::size_t{1} << 23));
}

TEST(RouteArenaTest, NestedScopesRewindInLifoOrder) {
  RouteArena arena;
  const ArenaScope outer(arena);
  auto* keep = arena.alloc<int>(8);
  keep[0] = 42;
  void* inner_ptr = nullptr;
  {
    const ArenaScope inner(arena);
    inner_ptr = arena.alloc<int>(8);
  }
  // The inner allocation is reclaimed; the next alloc reuses its space and
  // the outer allocation is untouched.
  auto* again = arena.alloc<int>(8);
  EXPECT_EQ(static_cast<void*>(again), inner_ptr);
  EXPECT_EQ(keep[0], 42);
}

// --- Concurrent arena reuse: thread-local scratch arenas must make the
// same decisions no matter how many threads route at once. This is the
// test tier1.sh re-runs under TSan. ---

std::vector<std::string> thread_pool_digests(int num_threads) {
  // Each task is one full compile; tasks are striped over the threads so
  // every thread's scratch arena serves several different circuits
  // back-to-back (exercising marker rewind + block reuse between routes).
  const char* const routers[] = {"sabre", "sabre+commute", "bridge", "qmap",
                                 "astar"};
  constexpr int kTasks = 10;
  std::vector<std::string> digests(kTasks);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([t, num_threads, &routers, &digests] {
      for (int task = t; task < kTasks; task += num_threads) {
        digests[static_cast<std::size_t>(task)] = parity_digest(
            routers[task % 5], verify::device_by_name("ibm_qx5"),
            static_cast<std::uint64_t>(task % 3) + 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return digests;
}

TEST(RouteIrThreads, FingerprintsIdenticalAcross1_2_8Threads) {
  const std::vector<std::string> serial = thread_pool_digests(1);
  EXPECT_EQ(thread_pool_digests(2), serial);
  EXPECT_EQ(thread_pool_digests(8), serial);
}

}  // namespace
}  // namespace qmap
