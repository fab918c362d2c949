// Router property tests.
//
// For every (router, device, workload) combination:
//   1. the routed circuit only uses coupling-legal interactions/orientations
//      (after SWAP expansion and direction fixing),
//   2. the routed circuit is unitarily equivalent to the input under the
//      reported initial/final placements,
//   3. routing statistics are internally consistent.
// Plus router-specific guarantees (exact <= heuristics on shared
// instances; naive >= smarter routers on the Fig. 3 example).
#include <gtest/gtest.h>

#include "arch/builtin.hpp"
#include "core/compiler.hpp"
#include "decompose/decomposer.hpp"
#include "layout/placers.hpp"
#include "route/astar_layer.hpp"
#include "route/bridge.hpp"
#include "route/exact.hpp"
#include "route/naive.hpp"
#include "route/qmap_router.hpp"
#include "route/sabre.hpp"
#include "route/token_swap.hpp"
#include "reference_exact.hpp"
#include "sim/equivalence.hpp"
#include "sim/stabilizer.hpp"
#include "verify/validity.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

/// Shared post-condition for every routing result: after SWAP expansion
/// and direction repair the circuit passes the verify-subsystem audit
/// (coupling edges, orientations, measurability) and is unitarily
/// equivalent to the input under the reported placements. Swap-count
/// assertions alone would accept a router that silently corrupts the
/// permutation; this closes that hole. Clifford inputs get the exact
/// tableau check, which stays cheap on the 16- and 17-qubit devices where
/// the state-vector check does not.
void expect_routed_valid_and_equivalent(const Circuit& original,
                                        const Device& device,
                                        const RoutingResult& result) {
  Circuit legal = expand_swaps(result.circuit, device);
  legal = fix_cx_directions(legal, device);
  verify::CheckOptions options;
  options.require_native = false;  // audit happens before gate lowering
  const verify::ValidityReport report =
      verify::ValidityChecker(device, options).check_circuit(legal);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const Circuit unitary = original.unitary_part();
  if (is_clifford_circuit(unitary)) {
    EXPECT_TRUE(clifford_mapping_equivalent(unitary, legal.unitary_part(),
                                            result.initial.wire_to_phys(),
                                            result.final.wire_to_phys()));
    return;
  }
  Rng rng(99);
  EXPECT_TRUE(mapping_equivalent(unitary, legal.unitary_part(),
                                 result.initial.wire_to_phys(),
                                 result.final.wire_to_phys(), rng, 3));
}

struct RouteCase {
  std::string router;
  std::string device;
  std::string workload;
};

std::string case_name(const testing::TestParamInfo<RouteCase>& info) {
  return info.param.router + "_" + info.param.device + "_" +
         info.param.workload;
}

Device get_device(const std::string& name) {
  if (name == "qx4") return devices::ibm_qx4();
  if (name == "qx5") return devices::ibm_qx5();
  if (name == "s17") return devices::surface17();
  if (name == "s7") return devices::surface7();
  if (name == "line5") return devices::linear(5);
  if (name == "grid9") return devices::grid(3, 3);
  throw std::runtime_error("unknown device " + name);
}

Circuit get_workload(const std::string& name) {
  Rng rng(2026);
  if (name == "fig1") return workloads::fig1_example();
  if (name == "ghz4") return workloads::ghz(4);
  if (name == "ghz5") return workloads::ghz(5);
  if (name == "qft4") return workloads::qft(4);
  if (name == "bv4") {
    Circuit c = workloads::bernstein_vazirani({1, 0, 1}).unitary_part();
    return c;
  }
  if (name == "random") return workloads::random_circuit(4, 30, rng, 0.4);
  if (name == "random5") return workloads::random_circuit(5, 40, rng, 0.4);
  throw std::runtime_error("unknown workload " + name);
}

class RouterProperty : public testing::TestWithParam<RouteCase> {};

TEST_P(RouterProperty, RoutedCircuitIsLegalAndEquivalent) {
  const RouteCase& param = GetParam();
  const Device device = get_device(param.device);
  const Circuit circuit = get_workload(param.workload);
  ASSERT_LE(circuit.num_qubits(), device.num_qubits());

  // Route the (un-lowered) circuit directly: routers accept any arity-<=2
  // gates. CPhase on directed devices cannot be direction-fixed, so lower
  // first exactly as the compiler pipeline does.
  const Circuit input = lower_to_device(circuit, device, /*keep_swaps=*/true);
  const Placement initial = GreedyPlacer().place(input, device);
  const auto router = make_router(param.router);
  const RoutingResult result = router->route(input, device, initial);

  // Stats consistency: output SWAPs = routing SWAPs + program SWAPs
  // (e.g. the QFT's final reversal SWAPs are semantic gates, not routing).
  std::size_t program_swaps = 0;
  for (const Gate& gate : input) {
    if (gate.kind == GateKind::SWAP) ++program_swaps;
  }
  std::size_t swap_count = 0;
  for (const Gate& gate : result.circuit) {
    if (gate.kind == GateKind::SWAP) ++swap_count;
  }
  EXPECT_EQ(swap_count, result.added_swaps + program_swaps);
  EXPECT_EQ(result.initial, initial);

  // CX accounting: each BRIDGE contributes exactly 3 extra CXs over the
  // gate it realizes, and nothing else mints or destroys CXs (direction
  // fixes rewrite a CX into H·CX·H, preserving the count).
  std::size_t program_cx = 0;
  for (const Gate& gate : input) {
    if (gate.kind == GateKind::CX) ++program_cx;
  }
  std::size_t routed_cx = 0;
  for (const Gate& gate : result.circuit) {
    if (gate.kind == GateKind::CX) ++routed_cx;
  }
  EXPECT_EQ(routed_cx, program_cx + 3 * result.added_bridges);

  // Legality after SWAP expansion + direction repair.
  Circuit legal = expand_swaps(result.circuit, device);
  legal = fix_cx_directions(legal, device);
  EXPECT_TRUE(respects_coupling(legal, device));

  // Unitary equivalence under the reported placements.
  Rng rng(99);
  EXPECT_TRUE(mapping_equivalent(circuit, legal,
                                 result.initial.wire_to_phys(),
                                 result.final.wire_to_phys(), rng, 3));
}

const char* kRouters[] = {"naive", "sabre", "bridge", "astar", "qmap"};
const char* kDevices[] = {"qx4", "s17", "s7", "line5", "grid9"};
const char* kWorkloads[] = {"fig1", "ghz4", "qft4", "random"};

std::vector<RouteCase> all_cases() {
  std::vector<RouteCase> cases;
  for (const char* router : kRouters) {
    for (const char* device : kDevices) {
      for (const char* workload : kWorkloads) {
        cases.push_back({router, device, workload});
      }
    }
  }
  // Exact router only on the small device (by design).
  for (const char* workload : kWorkloads) {
    cases.push_back({"exact", "qx4", workload});
    cases.push_back({"exact", "line5", workload});
  }
  // Bigger instances for the scalable routers.
  for (const char* router : {"sabre", "bridge", "astar", "qmap"}) {
    cases.push_back({router, "qx5", "random5"});
    cases.push_back({router, "s17", "random5"});
    cases.push_back({router, "qx5", "ghz5"});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, RouterProperty,
                         testing::ValuesIn(all_cases()), case_name);

// --- Router-specific guarantees ---

TEST(ExactRouter, NeverWorseThanHeuristicsOnQx4) {
  // Exact minimality holds w.r.t. the given total gate order, so compare on
  // circuits whose dependency DAG is a chain (each CNOT shares a qubit with
  // its predecessor): there the heuristics have no reordering freedom.
  const Device qx4 = devices::ibm_qx4();
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    Circuit circuit(4, "chain");
    int previous = 0;
    for (int g = 0; g < 10; ++g) {
      int other =
          static_cast<int>(rng.index(static_cast<std::size_t>(3)));
      if (other >= previous) ++other;
      circuit.cx(previous, other);
      previous = other;
    }
    const Placement initial =
        Placement::identity(circuit.num_qubits(), qx4.num_qubits());
    const RoutingResult exact = ExactRouter().route(circuit, qx4, initial);
    expect_routed_valid_and_equivalent(circuit, qx4, exact);
    for (const char* name : {"naive", "sabre", "astar", "qmap"}) {
      const RoutingResult heuristic =
          make_router(name)->route(circuit, qx4, initial);
      EXPECT_LE(exact.added_swaps, heuristic.added_swaps)
          << "exact beat by " << name << " on trial " << trial;
      expect_routed_valid_and_equivalent(circuit, qx4, heuristic);
    }
  }
}

TEST(ExactRouter, ZeroSwapsWhenAlreadyRoutable) {
  const Device line = devices::linear(4);
  Circuit c(4);
  c.cx(0, 1).cx(1, 2).cx(2, 3);
  const RoutingResult result = ExactRouter().route(
      c, line, Placement::identity(4, 4));
  EXPECT_EQ(result.added_swaps, 0u);
  expect_routed_valid_and_equivalent(c, line, result);
}

TEST(ExactRouter, SingleSwapOnLineEndToEnd) {
  // cx(0, 2) on a 3-qubit line needs exactly one SWAP.
  const Device line = devices::linear(3);
  Circuit c(3);
  c.cx(0, 2);
  const RoutingResult result =
      ExactRouter().route(c, line, Placement::identity(3, 3));
  EXPECT_EQ(result.added_swaps, 1u);
  expect_routed_valid_and_equivalent(c, line, result);
}

TEST(ExactRouter, ThrowsWhenStateBudgetExceeded) {
  ExactRouter::Options options;
  options.max_states = 10;
  const Device grid = devices::grid(3, 3);
  Rng rng(5);
  const Circuit circuit = workloads::random_circuit(8, 30, rng, 0.7);
  EXPECT_THROW((void)ExactRouter(options).route(
                   circuit, grid, Placement::identity(8, 9)),
               MappingError);
}

/// The objective ExactRouter minimises: SWAPs first, then CX inversions.
std::size_t exact_cost(const RoutingResult& result) {
  return 1000 * result.added_swaps + result.direction_fixes;
}

TEST(ExactRouter, CostEqualsReferenceDijkstra) {
  struct Case {
    std::string label;
    Device device;
    Circuit circuit;
    Placement initial;
  };
  std::vector<Case> cases;

  // The Fig. 3 suite on QX4 under the paper's trivial placement
  // (bench_fig3_qx4_mapping), lowered as the bench lowers it.
  const Device qx4 = devices::ibm_qx4();
  Rng fig_rng(1234);
  std::vector<Circuit> fig3 = {workloads::fig1_skeleton(),
                               workloads::fig1_example(), workloads::ghz(4),
                               workloads::qft(4), workloads::grover(2, 3)};
  fig3.push_back(workloads::random_circuit(4, 24, fig_rng, 0.5));
  fig3.push_back(workloads::random_circuit(4, 24, fig_rng, 0.5));
  fig3.push_back(workloads::random_circuit(5, 30, fig_rng, 0.5));
  for (const Circuit& circuit : fig3) {
    const Circuit lowered = lower_to_device(circuit, qx4, true);
    cases.push_back({"fig3/" + circuit.name(), qx4, lowered,
                     Placement::identity(lowered.num_qubits(), 5)});
  }

  // Seeded random circuits of up to 5 program qubits after greedy
  // placement. Clifford gates keep the equivalence check cheap on the 16-
  // and 17-qubit devices; the sizes keep the reference search in
  // milliseconds.
  const std::pair<Device, int> families[] = {{qx4, 24},
                                             {devices::linear(5), 20},
                                             {devices::ibm_qx5(), 24},
                                             {devices::surface17(), 24}};
  Rng rng(2718);
  for (const auto& [device, num_gates] : families) {
    for (int trial = 0; trial < 6; ++trial) {
      const int n = 3 + trial % 3;
      const Circuit circuit =
          workloads::random_clifford_circuit(n, num_gates, rng, 0.5);
      cases.push_back({device.name() + "/random" + std::to_string(trial),
                       device, circuit,
                       make_placer("greedy")->place(circuit, device)});
    }
  }

  // Placements wider than one 64-bit key (13 and 17 program qubits at 5
  // bits each on Surface-17, so the highest qubits sit in the second
  // word): six gates on coupling edges, then one between the highest
  // qubit and the highest one at distance 3 from it (15 and 16 on 17
  // qubits, both in the second word), under the identity placement.
  const Device s17 = devices::surface17();
  for (const int n : {13, 17}) {
    Circuit circuit(n, "wide" + std::to_string(n));
    for (const auto& edge : s17.coupling().edges()) {
      if (edge.b < n && circuit.size() < 6) circuit.cz(edge.a, edge.b);
    }
    for (int b = n - 2; b >= 0 && circuit.size() < 7; --b) {
      if (s17.artifacts()->distance(n - 1, b) == 3) circuit.cz(n - 1, b);
    }
    cases.push_back({"surface17/" + circuit.name(), s17, circuit,
                     Placement::identity(n, s17.num_qubits())});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const RoutingResult reference =
        reference_exact_route(c.circuit, c.device, c.initial);
    const RoutingResult exact =
        ExactRouter().route(c.circuit, c.device, c.initial);
    EXPECT_EQ(exact_cost(exact), exact_cost(reference));
    expect_routed_valid_and_equivalent(c.circuit, c.device, exact);
  }
}

TEST(Routers, NaiveIsTheOverheadBaselineOnFig1Skeleton) {
  // Fig. 3: the naive solution "yields a significant overhead", heuristics
  // are "significantly cheaper", the exact result is minimal.
  const Device qx4 = devices::ibm_qx4();
  const Circuit skeleton = workloads::fig1_skeleton();
  const Placement initial =
      Placement::identity(skeleton.num_qubits(), qx4.num_qubits());
  const RoutingResult naive = NaiveRouter().route(skeleton, qx4, initial);
  const RoutingResult exact = ExactRouter().route(skeleton, qx4, initial);
  EXPECT_LE(exact.added_swaps, naive.added_swaps);
  expect_routed_valid_and_equivalent(skeleton, qx4, naive);
  expect_routed_valid_and_equivalent(skeleton, qx4, exact);
}

TEST(Routers, RejectArityThreeGates) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(3);
  c.ccx(0, 1, 2);
  for (const char* name : {"naive", "sabre", "bridge", "astar", "exact",
                           "qmap"}) {
    EXPECT_THROW((void)make_router(name)->route(
                     c, qx4, Placement::identity(3, 5)),
                 MappingError)
        << name;
  }
}

TEST(Routers, RejectOversizedCircuits) {
  const Device qx4 = devices::ibm_qx4();
  const Circuit c = workloads::ghz(6);
  for (const char* name : {"naive", "sabre", "bridge", "astar", "exact",
                           "qmap"}) {
    EXPECT_THROW((void)make_router(name)->route(
                     c, qx4, Placement::identity(6, 6)),
                 MappingError)
        << name;
  }
}

TEST(Routers, EmptyCircuitRoutesToEmpty) {
  const Device s7 = devices::surface7();
  const Circuit c(3, "empty");
  for (const char* name : {"naive", "sabre", "bridge", "astar", "exact",
                           "qmap"}) {
    const RoutingResult result =
        make_router(name)->route(c, s7, Placement::identity(3, 7));
    EXPECT_EQ(result.circuit.size(), 0u) << name;
    EXPECT_EQ(result.added_swaps, 0u) << name;
  }
}

TEST(Routers, SingleQubitOnlyCircuitNeedsNoSwaps) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(4);
  c.h(0).t(1).x(2).rz(0.4, 3);
  for (const char* name : {"naive", "sabre", "bridge", "astar", "exact",
                           "qmap"}) {
    const RoutingResult result =
        make_router(name)->route(c, qx4, Placement::identity(4, 5));
    EXPECT_EQ(result.added_swaps, 0u) << name;
    EXPECT_EQ(result.circuit.size(), c.size()) << name;
    expect_routed_valid_and_equivalent(c, qx4, result);
  }
}

TEST(Routers, MeasurementsSurviveRouting) {
  const Device s7 = devices::surface7();
  Circuit c = workloads::ghz(3);
  c.measure_all();
  const RoutingResult result =
      SabreRouter().route(c, s7, GreedyPlacer().place(c, s7));
  std::size_t measures = 0;
  for (const Gate& gate : result.circuit) {
    if (gate.kind == GateKind::Measure) ++measures;
  }
  EXPECT_EQ(measures, 3u);
  expect_routed_valid_and_equivalent(c, s7, result);
}

// --- BridgeRouter / BRIDGE template ---

TEST(BridgeRouter, EmitsTheFourCxTemplateOnALine) {
  // cx(0, 2) on a 3-qubit line: distance 2, nothing else in the front
  // layer, so the router must bridge instead of swapping — and the
  // template bytes are pinned: CX(c,m) CX(m,t) CX(c,m) CX(m,t).
  const Device line = devices::linear(3);
  Circuit c(3);
  c.cx(0, 2);
  const RoutingResult result =
      BridgeRouter().route(c, line, Placement::identity(3, 3));
  EXPECT_EQ(result.added_bridges, 1u);
  EXPECT_EQ(result.added_swaps, 0u);
  EXPECT_EQ(result.final, result.initial);
  ASSERT_EQ(result.circuit.size(), 4u);
  const int expected[4][2] = {{0, 1}, {1, 2}, {0, 1}, {1, 2}};
  for (std::size_t i = 0; i < 4; ++i) {
    const Gate& gate = result.circuit.gate(i);
    EXPECT_EQ(gate.kind, GateKind::CX) << "gate " << i;
    EXPECT_EQ(gate.qubits[0], expected[i][0]) << "gate " << i;
    EXPECT_EQ(gate.qubits[1], expected[i][1]) << "gate " << i;
  }
  expect_routed_valid_and_equivalent(c, line, result);
}

TEST(BridgeRouter, BridgeLeavesThePlacementAlone) {
  // A lone distance-2 CX must never move qubits: final == initial even
  // though the gate was not directly executable.
  const Device qx5 = devices::ibm_qx5();
  Circuit c(3);
  c.h(0).cx(0, 2).h(2);
  const Placement initial = GreedyPlacer().place(c, qx5);
  const RoutingResult result = BridgeRouter().route(c, qx5, initial);
  if (result.added_swaps == 0) {
    EXPECT_EQ(result.final, result.initial);
  }
  expect_routed_valid_and_equivalent(c, qx5, result);
}

TEST(RoutingEmitter, BridgeIsLegalAndEquivalentOnEveryDistance2Pair) {
  // Property: for every ordered physical pair at hop distance exactly 2
  // on the real devices, emit_bridge produces a coupling-legal 4-CX
  // realization (direction-repaired where needed) equivalent to the
  // direct CX, without touching the placement.
  for (const Device& device :
       {devices::ibm_qx4(), devices::ibm_qx5(), devices::surface17()}) {
    const int n = device.num_qubits();
    const ArchArtifacts& artifacts = *device.artifacts();
    std::size_t pairs = 0;
    for (int c = 0; c < n; ++c) {
      for (int t = 0; t < n; ++t) {
        if (c == t || artifacts.distance(c, t) != 2) continue;
        const std::vector<int> path = artifacts.shortest_path(c, t);
        ASSERT_EQ(path.size(), 3u);
        const Placement identity = Placement::identity(n, n);
        RoutingEmitter emitter(device, identity, "bridge");
        emitter.emit_bridge(c, path[1], t);
        const RoutingResult result = std::move(emitter).finish(identity, 0.0);
        EXPECT_EQ(result.added_bridges, 1u);
        EXPECT_TRUE(respects_coupling(result.circuit, device))
            << device.name() << " Q" << c << "->Q" << t;
        EXPECT_EQ(result.final, result.initial);
        Circuit direct(n);
        direct.cx(c, t);
        // The bridge is Clifford, so the exact tableau oracle applies at
        // any width (QX5/Surface-17 are 16/17 qubits).
        EXPECT_TRUE(clifford_mapping_equivalent(
            direct, result.circuit, identity.wire_to_phys(),
            identity.wire_to_phys()))
            << device.name() << " Q" << c << "->Q" << t;
        ++pairs;
      }
    }
    EXPECT_GT(pairs, 0u) << device.name();
  }
}

TEST(RoutingEmitter, BridgeRejectsIllegalTriples) {
  const Device line = devices::linear(4);
  const Placement identity = Placement::identity(4, 4);
  {  // non-distinct qubits
    RoutingEmitter emitter(line, identity, "t");
    EXPECT_THROW(emitter.emit_bridge(0, 1, 0), MappingError);
  }
  {  // second leg not adjacent
    RoutingEmitter emitter(line, identity, "t");
    EXPECT_THROW(emitter.emit_bridge(0, 1, 3), MappingError);
  }
  {  // control/target adjacent (QX4's 0-1-2 triangle): emit the CX instead
    const Device qx4 = devices::ibm_qx4();
    RoutingEmitter emitter(qx4, Placement::identity(5, 5), "t");
    EXPECT_THROW(emitter.emit_bridge(0, 2, 1), MappingError);
  }
}

// --- Token swapping ---

/// Applies a plan to `start`, asserting every structural invariant along
/// the way: pairs are coupling edges, rounds are vertex-disjoint.
Placement apply_plan(const TokenSwapPlan& plan, const Placement& start,
                     const Device& device) {
  Placement place = start;
  for (const SwapRound& round : plan.rounds) {
    std::vector<bool> touched(
        static_cast<std::size_t>(device.num_qubits()), false);
    for (const auto& [a, b] : round) {
      EXPECT_TRUE(device.coupling().connected(a, b))
          << "Q" << a << ", Q" << b;
      EXPECT_FALSE(touched[static_cast<std::size_t>(a)]) << "Q" << a;
      EXPECT_FALSE(touched[static_cast<std::size_t>(b)]) << "Q" << b;
      touched[static_cast<std::size_t>(a)] = true;
      touched[static_cast<std::size_t>(b)] = true;
      place.apply_swap(a, b);
    }
  }
  return place;
}

void expect_program_wires_home(const Placement& place,
                               const Placement& target) {
  for (int w = 0; w < target.num_program_qubits(); ++w) {
    EXPECT_EQ(place.phys_of_wire(w), target.phys_of_wire(w)) << "wire " << w;
  }
}

TEST(TokenSwap, RestoresRandomPermutationsOnEveryDevice) {
  Rng rng(4242);
  for (const Device& device :
       {devices::ibm_qx4(), devices::surface17(), devices::grid(3, 3),
        devices::linear(5)}) {
    const int n = device.num_qubits();
    for (int trial = 0; trial < 12; ++trial) {
      // Vary the program width so free (don't-care) wires get exercised.
      const int k = 2 + static_cast<int>(rng.index(
                            static_cast<std::size_t>(n - 1)));
      const auto scramble = [&] {
        Placement place = Placement::identity(k, n);
        for (int step = 0; step < 3 * n; ++step) {
          const auto& edge = device.coupling().edges()[rng.index(
              device.coupling().edges().size())];
          place.apply_swap(edge.a, edge.b);
        }
        return place;
      };
      const Placement current = scramble();
      const Placement target = scramble();
      const TokenSwapPlan plan = plan_token_swaps(current, target, device);
      const Placement reached = apply_plan(plan, current, device);
      expect_program_wires_home(reached, target);
    }
  }
}

TEST(TokenSwap, ParallelRoundsBeatTheSequentialChainOnDisjointCycles) {
  // Two disjoint transpositions on a 4-line: one round of two parallel
  // swaps suffices; a sequential chain would serialize them.
  const Device line = devices::linear(4);
  Placement current = Placement::identity(4, 4);
  current.apply_swap(0, 1);
  current.apply_swap(2, 3);
  const Placement target = Placement::identity(4, 4);
  const TokenSwapPlan plan = plan_token_swaps(current, target, line);
  ASSERT_EQ(plan.rounds.size(), 1u);
  EXPECT_EQ(plan.rounds[0].size(), 2u);
  expect_program_wires_home(apply_plan(plan, current, line), target);
}

TEST(TokenSwap, EscapesTheDistance2TranspositionStall) {
  // Swapping the endpoints of a 3-line while the middle stays put: no
  // single swap has positive gain, so the zero-gain escape must engage.
  const Device line = devices::linear(3);
  Placement current = Placement::identity(3, 3);
  current.apply_swap(0, 1);
  current.apply_swap(1, 2);
  current.apply_swap(0, 1);  // net effect: wires 0 and 2 exchanged
  const Placement target = Placement::identity(3, 3);
  const TokenSwapPlan plan = plan_token_swaps(current, target, line);
  EXPECT_GE(plan.escape_swaps, 1u);
  expect_program_wires_home(apply_plan(plan, current, line), target);
}

TEST(TokenSwap, SpanningTreeFallbackAlwaysTerminates) {
  // Escape budget 0 disables phase 2, forcing the spanning-tree sort the
  // moment the greedy stalls; the result must still be correct.
  const Device line = devices::linear(3);
  Placement current = Placement::identity(3, 3);
  current.apply_swap(0, 1);
  current.apply_swap(1, 2);
  current.apply_swap(0, 1);
  const Placement target = Placement::identity(3, 3);
  const TokenSwapPlan plan =
      plan_token_swaps(current, target, line, /*escape_budget=*/0);
  EXPECT_GE(plan.fallback_swaps, 1u);
  expect_program_wires_home(apply_plan(plan, current, line), target);
}

TEST(TokenSwap, IdenticalPlacementsNeedNoSwaps) {
  const Device qx4 = devices::ibm_qx4();
  const Placement identity = Placement::identity(4, 5);
  const TokenSwapPlan plan = plan_token_swaps(identity, identity, qx4);
  EXPECT_TRUE(plan.rounds.empty());
  EXPECT_EQ(plan.total_swaps(), 0u);
}

TEST(TokenSwap, FreeWiresAreDontCares) {
  // One program wire out of place on a 3-line; only its path matters, the
  // free wires may land anywhere.
  const Device line = devices::linear(3);
  Placement current = Placement::identity(1, 3);
  current.apply_swap(0, 1);
  current.apply_swap(1, 2);  // program wire 0 now at phys 2
  const Placement target = Placement::identity(1, 3);
  const TokenSwapPlan plan = plan_token_swaps(current, target, line);
  EXPECT_EQ(plan.total_swaps(), 2u);  // straight walk home, nothing extra
  expect_program_wires_home(apply_plan(plan, current, line), target);
}

TEST(TokenSwap, RejectsMismatchedPlacements) {
  const Device qx4 = devices::ibm_qx4();
  EXPECT_THROW((void)plan_token_swaps(Placement::identity(3, 5),
                                      Placement::identity(3, 7), qx4),
               MappingError);
}

TEST(RoutingEmitter, RefusesNonAdjacentTwoQubitGate) {
  const Device line = devices::linear(3);
  RoutingEmitter emitter(line, Placement::identity(3, 3), "t");
  EXPECT_THROW(emitter.emit_program_gate(make_gate(GateKind::CX, {0, 2})),
               MappingError);
}

TEST(RoutingEmitter, RefusesNonAdjacentSwap) {
  const Device line = devices::linear(3);
  RoutingEmitter emitter(line, Placement::identity(3, 3), "t");
  EXPECT_THROW(emitter.emit_swap(0, 2), MappingError);
}

TEST(RespectsCoupling, DetectsBadOrientation) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(5);
  c.cx(0, 1);  // reversed orientation
  EXPECT_FALSE(respects_coupling(c, qx4));
  Circuit ok(5);
  ok.cx(1, 0);
  EXPECT_TRUE(respects_coupling(ok, qx4));
}

}  // namespace
}  // namespace qmap
