// Placement and initial-placer tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "arch/builtin.hpp"
#include "common/error.hpp"
#include "core/compiler.hpp"
#include "layout/placement.hpp"
#include "layout/placers.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

TEST(Placement, IdentityBijection) {
  const Placement p = Placement::identity(3, 5);
  EXPECT_EQ(p.num_program_qubits(), 3);
  EXPECT_EQ(p.num_physical_qubits(), 5);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(p.phys_of_program(k), k);
  EXPECT_EQ(p.program_at_phys(4), -1);  // free (the paper's special value)
  EXPECT_EQ(p.wire_at_phys(4), 4);
}

TEST(Placement, FromProgramMapFillsFreeWires) {
  const Placement p = Placement::from_program_map({4, 0}, 5);
  EXPECT_EQ(p.phys_of_program(0), 4);
  EXPECT_EQ(p.phys_of_program(1), 0);
  EXPECT_EQ(p.program_at_phys(4), 0);
  EXPECT_EQ(p.program_at_phys(1), -1);
  // Free wires occupy remaining physical qubits in ascending order.
  EXPECT_EQ(p.phys_of_wire(2), 1);
  EXPECT_EQ(p.phys_of_wire(3), 2);
  EXPECT_EQ(p.phys_of_wire(4), 3);
}

TEST(Placement, RejectsInvalidMaps) {
  EXPECT_THROW((void)Placement::from_program_map({0, 0}, 3), MappingError);
  EXPECT_THROW((void)Placement::from_program_map({5}, 3), MappingError);
  EXPECT_THROW((void)Placement::identity(4, 3), MappingError);
}

TEST(Placement, ApplySwapExchangesWires) {
  Placement p = Placement::identity(2, 3);
  p.apply_swap(0, 2);
  EXPECT_EQ(p.phys_of_program(0), 2);
  EXPECT_EQ(p.program_at_phys(0), -1);
  EXPECT_EQ(p.wire_at_phys(0), 2);
  p.apply_swap(0, 2);  // undo
  EXPECT_EQ(p, Placement::identity(2, 3));
}

TEST(Placement, PhysToProgramArrayMatchesPaperShape) {
  const Placement p = Placement::from_program_map({1, 2}, 4);
  const std::vector<int> array = p.phys_to_program();
  EXPECT_EQ(array, (std::vector<int>{-1, 0, 1, -1}));
}

TEST(InteractionGraph, CountsTwoQubitGates) {
  const InteractionGraph graph(workloads::fig1_example());
  EXPECT_EQ(graph.weight(2, 3), 2);  // cx(2,3) appears twice
  EXPECT_EQ(graph.weight(3, 2), 2);  // symmetric
  EXPECT_EQ(graph.weight(0, 1), 1);
  EXPECT_EQ(graph.weight(0, 3), 0);
  EXPECT_EQ(graph.degree(2), 4);     // cx(2,3) x2, cx(1,2), cx(0,2)
  EXPECT_EQ(graph.edges().size(), 4u);
}

TEST(PlacementCost, ZeroWhenAllPairsAdjacent) {
  const Device line = devices::linear(4);
  Circuit c(3);
  c.cx(0, 1).cx(1, 2);
  const InteractionGraph graph(c);
  EXPECT_EQ(placement_cost(graph, Placement::identity(3, 4), line), 0);
  // Move q2 away: distance 2 -> cost 1.
  EXPECT_EQ(placement_cost(graph, Placement::from_program_map({0, 1, 3}, 4),
                           line),
            1);
}

class PlacerValidity : public testing::TestWithParam<const char*> {};

TEST_P(PlacerValidity, ProducesValidPlacements) {
  const auto placer = make_placer(GetParam());
  for (const Device& device :
       {devices::ibm_qx4(), devices::surface17(), devices::grid(3, 3)}) {
    const Circuit circuit = workloads::fig1_example();
    const Placement placement = placer->place(circuit, device);
    EXPECT_EQ(placement.num_program_qubits(), circuit.num_qubits());
    EXPECT_EQ(placement.num_physical_qubits(), device.num_qubits());
    // Bijectivity over all wires.
    std::vector<bool> seen(static_cast<std::size_t>(device.num_qubits()),
                           false);
    for (int w = 0; w < device.num_qubits(); ++w) {
      const int phys = placement.phys_of_wire(w);
      EXPECT_FALSE(seen[static_cast<std::size_t>(phys)]);
      seen[static_cast<std::size_t>(phys)] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlacers, PlacerValidity,
                         testing::Values("identity", "greedy", "exhaustive",
                                         "annealing"),
                         [](const auto& info) { return info.param; });

TEST(Placers, ExhaustiveIsOptimal) {
  // Exhaustive must lower-bound every other placer on the shared objective.
  for (const Device& device : {devices::ibm_qx4(), devices::surface7()}) {
    Rng rng(3);
    for (int trial = 0; trial < 4; ++trial) {
      const Circuit circuit = workloads::random_circuit(4, 14, rng, 0.6);
      const InteractionGraph graph(circuit);
      const long best =
          placement_cost(graph, ExhaustivePlacer().place(circuit, device),
                         device);
      for (const char* other : {"identity", "greedy", "annealing"}) {
        const long cost = placement_cost(
            graph, make_placer(other)->place(circuit, device), device);
        EXPECT_LE(best, cost) << other << " beat exhaustive";
      }
    }
  }
}

TEST(Placers, GreedyPutsHotQubitNearCenter) {
  // On a line, the most-connected qubit should not land on an endpoint.
  const Device line = devices::linear(7);
  Circuit c(4);
  c.cx(0, 1).cx(0, 2).cx(0, 3);  // star centred on q0
  const Placement p = GreedyPlacer().place(c, line);
  EXPECT_NE(p.phys_of_program(0), 0);
  EXPECT_NE(p.phys_of_program(0), 6);
}

TEST(Placers, ExhaustiveFindsZeroCostWhenOneExists) {
  // A 4-cycle of interactions embeds perfectly in a 2x2 grid.
  const Device grid = devices::grid(2, 2);
  Circuit c(4);
  c.cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 0);
  const InteractionGraph graph(c);
  const Placement p = ExhaustivePlacer().place(c, grid);
  EXPECT_EQ(placement_cost(graph, p, grid), 0);
}

TEST(Placers, ExhaustiveThrowsWhenTooLarge) {
  ExhaustivePlacer placer(/*max_assignments=*/100);
  const Device grid = devices::grid(4, 4);
  Rng rng(1);
  const Circuit circuit = workloads::random_circuit(8, 20, rng);
  // Exceeding the work limit is resource exhaustion, not a mapping bug:
  // the resilience pipeline reacts by falling back, never by retrying.
  try {
    (void)placer.place(circuit, grid);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::ResourceExhausted);
  }
}

TEST(Placers, AnnealingNeverWorseThanGreedySeed) {
  Rng rng(12);
  for (const Device& device : {devices::surface17(), devices::grid(4, 4)}) {
    const Circuit circuit = workloads::random_circuit(8, 40, rng, 0.5);
    const InteractionGraph graph(circuit);
    const long greedy = placement_cost(
        graph, GreedyPlacer().place(circuit, device), device);
    const long annealed = placement_cost(
        graph, AnnealingPlacer().place(circuit, device), device);
    EXPECT_LE(annealed, greedy);
  }
}

TEST(Placers, RejectOversizedCircuits) {
  const Device qx4 = devices::ibm_qx4();
  const Circuit big = workloads::ghz(7);
  for (const char* name : {"identity", "greedy", "exhaustive", "annealing"}) {
    EXPECT_THROW((void)make_placer(name)->place(big, qx4), MappingError)
        << name;
  }
}

TEST(Factories, UnknownNamesThrow) {
  EXPECT_THROW((void)make_placer("nope"), MappingError);
  EXPECT_THROW((void)make_router("nope"), MappingError);
}

// --- Placer pins: placer x device x width x seed -> full wire map ---
//
// Every row of tests/golden/placer_fingerprints.txt is the complete
// wire_to_phys() of one placement, free wires included (routers start
// from those positions, so they are output bytes too). Annealing is
// pinned at 0, 1, 2, 257 (past the first cancellation poll) and the
// default 20,000 iterations. The two-component device makes greedy split
// an interacting pair across its components, so annealing starts from the
// maximum (disconnected) cost. Regenerate after an intentional change:
//   QMAP_REGEN_GOLDEN=1 ./build/tests/test_layout --gtest_filter='Placers.GoldenFingerprints'

/// Components {0,1,2} and {3,4,5,6}, both lines.
Device two_component_device() {
  CouplingGraph coupling(7);
  coupling.add_edge(0, 1);
  coupling.add_edge(1, 2);
  coupling.add_edge(3, 4);
  coupling.add_edge(4, 5);
  coupling.add_edge(5, 6);
  return Device("split3+4", coupling);
}

std::string wire_map_row(const Placement& placement) {
  std::string row;
  for (const int phys : placement.wire_to_phys()) {
    if (!row.empty()) row += ',';
    row += std::to_string(phys);
  }
  return row;
}

/// The wire map, or the error a placer threw (exhaustive on a device with
/// no feasible placement).
std::string place_row(Placer& placer, const Circuit& circuit,
                      const Device& device) {
  try {
    return wire_map_row(placer.place(circuit, device));
  } catch (const MappingError&) {
    return "MappingError";
  }
}

TEST(Placers, GoldenFingerprints) {
  struct DeviceCase {
    const char* label;
    Device device;
    std::vector<int> widths;
  };
  const std::vector<DeviceCase> cases = {
      {"qx4", devices::ibm_qx4(), {3, 4, 5}},
      {"qx5", devices::ibm_qx5(), {2, 4, 6, 10, 16}},
      {"surface7", devices::surface7(), {3, 5, 7}},
      {"surface17", devices::surface17(), {2, 5, 6, 12, 17}},
      {"linear7", devices::linear(7), {3, 5, 7}},
      {"grid4x4", devices::grid(4, 4), {4, 8, 16}},
      {"split3+4", two_component_device(), {3, 4, 5}},
  };
  const long max_assignments = 5'000'000;  // ExhaustivePlacer's default
  std::map<std::string, std::string> actual;
  int split_greedy_rows = 0;
  int split_escapes = 0;
  for (const DeviceCase& c : cases) {
    for (const int width : c.widths) {
      const std::string shape = "@" + std::string(c.label) + "/w" +
                                std::to_string(width);
      IdentityPlacer identity;
      actual["identity" + shape] = place_row(identity, Circuit(width), c.device);
      double assignments = 1.0;
      for (int i = 0; i < width; ++i) assignments *= c.device.num_qubits() - i;
      for (const std::uint64_t seed : {7ULL, 1009ULL, 7919ULL}) {
        const std::string id = shape + "/s" + std::to_string(seed);
        Rng rng(seed + static_cast<std::uint64_t>(width));
        const Circuit circuit =
            workloads::random_clifford_circuit(width, 20 * width, rng);
        GreedyPlacer greedy;
        actual["greedy" + id] = place_row(greedy, circuit, c.device);
        if (assignments <= static_cast<double>(max_assignments)) {
          ExhaustivePlacer exhaustive(max_assignments);
          actual["exhaustive" + id] = place_row(exhaustive, circuit, c.device);
        }
        for (const int iterations : {0, 1, 2, 257, 20000}) {
          AnnealingPlacer annealing(seed, iterations);
          actual["annealing." + std::to_string(iterations) + id] =
              place_row(annealing, circuit, c.device);
        }
        if (std::string(c.label) == "split3+4") {
          const InteractionGraph graph(circuit);
          const long greedy_cost = placement_cost(
              graph, GreedyPlacer().place(circuit, c.device), c.device);
          if (greedy_cost == std::numeric_limits<long>::max()) {
            ++split_greedy_rows;
            const long annealed_cost = placement_cost(
                graph, AnnealingPlacer(seed).place(circuit, c.device),
                c.device);
            if (annealed_cost < greedy_cost) ++split_escapes;
          }
        }
      }
    }
  }
  // The disconnected-device path must actually be exercised: greedy
  // splits a pair, and annealing finds its way out at least once.
  EXPECT_GT(split_greedy_rows, 0);
  EXPECT_GT(split_escapes, 0);

  const std::string path =
      std::string(QMAP_GOLDEN_DIR) + "/placer_fingerprints.txt";
  const char* regen = std::getenv("QMAP_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0') {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const auto& [id, row] : actual) out << id << ' ' << row << '\n';
    GTEST_SKIP() << "regenerated " << path;
  }
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string id;
  std::string row;
  while (in >> id >> row) golden[id] = row;
  ASSERT_FALSE(golden.empty())
      << "no golden placements at " << path
      << " (QMAP_REGEN_GOLDEN=1 generates them)";
  ASSERT_EQ(actual.size(), golden.size());
  for (const auto& [case_id, value] : actual) {
    const auto it = golden.find(case_id);
    ASSERT_NE(it, golden.end()) << "missing golden for " << case_id;
    EXPECT_EQ(value, it->second)
        << case_id << ": placement drifted from the golden wire map";
  }
}

}  // namespace
}  // namespace qmap
