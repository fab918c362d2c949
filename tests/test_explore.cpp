// Workload-aware architecture-search tests ([69], Sec. VII discussion).
#include <gtest/gtest.h>

#include "arch/builtin.hpp"
#include "explore/architecture_search.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

TEST(ArchitectureSearch, SpanningTreeBudgetYieldsConnectedDevice) {
  const std::vector<Circuit> workloads{workloads::ghz(5)};
  ArchitectureSearchOptions options;
  const ArchitectureSearchResult result =
      search_architecture(5, workloads, options);
  EXPECT_TRUE(result.device.artifacts()->connected());
  EXPECT_EQ(result.device.coupling().num_edges(), 4u);  // n - 1
}

TEST(ArchitectureSearch, GhzChainNeedsNoExtraEdges) {
  // GHZ's interaction graph IS a chain: the spanning tree already routes
  // it SWAP-free (with an optimal placement; the greedy placer cannot
  // always find the perfect chain embedding).
  const std::vector<Circuit> workloads{workloads::ghz(6)};
  ArchitectureSearchOptions options;
  options.placer = "exhaustive";
  const ArchitectureSearchResult result =
      search_architecture(6, workloads, options);
  EXPECT_EQ(result.final_cost, 0);
  for (int q = 0; q + 1 < 6; ++q) {
    EXPECT_TRUE(result.device.coupling().connected(q, q + 1));
  }
}

TEST(ArchitectureSearch, ExtraBudgetNeverHurts) {
  Rng rng(3);
  const std::vector<Circuit> workloads{
      workloads::random_circuit(5, 25, rng, 0.5)};
  ArchitectureSearchOptions tree_only;
  const long tree_cost =
      search_architecture(5, workloads, tree_only).final_cost;
  ArchitectureSearchOptions generous;
  generous.edge_budget = 8;
  const ArchitectureSearchResult richer =
      search_architecture(5, workloads, generous);
  EXPECT_LE(richer.final_cost, tree_cost);
  EXPECT_LE(richer.device.coupling().num_edges(), 8u);
}

TEST(ArchitectureSearch, BeatsGenericLineAtEqualBudget) {
  // QFT interacts all-to-all; at a grid-level edge budget the workload-
  // aware topology must not lose to the same-budget line device.
  const std::vector<Circuit> workloads{workloads::qft(6)};
  ArchitectureSearchOptions options;
  options.edge_budget = 7;
  const ArchitectureSearchResult found =
      search_architecture(6, workloads, options);
  Device line = devices::linear(6, GateKind::CZ);
  line.set_native_two_qubit(GateKind::CZ);
  const long line_cost = evaluate_architecture(line, workloads, options);
  EXPECT_LE(found.final_cost, line_cost);
}

TEST(ArchitectureSearch, ValidatesInputs) {
  EXPECT_THROW((void)search_architecture(1, {}, {}), MappingError);
  ArchitectureSearchOptions tight;
  tight.edge_budget = 2;
  EXPECT_THROW((void)search_architecture(5, {}, tight), MappingError);
  const std::vector<Circuit> wide{workloads::ghz(8)};
  EXPECT_THROW((void)search_architecture(4, wide, {}), MappingError);
}

TEST(ArchitectureSearch, EvaluateCountsRoutedCost) {
  // On an all-to-all device every workload routes for free.
  const std::vector<Circuit> workloads{workloads::qft(5)};
  EXPECT_EQ(evaluate_architecture(devices::all_to_all(5, GateKind::CZ),
                                  workloads, {}),
            0);
  // On a line, QFT needs SWAPs.
  EXPECT_GT(evaluate_architecture(devices::linear(5, GateKind::CZ),
                                  workloads, {}),
            0);
}

}  // namespace
}  // namespace qmap
