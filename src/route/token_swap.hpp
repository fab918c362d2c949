// Token swapping for final-permutation cleanup ("On the qubit routing
// problem", Cowtan et al.): given where the routed circuit left every wire
// and where it should end up, synthesize the correcting permutation as
// rounds of *disjoint* SWAPs that can run in parallel, instead of the
// sequential chain a naive cycle decomposition emits.
//
// Three phases, first one that finishes wins:
//   1. greedy rounds — repeatedly pick the highest-gain SWAP among edges
//      whose endpoints are untouched this round (gain = total program-token
//      distance reduction; free wires are don't-care tokens),
//   2. zero-gain escapes — when no positive-gain SWAP exists (e.g. a
//      distance-2 transposition on a path), advance the lowest-index
//      misplaced token one hop toward home, under a budget,
//   3. spanning-tree sort — a guaranteed-terminating O(n^2)-swap fallback
//      that homes tokens onto BFS-tree leaves deepest-first.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "arch/device.hpp"
#include "ir/gate.hpp"
#include "layout/placement.hpp"

namespace qmap {

/// One parallel round of SWAPs; the pairs are vertex-disjoint and each pair
/// (a, b) with a < b is an edge of the device coupling graph.
using SwapRound = std::vector<std::pair<int, int>>;

struct TokenSwapPlan {
  std::vector<SwapRound> rounds;
  std::size_t greedy_swaps = 0;    // phase-1 positive-gain swaps
  std::size_t escape_swaps = 0;    // phase-2 zero-gain escape swaps
  std::size_t fallback_swaps = 0;  // phase-3 spanning-tree swaps

  [[nodiscard]] std::size_t total_swaps() const;
};

/// Plans SWAPs that, applied to `current`, bring every *program* wire to
/// the physical qubit `target` assigns it (free wires are don't-care and
/// may land anywhere). Throws MappingError when the placements disagree
/// with the device or the coupling graph is disconnected. Distances and
/// paths come from the device's ArchArtifacts. `escape_budget` caps consecutive zero-gain escapes before the fallback
/// engages; -1 selects the default (2n+4), 0 forces the fallback (tests).
[[nodiscard]] TokenSwapPlan plan_token_swaps(const Placement& current,
                                             const Placement& target,
                                             const Device& device,
                                             int escape_budget = -1);

/// Returns `current` to `target` at the end of the routed gate list
/// `gates`: plans the token swaps, applies them to `current` (mirroring
/// what emitting them does to the routing state), and inserts their SWAPs
/// before the list's trailing run of Measure/Barrier gates, whose operands
/// follow their wires through the cleanup permutation (postroute's
/// relocate_measurements rejects unitaries after a deferred measurement).
/// TokenSwapFinisherPass passes the whole routed list and the streaming
/// finisher sink its buffered Measure/Barrier tail, so both emit
/// byte-identical cleanups. Returns the plan it applied.
TokenSwapPlan splice_token_swap_cleanup(std::vector<Gate>& gates,
                                        Placement& current,
                                        const Placement& target,
                                        const Device& device);

}  // namespace qmap
