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

/// A token-swap plan flattened into circuit form: the SWAPs as gates in
/// emission order, plus the wire-position remap a trailing
/// measurement/barrier suffix must be routed through (position_of[p] is
/// where the wire sitting on physical qubit p before the cleanup ends up
/// afterwards). Shared by the materialized TokenSwapFinisherPass and the
/// streaming finisher sink so both emit byte-identical cleanups.
struct TokenSwapCleanup {
  std::vector<Gate> swaps;
  std::vector<int> position_of;
  std::size_t rounds = 0;

  [[nodiscard]] std::size_t total_swaps() const noexcept {
    return swaps.size();
  }
};

/// Plans the cleanup returning `current` to `target` and applies the
/// resulting SWAPs to `current` (mirroring what emitting them does to the
/// routing state).
[[nodiscard]] TokenSwapCleanup plan_token_swap_cleanup(
    Placement& current, const Placement& target, const Device& device);

}  // namespace qmap
