// StreamRouteCore: the sliding-window routing core behind
// Router::route_stream for the sabre family (sabre.cpp, bridge.cpp).
//
// Where RouteCore (route_ir.hpp) builds the whole circuit's CSR DAG up
// front, StreamRouteCore holds only a window of gates [base_, next_gid_):
// the DAG grows at the tail as chunks are pulled from a GateSource and is
// reclaimed from the head once a prefix is fully scheduled. Routed output
// leaves through the RoutingEmitter's sink spill, so peak memory is
// O(window + spill threshold), not O(circuit).
//
// Fidelity contract: a streamed route is byte-identical to route() on the
// materialized circuit. Both paths instantiate the same run_sabre_loop
// template (sabre_loop.hpp); this core guarantees that every query the
// loop makes returns the same answer the materialized core would give,
// by maintaining the window-advance invariant — before every flush pass
// and every swap decision, the window contains
//
//   (a) every gate that is ready in the *full* dependency DAG, and
//   (b) at least kSabreExtendedWindow unscheduled non-front two-qubit
//       gates (or the source is dry).
//
// For (a) it suffices that every program qubit has an unscheduled
// in-window gate touching it: consecutive gates on a qubit are chained by
// sequential last-writer edges, so they are scheduled strictly in program
// order — while a qubit has any unscheduled in-window toucher, its last
// in-window toucher is unscheduled, and every beyond-tail gate on that
// qubit has an unscheduled predecessor and cannot be ready. The core
// therefore pulls while any qubit is "idle" (no unscheduled toucher).
// For (b) it pulls while the unscheduled two-qubit count is below
// kSabreExtendedWindow plus the ready-list size (a conservative bound on
// the front layer). Consequence: the resident window is bounded by the
// circuit's qubit-reuse distance — the largest program-order gap between
// consecutive gates on one qubit — which is small for circuits that keep
// all qubits active (QFT, adders, layered random circuits) but degrades
// to the whole circuit for a qubit that goes quiet until the end.
//
// Only DagMode::Sequential is supported: the commutation-aware DAG needs
// unbounded lookahead (any later gate on a shared qubit may or may not
// commute), which has no windowed form.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "arch/device.hpp"
#include "ir/gate_stream.hpp"
#include "layout/placement.hpp"
#include "route/router.hpp"
#include "route/sabre_loop.hpp"

namespace qmap {

class StreamRouteCore {
 public:
  static constexpr std::uint32_t kNoQubit = 0xFFFFFFFFu;
  static constexpr std::uint8_t kFlagTwoQubit = 1u;

  StreamRouteCore(GateSource& source, const Device& device,
                  const Placement& initial, std::size_t chunk_gates,
                  bool enable_bridge);

  // --- the run_sabre_loop Core concept (see sabre_loop.hpp) ---

  [[nodiscard]] const SabreLoopBuffers& buffers() const { return buffers_; }
  [[nodiscard]] bool all_scheduled() const {
    return dry_ && num_unscheduled_ == 0;
  }
  /// Extends the window to the invariant, then emits every executable
  /// ready gate until fixpoint (re-extending between passes), retires the
  /// scheduled prefix and spills buffered output downstream.
  bool flush(RoutingEmitter& emitter);
  void refresh_front();
  [[nodiscard]] std::uint32_t front_size() const {
    return static_cast<std::uint32_t>(front_buf_.size());
  }
  [[nodiscard]] const std::uint32_t* front_gates() const {
    return front_buf_.data();
  }
  /// min(kSabreExtendedWindow, two-qubit gates seen so far). Equal at
  /// every decision point to the materialized min(kSabreExtendedWindow,
  /// total): the quota invariant (b) guarantees seen >= the window while
  /// the source has gates left, and once dry seen == total.
  [[nodiscard]] std::size_t ext_cap() const {
    return std::min(kSabreExtendedWindow, seen_two_qubit_);
  }
  std::uint32_t collect_extended(std::size_t window, std::uint32_t* out);
  void mark_relevant(std::uint8_t* relevant) const;
  void collect_endpoints(const std::uint32_t* nodes, std::uint32_t count,
                         std::int32_t* pa, std::int32_t* pb) const {
    for (std::uint32_t k = 0; k < count; ++k) {
      pa[k] = static_cast<std::int32_t>(phys_of_[q0_[idx(nodes[k])]]);
      pb[k] = static_cast<std::int32_t>(phys_of_[q1_[idx(nodes[k])]]);
    }
  }
  [[nodiscard]] int dist_pair(std::int32_t pa, std::int32_t pb) const {
    return dist(pa, pb);
  }
  [[nodiscard]] int dist_pair_swapped(std::int32_t pa, std::int32_t pb,
                                      int ea, int eb) const {
    return dist(RouteCore::swapped(pa, ea, eb),
                RouteCore::swapped(pb, ea, eb));
  }
  [[nodiscard]] static LoopAction offer(int a, int b) {
    return {ActionKind::Swap, a, b};
  }
  /// Hop distances: a SWAP has no cost of its own.
  [[nodiscard]] static LoopScore score(const LoopAction& /*action*/,
                                       const LoopTerms& terms) {
    return {sabre_score(terms, 0.0), 0.0};
  }
  [[nodiscard]] static bool better(const LoopScore& score,
                                   const LoopScore& best) {
    return score.value < best.value;
  }
  [[nodiscard]] GateKind kind_of(std::uint32_t node) const {
    return static_cast<GateKind>(kind_[idx(node)]);
  }
  [[nodiscard]] int gate_dist(std::uint32_t node) const {
    return dist(static_cast<int>(phys_of_[q0_[idx(node)]]),
                static_cast<int>(phys_of_[q1_[idx(node)]]));
  }
  [[nodiscard]] int phys_q0(std::uint32_t node) const {
    return static_cast<int>(phys_of_[q0_[idx(node)]]);
  }
  [[nodiscard]] int phys_q1(std::uint32_t node) const {
    return static_cast<int>(phys_of_[q1_[idx(node)]]);
  }
  [[nodiscard]] std::vector<int> shortest_path(int a, int b) const {
    return device_->artifacts()->shortest_path(a, b);
  }
  void apply(RoutingEmitter& emitter, const LoopAction& action) {
    emitter.emit_swap(action.a, action.b);
    const std::int32_t wa = prog_at_[action.a];
    const std::int32_t wb = prog_at_[action.b];
    prog_at_[action.a] = wb;
    prog_at_[action.b] = wa;
    if (wa >= 0) phys_of_[wa] = static_cast<std::uint32_t>(action.b);
    if (wb >= 0) phys_of_[wb] = static_cast<std::uint32_t>(action.a);
  }
  void mark_front_scheduled(std::uint32_t node) { mark_scheduled(node); }

  // --- stream statistics ---

  [[nodiscard]] std::size_t gates_seen() const noexcept {
    return gates_seen_;
  }
  [[nodiscard]] std::size_t window_peak_gates() const noexcept {
    return window_peak_;
  }

 private:
  [[nodiscard]] std::size_t idx(std::uint32_t gid) const {
    return gid - base_;
  }
  [[nodiscard]] int dist(int a, int b) const {
    return dist_[static_cast<std::size_t>(a) *
                     static_cast<std::size_t>(num_phys_) +
                 static_cast<std::size_t>(b)];
  }
  [[nodiscard]] bool executable(std::uint32_t node) const {
    if ((flags_[idx(node)] & kFlagTwoQubit) == 0) return true;
    return gate_dist(node) == 1;
  }
  /// Pulls until the window-advance invariant holds or the source dries.
  void advance_window();
  bool pull_chunk();
  void append_gate(Gate&& gate);
  void add_successor(std::uint32_t prev, std::uint32_t gid);
  /// FrontLayer::mark_scheduled over the window: removes `node` from the
  /// sorted ready list (CircuitError if absent), decrements successor
  /// in-degrees, inserts newly enabled successors at their sorted
  /// position, and maintains the per-qubit toucher counts.
  void mark_scheduled(std::uint32_t node);
  /// Reclaims the fully-scheduled prefix once it is worth the compaction.
  void retire();

  GateSource* source_;
  const Device* device_;
  std::size_t chunk_gates_;
  bool enable_bridge_;
  int num_phys_ = 0;
  int num_program_qubits_ = 0;

  // The device's shared row-major distance matrix.
  const int* dist_ = nullptr;

  // Placement mirror (kept in lockstep with the emitter's Placement).
  std::vector<std::uint32_t> phys_of_;  // program qubit -> physical
  std::vector<std::int32_t> prog_at_;   // physical -> program (-1 = free)

  // --- the window: per-gate arrays indexed by gid - base_ ---
  std::uint32_t base_ = 0;      // first resident gid
  std::uint32_t next_gid_ = 0;  // one past the last resident gid
  std::vector<Gate> gates_;     // moved out at emission (arity <= 2)
  std::vector<std::uint8_t> kind_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint8_t> nops_;  // operand count, saturated at 3
  std::vector<std::uint32_t> q0_;
  std::vector<std::uint32_t> q1_;
  // Successor lists: out-degree is bounded by arity (one edge per operand
  // under the last-writer rule), so two inline slots cover every gate of
  // arity <= 2; wider barriers overflow to a heap list keyed by gid.
  // succ_count_ 0..2 = inline size, 3 = consult succ_overflow_.
  std::vector<std::array<std::uint32_t, 2>> succ_inline_;
  std::vector<std::uint8_t> succ_count_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> succ_overflow_;
  std::vector<std::uint32_t> indegree_;  // unscheduled in-window preds
  std::vector<std::uint8_t> scheduled_;

  // Scheduling state over global gids.
  std::vector<std::uint32_t> ready_;      // sorted ascending
  std::vector<std::uint32_t> snapshot_;   // flush pass scratch
  std::vector<std::uint32_t> two_qubit_;  // resident 2q gids, ascending
  std::size_t tq_cursor_ = 0;  // first maybe-unscheduled index (monotonic)
  std::size_t num_unscheduled_ = 0;
  std::size_t unscheduled_2q_ = 0;
  std::size_t seen_two_qubit_ = 0;  // cumulative, never reclaimed

  // Window-advance bookkeeping (invariant (a)).
  std::vector<std::int64_t> last_writer_;  // global gid, -1 = none yet
  std::vector<std::uint32_t> unscheduled_touchers_;  // per program qubit
  int num_idle_qubits_ = 0;  // qubits with zero unscheduled touchers
  std::vector<std::uint32_t> pred_scratch_;
  std::vector<Gate> pull_buf_;
  bool dry_ = false;

  // Loop scratch, exposed via buffers(). decay/relevant/extended stay
  // pointer-stable; the front-sized ones may grow (and move) inside
  // refresh_front(), which re-points buffers_.
  std::vector<double> decay_;
  std::vector<std::uint8_t> relevant_;
  std::vector<std::uint32_t> extended_;
  std::vector<std::uint32_t> front_buf_;
  std::vector<std::uint32_t> to_bridge_;
  std::vector<std::int32_t> front_pa_;
  std::vector<std::int32_t> front_pb_;
  std::vector<std::int32_t> ext_pa_;
  std::vector<std::int32_t> ext_pb_;
  SabreLoopBuffers buffers_;

  std::size_t gates_seen_ = 0;
  std::size_t window_peak_ = 0;
};

/// One streaming sabre/bridge route, start to finish: builds the window
/// core, runs the shared loop, drains the emitter into the sink (sink
/// flush included) and assembles the stats. `loop_stats` (optional)
/// receives the loop counters for observability.
StreamRouteStats run_sabre_stream(GateSource& source, const Device& device,
                                  const Placement& initial, GateSink& sink,
                                  const StreamRouteOptions& options,
                                  const SabreLoopParams& params,
                                  const std::function<void()>& check_cancelled,
                                  SabreLoopStats* loop_stats = nullptr);

}  // namespace qmap
