// The lookahead decision loop of src/route, shared by every front-layer
// heuristic router: sabre, bridge and reliability (materialized, over
// RouteCore through run_sabre_route), sabre and bridge again as streaming
// drivers (through run_sabre_stream, over a RouteCore that
// stream_core.cpp rebuilds over the resident window after each pull), and
// qmap and shuttle (materialized, through run_sabre_route with their own
// cores).
//
// The loop body is one decision sequence — flush-to-fixpoint, front
// refresh, extended lookahead, per-edge action scoring with decay, the
// optional BRIDGE decision, the stall rescue, and the decay-reset
// bookkeeping. Every core derives from MaterializedLoopCore, so the
// streamed and materialized paths run the same statements over the same
// RouteCore; the streamed one only sees a window of the circuit. The
// golden fingerprint matrices (tests/test_route_ir.cpp) and the stream
// parity matrix (tests/test_stream.cpp) pin that no instantiation drifts.
//
// The routers differ in three decisions, each a member of the Core:
//   * which action an edge offers (offer): a SWAP; shuttle offers a Move
//     of an occupant into the free site instead, and nothing when both
//     sites are free;
//   * how an action scores and which score wins (score, better): from the
//     distance sums over the front layer and the lookahead window with
//     the action applied (LoopTerms). SABRE's score (sabre_score) is
//     decay * (swap_cost(a, b) + front + kSabreExtendedWeight * extended),
//     swap_cost being 0.0 for hop distances (sabre, bridge) and the
//     SWAP's log-error for reliability (Sec. III-B); shuttle adds a
//     weighted action cost instead, and qmap scores front + 0.3 * extended
//     over a 10-gate window without decay, breaking near-ties on the
//     SWAP's look-back finish cycle;
//   * what applying an action emits (apply, and flush for program gates):
//     qmap also advances its busy-until cycles, shuttle emits Moves.
//
// Core concept (duck-typed):
//   bool all_scheduled();
//   bool flush(RoutingEmitter&);              // emit executables, fixpoint
//   void refresh_front();
//   std::uint32_t front_size() const;
//   const std::uint32_t* front_gates() const; // ready 2q nodes, ascending
//   std::size_t ext_cap() const;              // lookahead quota this round
//   std::uint32_t collect_extended(std::size_t cap, std::uint32_t* out);
//   void mark_relevant(std::uint8_t* relevant) const;
//   void collect_endpoints(const std::uint32_t* nodes, std::uint32_t count,
//                          std::int32_t* pa, std::int32_t* pb) const;
//   D dist_pair(std::int32_t pa, std::int32_t pb) const;  // D: int/double
//   D dist_pair_swapped(std::int32_t pa, std::int32_t pb, int ea, int eb);
//   LoopAction offer(int a, int b) const;     // kind None: nothing
//   LoopScore score(const LoopAction&, const LoopTerms&) const;
//   bool better(const LoopScore& score, const LoopScore& best) const;
//   void apply(RoutingEmitter&, const LoopAction&);
//   GateKind kind_of(std::uint32_t node) const;
//   int gate_dist(std::uint32_t node) const;  // hop count
//   int phys_q0(std::uint32_t node) const;    // phys of first operand
//   int phys_q1(std::uint32_t node) const;
//   std::vector<int> shortest_path(int a, int b) const;
//   void mark_front_scheduled(std::uint32_t node);  // bridge bookkeeping
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "arch/topology.hpp"
#include "common/error.hpp"
#include "route/route_ir.hpp"
#include "route/router.hpp"

namespace qmap {

// The SABRE tuning of Li, Ding and Xie [40], shared by every sabre-style
// router (sabre, bridge, reliability, shuttle).
inline constexpr std::size_t kSabreExtendedWindow = 20;  // future 2q gates
inline constexpr double kSabreExtendedWeight = 0.5;  // lookahead weight
inline constexpr double kSabreDecayIncrement = 0.1;  // per-use qubit decay
inline constexpr int kSabreDecayResetInterval = 5;   // SWAPs between resets

struct SabreLoopParams {
  bool enable_bridge = false;
  const char* label = "sabre";  // error-message prefix
};

/// Scratch buffers for the loop, arena-backed and exposed via
/// Core::buffers(). `extended`, `ext_pa`, `ext_pb` need capacity >= the
/// largest ext_cap() the core will report; `front_pa`/`front_pb` capacity
/// >= the current front layer and `to_bridge` likewise (null unless
/// enable_bridge) — the streamed route re-allocates those (and so moves
/// the pointers) whenever it rebuilds its window inside flush(), which is
/// why the loop re-reads buffers() after each refresh. `decay` and
/// `relevant` are num_phys-sized and must stay stable across the whole
/// loop (decay accumulates state between iterations).
struct SabreLoopBuffers {
  double* decay = nullptr;          // num_phys
  std::uint8_t* relevant = nullptr; // num_phys
  std::uint32_t* extended = nullptr;
  std::uint32_t* to_bridge = nullptr;
  std::int32_t* front_pa = nullptr;
  std::int32_t* front_pb = nullptr;
  std::int32_t* ext_pa = nullptr;
  std::int32_t* ext_pb = nullptr;
};

struct SabreLoopStats {
  std::uint64_t iterations = 0;
  std::uint64_t rescues = 0;
  std::uint64_t swaps_avoided = 0;  // bridged front gates
};

enum class ActionKind : std::uint8_t { None, Swap, Move };

/// What one coupling edge offers: a SWAP of sites a and b, a shuttle Move
/// of a's occupant into the free site b, or nothing.
struct LoopAction {
  ActionKind kind = ActionKind::None;
  int a = -1;
  int b = -1;
};

/// One candidate's score. `finish` is qmap's tie-break (the SWAP's
/// look-back finish cycle); the other cores leave it 0.
struct LoopScore {
  double value = std::numeric_limits<double>::infinity();
  double finish = std::numeric_limits<double>::infinity();
};

/// The distance terms of one candidate action: the sums over the front
/// layer and the lookahead window with the action applied, their sizes,
/// and the larger decay of the two sites.
struct LoopTerms {
  double front_sum;
  std::uint32_t front_size;
  double extended_sum;
  std::uint32_t num_extended;
  double decay;

  [[nodiscard]] double front_mean() const { return front_sum / front_size; }
  /// 0.0 for an empty window.
  [[nodiscard]] double extended_mean() const {
    return num_extended > 0 ? extended_sum / num_extended : 0.0;
  }
};

/// SABRE's score [40] of a SWAP whose own cost is `swap_cost`.
[[nodiscard]] inline double sabre_score(const LoopTerms& terms,
                                        double swap_cost) {
  return terms.decay * (swap_cost + terms.front_mean() +
                        kSabreExtendedWeight * terms.extended_mean());
}

template <class Core, class CheckCancel>
SabreLoopStats run_sabre_loop(Core& core, RoutingEmitter& emitter,
                              const CouplingGraph& coupling, int num_phys,
                              const SabreLoopParams& params,
                              CheckCancel&& check_cancelled) {
  double* const decay = core.buffers().decay;
  std::fill(decay, decay + num_phys, 1.0);
  int swaps_since_reset = 0;
  int swaps_since_progress = 0;
  const int stall_limit = 10 * std::max(1, num_phys);

  SabreLoopStats stats;

  while (!core.all_scheduled()) {
    check_cancelled();
    ++stats.iterations;
    if (core.flush(emitter)) {
      swaps_since_progress = 0;
      continue;
    }
    core.refresh_front();
    const std::uint32_t front_size = core.front_size();
    if (front_size == 0) {
      throw MappingError(std::string(params.label) +
                         ": stalled with no ready two-qubit gate");
    }
    const std::uint32_t* front_gates = core.front_gates();
    const SabreLoopBuffers& buffers = core.buffers();

    // Extended lookahead: the next unscheduled 2q gates in program order
    // beyond the front layer.
    const std::uint32_t num_extended =
        core.collect_extended(core.ext_cap(), buffers.extended);

    // Candidate actions: edges touching a physical qubit that currently
    // holds an operand of a front-layer gate.
    core.mark_relevant(buffers.relevant);
    core.collect_endpoints(front_gates, front_size, buffers.front_pa,
                           buffers.front_pb);
    core.collect_endpoints(buffers.extended, num_extended, buffers.ext_pa,
                           buffers.ext_pb);

    LoopScore best_score;
    LoopAction best;
    for (const auto& edge : coupling.edges()) {
      if (!buffers.relevant[edge.a] && !buffers.relevant[edge.b]) continue;
      const LoopAction action = core.offer(edge.a, edge.b);
      if (action.kind == ActionKind::None) continue;
      double front_sum = 0.0;
      for (std::uint32_t k = 0; k < front_size; ++k) {
        front_sum += core.dist_pair_swapped(buffers.front_pa[k],
                                            buffers.front_pb[k], action.a,
                                            action.b);
      }
      double extended_sum = 0.0;
      for (std::uint32_t k = 0; k < num_extended; ++k) {
        extended_sum += core.dist_pair_swapped(buffers.ext_pa[k],
                                               buffers.ext_pb[k], action.a,
                                               action.b);
      }
      const LoopScore score = core.score(
          action, LoopTerms{front_sum, front_size, extended_sum, num_extended,
                            std::max(decay[action.a], decay[action.b])});
      if (core.better(score, best_score)) {
        best_score = score;
        best = action;
      }
    }
    if (best.kind == ActionKind::None) {
      throw MappingError(std::string(params.label) +
                         ": no candidate action found");
    }

    if (params.enable_bridge) {
      // BRIDGE decision: a front-layer CX at distance exactly 2 runs in
      // place when the best SWAP would not improve the score of the *other*
      // front gates plus the lookahead window — then the SWAP's only value
      // was this gate, and the bridge gets it for free without perturbing
      // the placement. Decisions are pure reads, emission follows, so one
      // round may bridge several front gates (placement never changes).
      std::uint32_t num_to_bridge = 0;
      for (std::uint32_t k = 0; k < front_size; ++k) {
        const std::uint32_t node = front_gates[k];
        if (core.kind_of(node) != GateKind::CX) continue;
        if (core.gate_dist(node) != 2) continue;
        double rest_now = 0.0;
        double rest_swapped = 0.0;
        for (std::uint32_t j = 0; j < front_size; ++j) {
          if (front_gates[j] == node) continue;
          rest_now += core.dist_pair(buffers.front_pa[j], buffers.front_pb[j]);
          rest_swapped += core.dist_pair_swapped(
              buffers.front_pa[j], buffers.front_pb[j], best.a, best.b);
        }
        for (std::uint32_t j = 0; j < num_extended; ++j) {
          rest_now += kSabreExtendedWeight *
                      core.dist_pair(buffers.ext_pa[j], buffers.ext_pb[j]);
          rest_swapped += kSabreExtendedWeight *
                          core.dist_pair_swapped(buffers.ext_pa[j],
                                                 buffers.ext_pb[j], best.a,
                                                 best.b);
        }
        if (rest_swapped < rest_now) continue;  // the SWAP helps others too
        buffers.to_bridge[num_to_bridge++] = node;
      }
      if (num_to_bridge > 0) {
        for (std::uint32_t k = 0; k < num_to_bridge; ++k) {
          const std::uint32_t node = buffers.to_bridge[k];
          const int phys_c = core.phys_q0(node);
          const int phys_t = core.phys_q1(node);
          const std::vector<int> path = core.shortest_path(phys_c, phys_t);
          emitter.emit_bridge(phys_c, path[1], phys_t);
          core.mark_front_scheduled(node);
        }
        stats.swaps_avoided += num_to_bridge;
        swaps_since_progress = 0;
        continue;
      }
    }

    ++swaps_since_progress;
    if (swaps_since_progress > stall_limit) {
      // Safeguard: force progress by walking the first front gate together
      // along a shortest path (the naive step), taking the action each
      // path edge offers. Guarantees termination.
      const std::uint32_t gate = front_gates[0];
      const int pa = core.phys_q0(gate);
      const int pb = core.phys_q1(gate);
      const std::vector<int> path = core.shortest_path(pa, pb);
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        core.apply(emitter, core.offer(path[i], path[i + 1]));
      }
      ++stats.rescues;
      swaps_since_progress = 0;
      continue;
    }

    core.apply(emitter, best);
    decay[best.a] += kSabreDecayIncrement;
    decay[best.b] += kSabreDecayIncrement;
    if (++swaps_since_reset >= kSabreDecayResetInterval) {
      std::fill(decay, decay + num_phys, 1.0);
      swaps_since_reset = 0;
    }
  }
  return stats;
}

/// Flushes one route's loop counters — `<prefix>.routes`, `.iterations`
/// and `.rescues` — and the `route.swaps_inserted` histogram. One flush
/// per route() keeps the loop body free of locking.
inline void record_sabre_loop(obs::Observer* observer, std::string_view prefix,
                              const SabreLoopStats& stats,
                              std::size_t added_swaps) {
  if (observer == nullptr) return;
  const std::string name(prefix);
  obs::add(observer, name + ".routes");
  obs::add(observer, name + ".iterations", stats.iterations);
  obs::add(observer, name + ".rescues", stats.rescues);
  obs::observe(observer, "route.swaps_inserted",
               static_cast<double>(added_swaps));
}

/// The hop-count distance source (sabre, bridge, qmap, shuttle): the
/// device's distance matrix, and no cost of its own for a SWAP.
class HopDistance {
 public:
  explicit HopDistance(const Device& device)
      : dist_(device.artifacts()->distance_data()),
        num_phys_(static_cast<std::size_t>(device.num_qubits())) {}

  [[nodiscard]] int cost(int a, int b) const {
    return dist_[static_cast<std::size_t>(a) * num_phys_ +
                 static_cast<std::size_t>(b)];
  }
  [[nodiscard]] static double swap_cost(int /*a*/, int /*b*/) { return 0.0; }

 private:
  const int* dist_;  // num_phys^2 row-major
  std::size_t num_phys_;
};

/// The materialized lookahead quota: min(kSabreExtendedWindow, total
/// two-qubit gates). The whole circuit is resident, so the quota never
/// changes mid-route.
inline std::size_t materialized_ext_cap(const RouteCore& core) {
  return std::min(kSabreExtendedWindow,
                  static_cast<std::size_t>(core.ir.num_two_qubit));
}

/// RouteCore adapter for run_sabre_loop: the materialized path, offering
/// a SWAP on every edge and scoring it by sabre_score with `Distance`
/// (cost(a, b) and swap_cost(a, b): HopDistance, or ReliabilityDistance).
/// qmap, shuttle and the streamed route derive from it and hide the
/// members where they differ; run_sabre_loop is a template over the
/// derived type, so no member is virtual.
template <class Distance>
class MaterializedLoopCore {
 public:
  MaterializedLoopCore(RouteCore& core, const Device& device,
                       RouteArena& /*arena*/, const SabreLoopBuffers& buffers)
      : core_(&core),
        distance_(device),
        ext_cap_(materialized_ext_cap(core)),
        buffers_(buffers) {}

  [[nodiscard]] const SabreLoopBuffers& buffers() const { return buffers_; }
  [[nodiscard]] bool all_scheduled() const {
    return core_->front.all_scheduled();
  }
  bool flush(RoutingEmitter& emitter) {
    return core_->flush_executable(
        [&](std::uint32_t node) {
          emitter.emit_program_gate(core_->circuit().gate(node));
        },
        [] {});
  }
  void refresh_front() { core_->refresh_front(); }
  [[nodiscard]] std::uint32_t front_size() const { return core_->front_size; }
  [[nodiscard]] const std::uint32_t* front_gates() const {
    return core_->front_gates;
  }
  [[nodiscard]] std::size_t ext_cap() const { return ext_cap_; }
  std::uint32_t collect_extended(std::size_t cap, std::uint32_t* out) {
    return core_->collect_extended(cap, out);
  }
  void mark_relevant(std::uint8_t* relevant) const {
    core_->mark_relevant(relevant);
  }
  void collect_endpoints(const std::uint32_t* nodes, std::uint32_t count,
                         std::int32_t* pa, std::int32_t* pb) const {
    core_->collect_endpoints(nodes, count, pa, pb);
  }
  [[nodiscard]] auto dist_pair(std::int32_t pa, std::int32_t pb) const {
    return distance_.cost(pa, pb);
  }
  [[nodiscard]] auto dist_pair_swapped(std::int32_t pa, std::int32_t pb,
                                       int ea, int eb) const {
    return distance_.cost(RouteCore::swapped(pa, ea, eb),
                          RouteCore::swapped(pb, ea, eb));
  }
  [[nodiscard]] static LoopAction offer(int a, int b) {
    return {ActionKind::Swap, a, b};
  }
  [[nodiscard]] LoopScore score(const LoopAction& action,
                                const LoopTerms& terms) const {
    return {sabre_score(terms, distance_.swap_cost(action.a, action.b)), 0.0};
  }
  [[nodiscard]] static bool better(const LoopScore& score,
                                   const LoopScore& best) {
    return score.value < best.value;
  }
  void apply(RoutingEmitter& emitter, const LoopAction& action) {
    core_->emit_swap(emitter, action.a, action.b);
  }
  [[nodiscard]] GateKind kind_of(std::uint32_t node) const {
    return core_->ir.gate_kind(node);
  }
  [[nodiscard]] int gate_dist(std::uint32_t node) const {
    return core_->gate_dist(node);
  }
  [[nodiscard]] int phys_q0(std::uint32_t node) const {
    return core_->phys_of(core_->ir.q0[node]);
  }
  [[nodiscard]] int phys_q1(std::uint32_t node) const {
    return core_->phys_of(core_->ir.q1[node]);
  }
  [[nodiscard]] std::vector<int> shortest_path(int a, int b) const {
    return core_->shortest_path(a, b);
  }
  void mark_front_scheduled(std::uint32_t node) {
    core_->front.mark_scheduled(node);
  }

 protected:
  [[nodiscard]] RouteCore& route_core() const { return *core_; }
  /// Points the loop at new buffers (the streamed route's front-sized
  /// ones move with each window rebuild).
  void rebind(const SabreLoopBuffers& buffers) { buffers_ = buffers; }

 private:
  RouteCore* core_;
  Distance distance_;
  std::size_t ext_cap_;
  SabreLoopBuffers buffers_;
};

/// Arena-backed loop buffers that last the whole route: `decay` and
/// `relevant` per physical qubit, the extended-sized ones for `ext_cap`
/// gates. The front-sized ones come from alloc_front_buffers.
inline SabreLoopBuffers alloc_sabre_buffers(RouteArena& arena, int num_phys,
                                            std::size_t ext_cap) {
  SabreLoopBuffers buffers;
  buffers.decay = arena.alloc<double>(static_cast<std::size_t>(num_phys));
  buffers.relevant =
      arena.alloc<std::uint8_t>(static_cast<std::size_t>(num_phys));
  buffers.extended = arena.alloc<std::uint32_t>(ext_cap);
  // Endpoint pairs of the front/extended gates, recollected per swap
  // decision: invariant across candidate edges and across the bridge
  // decisions (pure reads, placement untouched).
  buffers.ext_pa = arena.alloc<std::int32_t>(ext_cap);
  buffers.ext_pb = arena.alloc<std::int32_t>(ext_cap);
  return buffers;
}

/// The front-sized loop buffers for a front of up to `front_cap` gates:
/// the endpoint pairs, and `to_bridge` only with bridging.
inline void alloc_front_buffers(RouteArena& arena, std::size_t front_cap,
                                bool enable_bridge,
                                SabreLoopBuffers& buffers) {
  if (enable_bridge) buffers.to_bridge = arena.alloc<std::uint32_t>(front_cap);
  buffers.front_pa = arena.alloc<std::int32_t>(front_cap);
  buffers.front_pb = arena.alloc<std::int32_t>(front_cap);
}

/// One materialized route, start to finish — the materialized twin of
/// run_sabre_stream: checks routability, builds the RouteCore over `mode`
/// and the arena-backed loop buffers, wraps them in a `LoopCore`
/// (MaterializedLoopCore<Distance> or a router's own derived core,
/// constructed from the RouteCore, the device, the arena and the
/// buffers), runs the shared loop and finishes the emitter. `stats`
/// receives the loop counters for observability.
template <class LoopCore, class CheckCancel>
RoutingResult run_sabre_route(const Circuit& circuit, const Device& device,
                              const Placement& initial, DagMode mode,
                              const SabreLoopParams& params,
                              CheckCancel&& check_cancelled,
                              SabreLoopStats& stats) {
  const auto start_time = std::chrono::steady_clock::now();
  check_routable(circuit, device);
  RouteArena& arena = RouteArena::scratch();
  const ArenaScope scope(arena);
  RouteCore core(circuit, device, mode, initial, arena);
  RoutingEmitter emitter(device, initial,
                         circuit.name() + "@" + device.name());
  // Output bound: every program gate plus room for SWAPs and direction
  // fixes; generous slack beats mid-route growth reallocations.
  emitter.reserve(circuit.size() * 3 + 16);

  SabreLoopBuffers buffers =
      alloc_sabre_buffers(arena, core.num_phys(), materialized_ext_cap(core));
  alloc_front_buffers(arena, core.ir.num_two_qubit, params.enable_bridge,
                      buffers);
  LoopCore loop_core(core, device, arena, buffers);
  stats = run_sabre_loop(loop_core, emitter, device.coupling(),
                         device.num_qubits(), params, check_cancelled);

  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  return std::move(emitter).finish(initial, runtime_ms);
}

}  // namespace qmap
