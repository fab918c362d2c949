// RouteIR: the data-oriented routing core.
//
// The heuristic routers (sabre, bridge, reliability, shuttle, qmap,
// astar_layer) spend their whole budget in tiny inner loops — front-layer
// scans, per-edge swap scoring, ready-list maintenance — and
// pointer-heavy vector<vector<int>> graphs and per-candidate Placement
// copies made every iteration chase heap cells. RouteIR is the flat form:
// one arena allocation per route() call holds
//
//   * SoA gate records: kind / flags / q0 / q1 in parallel arrays,
//   * the dependency DAG in CSR form (offsets + edges, two flat arrays),
//   * an in-place front-layer worklist (sorted ready list + in-degrees),
//   * a flat program->physical mirror kept in lockstep with the
//     RoutingEmitter's Placement,
//
// and distance queries read straight out of the device's ArchArtifacts
// row-major matrix.
//
// RouteIR is the one dependency DAG: every DAG-driven router (sabre,
// bridge, reliability, shuttle, qmap, astar_layer) runs on it through
// RouteCore, as do the constrained scheduler and the execution snapshot,
// and the streamed route (stream_core.hpp) rebuilds a RouteCore over its
// resident window after each pull. Fidelity contract: the CSR build
// applies the rules of ir/dag.hpp — the Sequential last-writer rule and
// the commutation-aware rule — with one edge per (source, destination)
// pair and ascending successor lists, and FrontLayer keeps the ready list
// sorted with an upper-bound insert. Changing either changes router
// decisions; parity is pinned by tests/test_route_ir.cpp against golden
// fingerprints and by the stream parity matrix. When changing anything
// here, keep DESIGN.md §11 in sync.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "ir/circuit.hpp"
#include "ir/dag.hpp"
#include "route/router.hpp"

namespace qmap {

/// Chunked bump allocator backing one route() call. Allocation is a
/// pointer bump; deallocation only happens wholesale by rewinding to a
/// marker (ArenaScope). Blocks are retained across rewinds, so a reused
/// arena (see scratch()) serves subsequent routes without touching malloc.
class RouteArena {
 public:
  /// Rewind point: everything allocated after mark() is reclaimed by
  /// release(). Markers must be released in LIFO order (use ArenaScope).
  struct Marker {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  RouteArena() = default;
  RouteArena(const RouteArena&) = delete;
  RouteArena& operator=(const RouteArena&) = delete;

  /// `count` default-initialized (i.e. uninitialized) Ts. Only trivially
  /// destructible types: the arena never runs destructors.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "RouteArena never runs destructors");
    return static_cast<T*>(raw_alloc(count * sizeof(T), alignof(T)));
  }

  [[nodiscard]] Marker mark() const noexcept {
    return Marker{active_, active_ < blocks_.size() ? blocks_[active_].used
                                                    : 0};
  }
  void release(const Marker& marker) noexcept {
    active_ = marker.block;
    if (active_ < blocks_.size()) blocks_[active_].used = marker.used;
  }

  /// Total block capacity held (allocation high-water mark, for tests).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept;

  /// The calling thread's reusable arena. Each route() call brackets its
  /// use with an ArenaScope, so concurrent routes on different threads
  /// never share blocks and repeated routes on one thread reuse them.
  [[nodiscard]] static RouteArena& scratch();

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    if (active_ < blocks_.size()) {
      Block& block = blocks_[active_];
      const std::size_t at = (block.used + (align - 1)) & ~(align - 1);
      if (at + bytes <= block.size) {
        block.used = at + bytes;
        return block.data.get() + at;
      }
    }
    return slow_alloc(bytes, align);
  }
  void* slow_alloc(std::size_t bytes, std::size_t align);

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
};

/// RAII marker scope: rewinds the arena on exit, exception-safe.
class ArenaScope {
 public:
  explicit ArenaScope(RouteArena& arena)
      : arena_(&arena), marker_(arena.mark()) {}
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope() { arena_->release(marker_); }

 private:
  RouteArena* arena_;
  RouteArena::Marker marker_;
};

/// The flat routing IR of one circuit. All pointers live in the arena the
/// IR was built from and stay valid until that arena is rewound past the
/// build's marker; the struct itself is a cheap value (pointers + sizes).
struct RouteIR {
  static constexpr std::uint32_t kNoQubit = 0xFFFFFFFFu;
  static constexpr std::uint8_t kFlagTwoQubit = 1u;

  std::uint32_t num_gates = 0;
  std::uint32_t num_program_qubits = 0;

  // --- SoA gate records (index = gate index in the source circuit) ---
  const std::uint8_t* kind = nullptr;   // static_cast<uint8_t>(GateKind)
  const std::uint8_t* flags = nullptr;  // kFlag* bits
  const std::uint32_t* q0 = nullptr;    // first operand (kNoQubit if none)
  const std::uint32_t* q1 = nullptr;    // second operand (kNoQubit if none)

  // --- Dependency DAG, CSR form ---
  // Successors of gate i: succ[succ_offsets[i] .. succ_offsets[i+1]),
  // ascending. pred_count[i] is the in-degree (the CSR transpose's row
  // lengths); the front layer only needs the counts, not the edges.
  const std::uint32_t* succ_offsets = nullptr;  // num_gates + 1 entries
  const std::uint32_t* succ = nullptr;
  const std::uint32_t* pred_count = nullptr;

  // --- Ascending indices of the two-qubit gates ---
  const std::uint32_t* two_qubit = nullptr;
  std::uint32_t num_two_qubit = 0;

  [[nodiscard]] bool is_two_qubit(std::uint32_t node) const {
    return (flags[node] & kFlagTwoQubit) != 0;
  }
  [[nodiscard]] GateKind gate_kind(std::uint32_t node) const {
    return static_cast<GateKind>(kind[node]);
  }
  [[nodiscard]] std::uint32_t num_edges() const {
    return succ_offsets[num_gates];
  }

  /// Builds the IR for `circuit` into `arena`, discovering edges by the
  /// `mode` rule (see the fidelity contract above).
  [[nodiscard]] static RouteIR build(const Circuit& circuit, DagMode mode,
                                     RouteArena& arena);
};

/// The three-colour scheduling worklist over a RouteIR (Sec. VI-B):
/// scheduled(), ready() and every other node pending. ready() is sorted
/// ascending, newly enabled successors are inserted at their sorted
/// position, and mark_scheduled throws CircuitError unless the node is
/// currently ready. Holds a pointer to the RouteIR, which must stay put.
class FrontLayer {
 public:
  FrontLayer() = default;
  FrontLayer(const RouteIR& ir, RouteArena& arena) { init(ir, arena); }

  void init(const RouteIR& ir, RouteArena& arena);
  /// Back to the post-construction state (everything pending/ready).
  void reset();

  [[nodiscard]] const std::uint32_t* ready() const noexcept { return ready_; }
  [[nodiscard]] std::uint32_t ready_size() const noexcept {
    return ready_size_;
  }
  [[nodiscard]] bool scheduled(std::uint32_t node) const {
    return scheduled_[node] != 0;
  }
  [[nodiscard]] bool all_scheduled() const noexcept {
    return num_scheduled_ == ir_->num_gates;
  }
  [[nodiscard]] std::uint32_t num_scheduled() const noexcept {
    return num_scheduled_;
  }

  /// Marks `node` scheduled; newly enabled successors become ready.
  /// Throws CircuitError unless the node is currently ready.
  void mark_scheduled(std::uint32_t node);

  /// Writes the ready two-qubit nodes (ascending) into `out` (capacity
  /// must be >= ir.num_two_qubit) and returns the count.
  std::uint32_t ready_two_qubit(std::uint32_t* out) const;

 private:
  const RouteIR* ir_ = nullptr;
  std::uint32_t* indegree_ = nullptr;
  std::uint8_t* scheduled_ = nullptr;
  std::uint32_t* ready_ = nullptr;
  std::uint32_t ready_size_ = 0;
  std::uint32_t num_scheduled_ = 0;
};

/// Per-route working state shared by the DAG-driven routers (sabre,
/// bridge, reliability, shuttle, qmap, astar_layer): the IR + front layer,
/// a flat distance matrix, a flat program->physical mirror of the
/// emitter's Placement, and the scratch buffers the inner loops write
/// into. Everything is arena-allocated; the caller brackets the core's
/// lifetime with an ArenaScope.
class RouteCore {
 public:
  RouteCore(const Circuit& circuit, const Device& device, DagMode mode,
            const Placement& initial, RouteArena& arena);
  // front points into ir: a copy would schedule against the original.
  RouteCore(const RouteCore&) = delete;
  RouteCore& operator=(const RouteCore&) = delete;

  /// Builds the IR, front layer and mirror over `circuit` from
  /// `placement`, as the constructor does, in place: pointers to this core
  /// stay valid. The streamed route rebuilds its core over each new window
  /// while a flush runs on it.
  void rebuild(const Circuit& circuit, DagMode mode,
               const Placement& placement, RouteArena& arena);

  RouteIR ir;
  FrontLayer front;

  // Refreshed by refresh_front(): the ready two-qubit gates, ascending.
  const std::uint32_t* front_gates = nullptr;
  std::uint32_t front_size = 0;

  [[nodiscard]] int dist(int a, int b) const {
    return dist_[static_cast<std::size_t>(a) *
                     static_cast<std::size_t>(num_phys_) +
                 static_cast<std::size_t>(b)];
  }
  [[nodiscard]] int phys_of(std::uint32_t program_qubit) const {
    return phys_of_[program_qubit];
  }
  /// Distance of two-qubit gate `node` under the current placement.
  [[nodiscard]] int gate_dist(std::uint32_t node) const {
    return dist(phys_of_[ir.q0[node]], phys_of_[ir.q1[node]]);
  }
  /// Where physical qubit `p` lands when the SWAP (ea, eb) is applied —
  /// the per-candidate Placement copy of the old loops, reduced to one
  /// endpoint substitution.
  [[nodiscard]] static int swapped(int p, int ea, int eb) {
    if (p == ea) return eb;
    if (p == eb) return ea;
    return p;
  }
  /// True when `node` can run under the current placement (non-2q gates
  /// always can; 2q gates need adjacent operands).
  [[nodiscard]] bool executable(std::uint32_t node) const {
    if (!ir.is_two_qubit(node)) return true;
    return gate_dist(node) == 1;
  }

  /// Physical endpoints of two-qubit gates `nodes` under the current
  /// placement, for the edge-scoring loops: hoists the q0/q1/phys_of
  /// loads out of the per-candidate-SWAP scan (they are invariant across
  /// candidates), leaving each trial (the loop core's dist_pair_swapped)
  /// with register arithmetic plus one distance load per (edge, gate).
  void collect_endpoints(const std::uint32_t* nodes, std::uint32_t count,
                         std::int32_t* pa, std::int32_t* pb) const {
    for (std::uint32_t k = 0; k < count; ++k) {
      pa[k] = phys_of_[ir.q0[nodes[k]]];
      pb[k] = phys_of_[ir.q1[nodes[k]]];
    }
  }
  /// Program qubit on physical qubit `p`, or -1 when it holds a free wire.
  [[nodiscard]] std::int32_t program_at(int p) const { return prog_at_[p]; }

  /// Emits a SWAP and keeps the flat mirror in lockstep with the
  /// emitter's Placement.
  void emit_swap(RoutingEmitter& emitter, int phys_a, int phys_b) {
    emitter.emit_swap(phys_a, phys_b);
    exchange(phys_a, phys_b);
  }
  /// Emits a shuttle Move of the occupant of `phys_from` into the free
  /// site `phys_to`, keeping the mirror in lockstep like emit_swap.
  void emit_move(RoutingEmitter& emitter, int phys_from, int phys_to) {
    emitter.emit_move(phys_from, phys_to);
    exchange(phys_from, phys_to);
  }

  /// Runs every executable ready gate until fixpoint: calls before_pass()
  /// ahead of each pass and emit(node) for each executable ready node,
  /// then marks the node scheduled. Returns true when anything ran.
  /// before_pass may rebuild this core (the streamed route's window
  /// advance).
  template <typename Emit, typename BeforePass>
  bool flush_executable(Emit&& emit, BeforePass&& before_pass) {
    bool progressed = true;
    bool any = false;
    while (progressed) {
      progressed = false;
      before_pass();
      // Snapshot: mark_scheduled mutates the ready list.
      const std::uint32_t count = front.ready_size();
      std::memcpy(ready_snapshot_, front.ready(),
                  count * sizeof(std::uint32_t));
      for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t node = ready_snapshot_[k];
        if (!executable(node)) continue;
        emit(node);
        front.mark_scheduled(node);
        progressed = true;
        any = true;
      }
    }
    return any;
  }

  /// Re-derives front_gates/front_size from the front layer.
  void refresh_front() { front_size = front.ready_two_qubit(front_buf_); }

  /// Extended lookahead: the first (up to) `window` unscheduled two-qubit
  /// gates in program order that are not in the current front. Writes into
  /// `out` (capacity >= min(window, ir.num_two_qubit)), returns the count.
  std::uint32_t collect_extended(std::size_t window, std::uint32_t* out);

  /// Zeroes `relevant` (num_phys entries) then marks the physical qubits
  /// holding an operand of a front gate.
  void mark_relevant(std::uint8_t* relevant) const;

  /// Shortest physical path from the device's ArchArtifacts.
  [[nodiscard]] std::vector<int> shortest_path(int a, int b) const {
    return artifacts_->shortest_path(a, b);
  }

  [[nodiscard]] int num_phys() const noexcept { return num_phys_; }
  /// The routed circuit; gate index == IR node.
  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }

 private:
  // The mirror's half of a SWAP or Move on (phys_a, phys_b).
  void exchange(int phys_a, int phys_b) {
    const std::int32_t wa = prog_at_[phys_a];
    const std::int32_t wb = prog_at_[phys_b];
    prog_at_[phys_a] = wb;
    prog_at_[phys_b] = wa;
    if (wa >= 0) phys_of_[wa] = phys_b;
    if (wb >= 0) phys_of_[wb] = phys_a;
  }

  const Circuit* circuit_ = nullptr;
  const ArchArtifacts* artifacts_ = nullptr;  // the device's, never null
  const int* dist_ = nullptr;                 // num_phys^2 row-major
  int num_phys_ = 0;
  std::uint32_t* phys_of_ = nullptr;   // program qubit -> physical
  std::int32_t* prog_at_ = nullptr;    // physical -> program (-1 = free)
  std::uint32_t* ready_snapshot_ = nullptr;
  std::uint32_t* front_buf_ = nullptr;
  std::uint32_t ext_cursor_ = 0;  // first maybe-unscheduled index into
                                  // ir.two_qubit (monotonic skip)
};

}  // namespace qmap
