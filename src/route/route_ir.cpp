#include "route/route_ir.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace qmap {

// --- RouteArena ---

namespace {
constexpr std::size_t kMinBlockBytes = 64 * 1024;
}  // namespace

void* RouteArena::slow_alloc(std::size_t bytes, std::size_t align) {
  // Walk forward over retained blocks (resetting each — everything past
  // the active block belongs to an already-rewound epoch) until one fits,
  // else grow geometrically.
  while (active_ + 1 < blocks_.size()) {
    Block& block = blocks_[++active_];
    block.used = 0;
    if (bytes + align <= block.size) return raw_alloc(bytes, align);
  }
  const std::size_t last = blocks_.empty() ? 0 : blocks_.back().size;
  const std::size_t size =
      std::max({bytes + align, last * 2, kMinBlockBytes});
  blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size, 0});
  active_ = blocks_.size() - 1;
  return raw_alloc(bytes, align);
}

std::size_t RouteArena::bytes_reserved() const noexcept {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.size;
  return total;
}

RouteArena& RouteArena::scratch() {
  static thread_local RouteArena arena;
  return arena;
}

// --- RouteIR ---

RouteIR RouteIR::build(const Circuit& circuit, DagMode mode,
                       RouteArena& arena) {
  RouteIR ir;
  const std::uint32_t n = static_cast<std::uint32_t>(circuit.size());
  ir.num_gates = n;
  ir.num_program_qubits = static_cast<std::uint32_t>(circuit.num_qubits());

  // SoA gate records. The two-qubit index list is filled in the same pass
  // (over-allocated to n entries — bump allocation makes slack free).
  // All same-width arrays are carved from two block allocations: the bump
  // pointer is cheap, but a dozen separate calls are measurable fixed
  // overhead on toy circuits where the whole build is a few hundred ns.
  std::uint32_t* u32_block = arena.alloc<std::uint32_t>(
      static_cast<std::size_t>(n) * 7 + 1);
  std::uint32_t* q0 = u32_block;
  std::uint32_t* q1 = q0 + n;
  std::uint32_t* two_qubit = q1 + n;
  std::uint32_t* stamp = two_qubit + n;
  std::uint32_t* offsets = stamp + n;           // n + 1 entries
  std::uint32_t* pred_count = offsets + n + 1;
  std::uint32_t* cursor = pred_count + n;
  std::uint8_t* u8_block = arena.alloc<std::uint8_t>(
      static_cast<std::size_t>(n) * 3);
  std::uint8_t* kind = u8_block;
  std::uint8_t* flags = kind + n;
  // Operand count per gate, saturated at 3: lets the edge-discovery pass
  // below walk the flat q0/q1 arrays for the (overwhelmingly common)
  // arity <= 2 gates instead of chasing each Gate's heap vector again;
  // 3 means "consult the Gate" (barriers, pre-lowered CCX/CSWAP).
  std::uint8_t* nops = flags + n;
  std::size_t total_operands = 0;
  std::uint32_t num_two_qubit = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Gate& gate = circuit.gate(i);
    const GateKind gkind = gate.kind;
    const std::size_t count = gate.qubits.size();
    kind[i] = static_cast<std::uint8_t>(gkind);
    // Equivalent to Gate::is_two_qubit() without the gate_info call:
    // every gate built through make_gate has qubits.size() == arity, and
    // the one any-arity kind (Barrier) is excluded explicitly.
    std::uint8_t f = 0;
    if (count == 2 && gkind != GateKind::Barrier) {
      f = kFlagTwoQubit;
      two_qubit[num_two_qubit++] = i;
    }
    flags[i] = f;
    q0[i] = count == 0 ? kNoQubit : static_cast<std::uint32_t>(gate.qubits[0]);
    q1[i] = count < 2 ? kNoQubit : static_cast<std::uint32_t>(gate.qubits[1]);
    nops[i] = static_cast<std::uint8_t>(std::min<std::size_t>(count, 3));
    total_operands += count;
  }

  // Edge discovery by the ir/dag.hpp rules. Edges are found grouped by
  // destination in ascending order, so filling the CSR successor array in
  // discovery order gives ascending successor lists. stamp[] dedups
  // (src, dst) pairs in O(1): a duplicate can only repeat an edge already
  // found for the *current* destination, so a per-destination stamp is
  // enough. A gate that names one qubit twice (barrier q0,q0) finds
  // itself as that qubit's previous gate; prev != i keeps it from
  // depending on itself.
  const std::uint32_t* edge_src = nullptr;
  const std::uint32_t* edge_dst = nullptr;
  std::size_t num_edges = 0;
  std::fill(stamp, stamp + n, kNoQubit);
  // CSR degree arrays, counted during discovery on the Sequential path
  // (the commutation path counts in a separate pass below).
  std::fill(offsets, offsets + n + 1, 0u);
  std::fill(pred_count, pred_count + n, 0u);
  if (mode == DagMode::Sequential) {
    // last_writer[q] = most recent gate touching qubit q; at most one edge
    // per operand, so total_operands bounds the edge count.
    std::uint32_t* seq_block = arena.alloc<std::uint32_t>(
        2 * total_operands + ir.num_program_qubits);
    std::uint32_t* src = seq_block;
    std::uint32_t* dst = src + total_operands;
    std::int32_t* last_writer =
        reinterpret_cast<std::int32_t*>(dst + total_operands);
    std::fill(last_writer, last_writer + ir.num_program_qubits,
              std::int32_t{-1});
    const auto visit = [&](std::uint32_t i, int q) {
      const std::int32_t prev = last_writer[q];
      if (prev >= 0 && static_cast<std::uint32_t>(prev) != i &&
          stamp[prev] != i) {
        stamp[prev] = i;
        src[num_edges] = static_cast<std::uint32_t>(prev);
        dst[num_edges] = i;
        ++num_edges;
        ++offsets[prev + 1];
        ++pred_count[i];
      }
      last_writer[q] = static_cast<std::int32_t>(i);
    };
    for (std::uint32_t i = 0; i < n; ++i) {
      // Flat q0/q1 for arity <= 2 (operand order preserved); the rare
      // wider gates re-read the Gate, keeping discovery identical to the
      // old per-Gate loop.
      if (nops[i] <= 2) {
        if (nops[i] >= 1) visit(i, static_cast<int>(q0[i]));
        if (nops[i] == 2) visit(i, static_cast<int>(q1[i]));
      } else {
        for (const int q : circuit.gate(i).qubits) visit(i, q);
      }
    }
    edge_src = src;
    edge_dst = dst;
  } else {
    // Commutation-aware: gate i depends on every earlier gate sharing a
    // qubit that it does not provably commute with. Edge count is
    // unbounded (quadratic worst case), so discovery goes through heap
    // vectors and the result is copied into the arena.
    std::vector<std::uint32_t> src_v;
    std::vector<std::uint32_t> dst_v;
    src_v.reserve(4 * n);
    dst_v.reserve(4 * n);
    std::vector<std::vector<std::uint32_t>> per_qubit(
        ir.num_program_qubits);
    for (std::uint32_t i = 0; i < n; ++i) {
      const Gate& gate = circuit.gate(i);
      for (const int q : gate.qubits) {
        for (const std::uint32_t prev : per_qubit[static_cast<std::size_t>(q)]) {
          if (prev != i && stamp[prev] != i &&
              !gates_commute(circuit.gate(prev), gate)) {
            stamp[prev] = i;
            src_v.push_back(prev);
            dst_v.push_back(i);
          }
        }
        per_qubit[static_cast<std::size_t>(q)].push_back(i);
      }
    }
    num_edges = src_v.size();
    std::uint32_t* src = arena.alloc<std::uint32_t>(num_edges);
    std::uint32_t* dst = arena.alloc<std::uint32_t>(num_edges);
    std::copy(src_v.begin(), src_v.end(), src);
    std::copy(dst_v.begin(), dst_v.end(), dst);
    edge_src = src;
    edge_dst = dst;
    for (std::size_t e = 0; e < num_edges; ++e) {
      ++offsets[edge_src[e] + 1];
      ++pred_count[edge_dst[e]];
    }
  }

  // CSR: degrees were counted during discovery; prefix-sum, then scatter
  // in discovery order (ascending destinations => ascending successor
  // lists).
  for (std::uint32_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  std::uint32_t* succ = arena.alloc<std::uint32_t>(num_edges);
  std::copy(offsets, offsets + n, cursor);
  for (std::size_t e = 0; e < num_edges; ++e) {
    succ[cursor[edge_src[e]]++] = edge_dst[e];
  }

  ir.kind = kind;
  ir.flags = flags;
  ir.q0 = q0;
  ir.q1 = q1;
  ir.succ_offsets = offsets;
  ir.succ = succ;
  ir.pred_count = pred_count;
  ir.two_qubit = two_qubit;
  ir.num_two_qubit = num_two_qubit;
  return ir;
}

// --- FrontLayer ---

void FrontLayer::init(const RouteIR& ir, RouteArena& arena) {
  ir_ = &ir;
  std::uint32_t* block =
      arena.alloc<std::uint32_t>(2 * static_cast<std::size_t>(ir.num_gates));
  indegree_ = block;
  ready_ = block + ir.num_gates;
  scheduled_ = arena.alloc<std::uint8_t>(ir.num_gates);
  reset();
}

void FrontLayer::reset() {
  num_scheduled_ = 0;
  ready_size_ = 0;
  const std::uint32_t n = ir_->num_gates;
  std::memcpy(indegree_, ir_->pred_count, n * sizeof(std::uint32_t));
  std::memset(scheduled_, 0, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indegree_[i] == 0) ready_[ready_size_++] = i;
  }
}

void FrontLayer::mark_scheduled(std::uint32_t node) {
  std::uint32_t* const end = ready_ + ready_size_;
  std::uint32_t* const at = std::find(ready_, end, node);
  if (at == end) {
    throw CircuitError("mark_scheduled: node " + std::to_string(node) +
                       " is not ready");
  }
  std::memmove(at, at + 1,
               static_cast<std::size_t>(end - at - 1) * sizeof(std::uint32_t));
  --ready_size_;
  scheduled_[node] = 1;
  ++num_scheduled_;
  const std::uint32_t begin = ir_->succ_offsets[node];
  const std::uint32_t finish = ir_->succ_offsets[node + 1];
  for (std::uint32_t e = begin; e < finish; ++e) {
    const std::uint32_t succ = ir_->succ[e];
    if (--indegree_[succ] == 0) {
      // Keep the ready list sorted (upper-bound insert) for deterministic
      // iteration.
      std::uint32_t* const pos =
          std::upper_bound(ready_, ready_ + ready_size_, succ);
      std::memmove(pos + 1, pos,
                   static_cast<std::size_t>(ready_ + ready_size_ - pos) *
                       sizeof(std::uint32_t));
      *pos = succ;
      ++ready_size_;
    }
  }
}

std::uint32_t FrontLayer::ready_two_qubit(std::uint32_t* out) const {
  std::uint32_t count = 0;
  for (std::uint32_t k = 0; k < ready_size_; ++k) {
    const std::uint32_t node = ready_[k];
    if (ir_->is_two_qubit(node)) out[count++] = node;
  }
  return count;
}

// --- RouteCore ---

RouteCore::RouteCore(const Circuit& circuit, const Device& device,
                     DagMode mode, const Placement& initial,
                     RouteArena& arena)
    : artifacts_(device.artifacts().get()),
      dist_(artifacts_->distance_data()),
      num_phys_(device.num_qubits()) {
  rebuild(circuit, mode, initial, arena);
}

void RouteCore::rebuild(const Circuit& circuit, DagMode mode,
                        const Placement& placement, RouteArena& arena) {
  circuit_ = &circuit;
  ir = RouteIR::build(circuit, mode, arena);
  front.init(ir, arena);
  phys_of_ = arena.alloc<std::uint32_t>(ir.num_program_qubits);
  prog_at_ = arena.alloc<std::int32_t>(num_phys_);
  for (std::uint32_t k = 0; k < ir.num_program_qubits; ++k) {
    phys_of_[k] = static_cast<std::uint32_t>(
        placement.phys_of_program(static_cast<int>(k)));
  }
  for (int p = 0; p < num_phys_; ++p) {
    prog_at_[p] = placement.program_at_phys(p);
  }
  ready_snapshot_ = arena.alloc<std::uint32_t>(ir.num_gates);
  front_buf_ = arena.alloc<std::uint32_t>(ir.num_two_qubit);
  front_gates = front_buf_;
  front_size = 0;
  ext_cursor_ = 0;
}

std::uint32_t RouteCore::collect_extended(std::size_t window,
                                          std::uint32_t* out) {
  // Equivalent to the old full scan over the circuit: non-2q gates were
  // never collected, so scanning the ascending two-qubit index list with
  // a monotonic scheduled-prefix cursor visits the same candidates.
  while (ext_cursor_ < ir.num_two_qubit &&
         front.scheduled(ir.two_qubit[ext_cursor_])) {
    ++ext_cursor_;
  }
  std::uint32_t count = 0;
  std::uint32_t fi = 0;  // merge pointer into the sorted front
  for (std::uint32_t k = ext_cursor_;
       k < ir.num_two_qubit && count < window; ++k) {
    const std::uint32_t node = ir.two_qubit[k];
    if (front.scheduled(node)) continue;
    while (fi < front_size && front_gates[fi] < node) ++fi;
    if (fi < front_size && front_gates[fi] == node) continue;
    out[count++] = node;
  }
  return count;
}

void RouteCore::mark_relevant(std::uint8_t* relevant) const {
  std::memset(relevant, 0, static_cast<std::size_t>(num_phys_));
  for (std::uint32_t k = 0; k < front_size; ++k) {
    const std::uint32_t node = front_gates[k];
    relevant[phys_of_[ir.q0[node]]] = 1;
    relevant[phys_of_[ir.q1[node]]] = 1;
  }
}

}  // namespace qmap
