#include "route/stream_core.hpp"

#include <chrono>
#include <string>

#include "common/error.hpp"

namespace qmap {

StreamRouteCore::StreamRouteCore(GateSource& source, const Device& device,
                                 const Placement& initial,
                                 std::size_t chunk_gates,
                                 bool enable_bridge)
    : source_(&source),
      device_(&device),
      chunk_gates_(std::max<std::size_t>(chunk_gates, 1)),
      enable_bridge_(enable_bridge),
      num_phys_(device.num_qubits()),
      num_program_qubits_(source.num_qubits()) {
  // check_routable's width/connectivity legs, up front; the arity legs
  // run per gate as chunks arrive (append_gate).
  if (num_program_qubits_ > num_phys_) {
    throw MappingError("circuit has " + std::to_string(num_program_qubits_) +
                       " qubits; device '" + device.name() + "' has " +
                       std::to_string(num_phys_));
  }
  if (!device.artifacts()->connected()) {
    throw MappingError("device coupling graph is disconnected");
  }
  dist_ = device.artifacts()->distance_data();
  phys_of_.resize(static_cast<std::size_t>(num_program_qubits_));
  for (int k = 0; k < num_program_qubits_; ++k) {
    phys_of_[static_cast<std::size_t>(k)] =
        static_cast<std::uint32_t>(initial.phys_of_program(k));
  }
  prog_at_.resize(static_cast<std::size_t>(num_phys_));
  for (int p = 0; p < num_phys_; ++p) {
    prog_at_[static_cast<std::size_t>(p)] = initial.program_at_phys(p);
  }

  last_writer_.assign(static_cast<std::size_t>(num_program_qubits_), -1);
  unscheduled_touchers_.assign(static_cast<std::size_t>(num_program_qubits_),
                               0);
  num_idle_qubits_ = num_program_qubits_;

  decay_.resize(static_cast<std::size_t>(num_phys_));
  relevant_.resize(static_cast<std::size_t>(num_phys_));
  extended_.resize(kSabreExtendedWindow);
  ext_pa_.resize(kSabreExtendedWindow);
  ext_pb_.resize(kSabreExtendedWindow);
  buffers_.decay = decay_.data();
  buffers_.relevant = relevant_.data();
  buffers_.extended = extended_.data();
  buffers_.ext_pa = ext_pa_.data();
  buffers_.ext_pb = ext_pb_.data();
  // The front-sized buffers start empty; refresh_front() grows them and
  // re-points buffers_ as the front layer widens.

  advance_window();
}

void StreamRouteCore::advance_window() {
  // Invariant (a): no qubit idle; invariant (b): enough unscheduled
  // two-qubit gates to cover the lookahead quota past any possible front
  // (ready_.size() over-counts the front — the slack only ever widens the
  // window, never changes a decision).
  while (!dry_ && (num_idle_qubits_ > 0 ||
                   unscheduled_2q_ < kSabreExtendedWindow + ready_.size())) {
    pull_chunk();
  }
}

bool StreamRouteCore::pull_chunk() {
  pull_buf_.clear();
  const std::size_t n = source_->pull(pull_buf_, chunk_gates_);
  if (n == 0) {
    dry_ = true;
    return false;
  }
  for (Gate& gate : pull_buf_) append_gate(std::move(gate));
  window_peak_ = std::max(window_peak_, gates_.size());
  return true;
}

void StreamRouteCore::append_gate(Gate&& gate) {
  const std::size_t arity = gate.qubits.size();
  if (arity > 2 && gate.kind != GateKind::Barrier) {
    throw MappingError(
        "circuit contains a gate of arity > 2; run gate decomposition "
        "before routing");
  }
  if (arity == 0) {
    // A zero-operand gate is ready from the start regardless of position,
    // which no bounded window can order correctly.
    throw MappingError(
        "streaming route: gate with no qubit operands cannot be "
        "window-ordered; materialize the circuit and call route()");
  }
  const std::uint32_t gid = next_gid_++;
  ++gates_seen_;
  const bool two_q = arity == 2 && gate.kind != GateKind::Barrier;
  kind_.push_back(static_cast<std::uint8_t>(gate.kind));
  flags_.push_back(two_q ? kFlagTwoQubit : std::uint8_t{0});
  nops_.push_back(static_cast<std::uint8_t>(std::min<std::size_t>(arity, 3)));
  q0_.push_back(static_cast<std::uint32_t>(gate.qubits[0]));
  q1_.push_back(arity >= 2 ? static_cast<std::uint32_t>(gate.qubits[1])
                           : kNoQubit);
  succ_inline_.emplace_back();
  succ_count_.push_back(0);
  indegree_.push_back(0);
  scheduled_.push_back(0);

  // Sequential last-writer edge discovery, one pred per operand, deduped
  // per (pred, gate) pair — the same rule as RouteIR::build.
  pred_scratch_.clear();
  const auto visit = [&](int q) {
    if (q < 0 || q >= num_program_qubits_) {
      throw MappingError("streaming route: gate operand q" +
                         std::to_string(q) + " out of range for a " +
                         std::to_string(num_program_qubits_) +
                         "-qubit source");
    }
    const std::int64_t prev = last_writer_[static_cast<std::size_t>(q)];
    if (prev >= 0) {
      const auto p = static_cast<std::uint32_t>(prev);
      if (std::find(pred_scratch_.begin(), pred_scratch_.end(), p) ==
          pred_scratch_.end()) {
        pred_scratch_.push_back(p);
      }
    }
    last_writer_[static_cast<std::size_t>(q)] = gid;
    if (unscheduled_touchers_[static_cast<std::size_t>(q)]++ == 0) {
      --num_idle_qubits_;
    }
  };
  if (arity <= 2) {
    visit(gate.qubits[0]);
    if (arity == 2) visit(gate.qubits[1]);
  } else {
    for (const int q : gate.qubits) visit(q);
  }
  // Edges from already-scheduled (possibly retired) predecessors are
  // skipped instead of pre-decremented: equivalent in-degree.
  std::uint32_t in = 0;
  for (const std::uint32_t prev : pred_scratch_) {
    if (prev < base_ || scheduled_[idx(prev)] != 0) continue;
    add_successor(prev, gid);
    ++in;
  }
  indegree_.back() = in;
  gates_.push_back(std::move(gate));
  ++num_unscheduled_;
  if (two_q) {
    two_qubit_.push_back(gid);
    ++seen_two_qubit_;
    ++unscheduled_2q_;
  }
  // gid is the largest resident id, so push_back keeps ready_ sorted.
  if (in == 0) ready_.push_back(gid);
}

void StreamRouteCore::add_successor(std::uint32_t prev, std::uint32_t gid) {
  const std::size_t p = idx(prev);
  if (succ_count_[p] < 2) {
    succ_inline_[p][succ_count_[p]++] = gid;
    return;
  }
  std::vector<std::uint32_t>& overflow = succ_overflow_[prev];
  if (succ_count_[p] == 2) {
    overflow.assign(succ_inline_[p].begin(), succ_inline_[p].end());
    succ_count_[p] = 3;
  }
  overflow.push_back(gid);
}

bool StreamRouteCore::flush(RoutingEmitter& emitter) {
  bool any = false;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Re-establish the invariant before every pass: scheduling the last
    // pass's gates may have made beyond-tail gates ready in the full DAG.
    advance_window();
    // Snapshot: mark_scheduled mutates the ready list.
    snapshot_.assign(ready_.begin(), ready_.end());
    for (const std::uint32_t node : snapshot_) {
      if (!executable(node)) continue;
      const std::size_t i = idx(node);
      if (nops_[i] <= 2) {
        emitter.emit_program_gate(std::move(gates_[i]));
      } else {
        // Wide barrier: mark_scheduled still needs its operand list.
        emitter.emit_program_gate(gates_[i]);
      }
      mark_scheduled(node);
      progressed = true;
      any = true;
    }
  }
  retire();
  emitter.spill_if_needed();
  return any;
}

void StreamRouteCore::mark_scheduled(std::uint32_t node) {
  const auto at = std::lower_bound(ready_.begin(), ready_.end(), node);
  if (at == ready_.end() || *at != node) {
    throw CircuitError("mark_scheduled: node " + std::to_string(node) +
                       " is not ready");
  }
  ready_.erase(at);
  const std::size_t i = idx(node);
  scheduled_[i] = 1;
  --num_unscheduled_;
  if ((flags_[i] & kFlagTwoQubit) != 0) --unscheduled_2q_;
  const auto touch = [&](int q) {
    if (--unscheduled_touchers_[static_cast<std::size_t>(q)] == 0) {
      ++num_idle_qubits_;
    }
  };
  if (nops_[i] <= 2) {
    touch(static_cast<int>(q0_[i]));
    if (nops_[i] == 2) touch(static_cast<int>(q1_[i]));
  } else {
    for (const int q : gates_[i].qubits) touch(q);
  }
  const auto unlock = [&](std::uint32_t s) {
    if (--indegree_[idx(s)] == 0) {
      // Sorted insert, like FrontLayer.
      ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), s), s);
    }
  };
  const std::uint8_t count = succ_count_[i];
  if (count <= 2) {
    for (std::uint8_t e = 0; e < count; ++e) unlock(succ_inline_[i][e]);
  } else {
    for (const std::uint32_t s : succ_overflow_[node]) unlock(s);
  }
}

void StreamRouteCore::retire() {
  // Every gid below the minimal unscheduled one is done. When the ready
  // list is non-empty its head IS that minimum (the minimal unscheduled
  // gate has only scheduled predecessors, hence sits in the sorted ready
  // list); when it is empty, everything resident is scheduled.
  const std::uint32_t min_unscheduled =
      ready_.empty() ? next_gid_ : ready_.front();
  const std::size_t retired = min_unscheduled - base_;
  // Compact only when the prefix erase is amortized: a sizeable run that
  // is also a sizeable fraction of the resident window.
  if (retired < std::max<std::size_t>(chunk_gates_, 1024)) return;
  if (retired * 2 < gates_.size()) return;
  const auto drop_prefix = [retired](auto& v) {
    v.erase(v.begin(),
            v.begin() + static_cast<std::ptrdiff_t>(retired));
  };
  drop_prefix(gates_);
  drop_prefix(kind_);
  drop_prefix(flags_);
  drop_prefix(nops_);
  drop_prefix(q0_);
  drop_prefix(q1_);
  drop_prefix(succ_inline_);
  drop_prefix(succ_count_);
  drop_prefix(indegree_);
  drop_prefix(scheduled_);
  for (auto it = succ_overflow_.begin(); it != succ_overflow_.end();) {
    it = it->first < min_unscheduled ? succ_overflow_.erase(it)
                                     : std::next(it);
  }
  std::size_t done = 0;
  while (done < two_qubit_.size() && two_qubit_[done] < min_unscheduled) {
    ++done;
  }
  two_qubit_.erase(two_qubit_.begin(),
                   two_qubit_.begin() + static_cast<std::ptrdiff_t>(done));
  tq_cursor_ = tq_cursor_ > done ? tq_cursor_ - done : 0;
  base_ = min_unscheduled;
}

void StreamRouteCore::refresh_front() {
  front_buf_.clear();
  for (const std::uint32_t gid : ready_) {
    if ((flags_[idx(gid)] & kFlagTwoQubit) != 0) front_buf_.push_back(gid);
  }
  const std::size_t n = front_buf_.size();
  if (front_pa_.size() < n) {
    front_pa_.resize(n);
    front_pb_.resize(n);
  }
  if (enable_bridge_ && to_bridge_.size() < n) to_bridge_.resize(n);
  buffers_.front_pa = front_pa_.data();
  buffers_.front_pb = front_pb_.data();
  buffers_.to_bridge = enable_bridge_ ? to_bridge_.data() : nullptr;
}

std::uint32_t StreamRouteCore::collect_extended(std::size_t window,
                                                std::uint32_t* out) {
  // Same scan as RouteCore::collect_extended over the resident suffix of
  // the two-qubit list; the quota invariant guarantees the suffix holds
  // at least `window` candidates (or the whole remainder when dry).
  while (tq_cursor_ < two_qubit_.size() &&
         scheduled_[idx(two_qubit_[tq_cursor_])] != 0) {
    ++tq_cursor_;
  }
  std::uint32_t count = 0;
  std::size_t fi = 0;  // merge pointer into the sorted front
  const std::size_t nfront = front_buf_.size();
  for (std::size_t k = tq_cursor_;
       k < two_qubit_.size() && count < window; ++k) {
    const std::uint32_t node = two_qubit_[k];
    if (scheduled_[idx(node)] != 0) continue;
    while (fi < nfront && front_buf_[fi] < node) ++fi;
    if (fi < nfront && front_buf_[fi] == node) continue;
    out[count++] = node;
  }
  return count;
}

void StreamRouteCore::mark_relevant(std::uint8_t* relevant) const {
  std::fill(relevant, relevant + num_phys_, std::uint8_t{0});
  for (const std::uint32_t node : front_buf_) {
    relevant[phys_of_[q0_[idx(node)]]] = 1;
    relevant[phys_of_[q1_[idx(node)]]] = 1;
  }
}

StreamRouteStats run_sabre_stream(GateSource& source, const Device& device,
                                  const Placement& initial, GateSink& sink,
                                  const StreamRouteOptions& options,
                                  const SabreLoopParams& params,
                                  const std::function<void()>& check_cancelled,
                                  SabreLoopStats* loop_stats) {
  const auto start_time = std::chrono::steady_clock::now();
  StreamRouteCore core(source, device, initial, options.chunk_gates,
                       params.enable_bridge);
  const std::size_t spill = std::max<std::size_t>(options.chunk_gates, 1);
  RoutingEmitter emitter(device, initial,
                         source.name() + "@" + device.name());
  // The emitter's resident buffer tops out around the spill threshold
  // (plus one flush pass of slack).
  emitter.reserve(spill * 2 + 16);
  emitter.set_sink(&sink, spill);
  const SabreLoopStats stats =
      run_sabre_loop(core, emitter, device.coupling(), device.num_qubits(),
                     params, check_cancelled);
  emitter.spill_all();
  sink.flush();
  if (loop_stats != nullptr) *loop_stats = stats;

  StreamRouteStats out;
  out.initial = initial;
  out.final = emitter.placement();
  out.added_swaps = emitter.added_swaps();
  out.added_moves = emitter.added_moves();
  out.added_bridges = emitter.added_bridges();
  out.direction_fixes = emitter.direction_fixes();
  out.gates_in = core.gates_seen();
  out.gates_out = emitter.total_emitted();
  out.window_peak_gates = core.window_peak_gates();
  out.runtime_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start_time)
                       .count();
  return out;
}

}  // namespace qmap
