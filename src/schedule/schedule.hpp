// Schedule: gates with explicit start cycles — the paper's "partial
// schedule with the timing information and explicit parallelism"
// (Sec. VI-B), discretized into clock cycles ("the greatest common divisor
// of the gates' duration").
#pragma once

#include <string>
#include <vector>

#include "arch/device.hpp"
#include "ir/circuit.hpp"

namespace qmap {

struct ScheduledGate {
  Gate gate;
  int start_cycle = 0;
  int duration_cycles = 0;

  [[nodiscard]] int end_cycle() const { return start_cycle + duration_cycles; }
  /// True when the execution windows of the two gates overlap.
  [[nodiscard]] bool overlaps(const ScheduledGate& other) const {
    return start_cycle < other.end_cycle() && other.start_cycle < end_cycle();
  }
};

/// One overlap on a qubit lane: operation `later` starts while operation
/// `earlier` is still running (indices into the operation list).
struct LaneOverlap {
  std::size_t later;
  std::size_t earlier;
};

/// The overlaps along one qubit lane. `lane` holds indices into `ops` in
/// start order; every op that overlaps an earlier op of the lane is
/// reported once, paired with the earlier op that ends last. The earlier
/// ops that start before an op ends form a prefix of the lane, so a
/// prefix maximum of their end cycles finds every overlap. Comparing lane
/// neighbours only would miss y in measure [0,30), x [1,2), y [5,6), and
/// two gates that overlap across a zero-duration barrier between them.
[[nodiscard]] std::vector<LaneOverlap> lane_overlaps(
    const std::vector<ScheduledGate>& ops,
    const std::vector<std::size_t>& lane);

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(int num_qubits) : num_qubits_(num_qubits) {}

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] const std::vector<ScheduledGate>& operations() const noexcept {
    return operations_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return operations_.size();
  }

  void reserve(std::size_t ops) { operations_.reserve(ops); }
  void add(ScheduledGate op) { operations_.push_back(std::move(op)); }

  /// Total latency in cycles (max end cycle).
  [[nodiscard]] int total_cycles() const;
  /// Latency in nanoseconds under `cycle_ns`.
  [[nodiscard]] double total_ns(double cycle_ns) const {
    return total_cycles() * cycle_ns;
  }

  /// The flat circuit in start-cycle order (ties: insertion order).
  [[nodiscard]] Circuit to_circuit(const std::string& name = "scheduled") const;

  /// Checks that no two overlapping gates share a qubit and that gates on a
  /// common qubit appear in an order consistent with `source` program order
  /// (same relative order of that qubit's gates).
  [[nodiscard]] bool is_consistent_with(const Circuit& source) const;

  /// Cycle-discretized table, one row per cycle, one column per qubit
  /// (Sec. VI-B's schedule representation).
  [[nodiscard]] std::string to_table() const;

 private:
  int num_qubits_ = 0;
  std::vector<ScheduledGate> operations_;
};

}  // namespace qmap
