// Classical-control resource constraints (Sec. V).
//
// "control instruments need to be shared among different qubits. This
//  restriction may severely affect the scheduling of quantum operations as
//  it will limit the possible parallelism leading to larger circuit depths."
//
// Three concrete Surface-17 constraints are modelled:
//  * SharedMicrowaveConstraint — qubits in one frequency group share an
//    AWG: concurrently executing single-qubit gates on same-group qubits
//    must be the *same* gate, started in the same cycle.
//  * FeedlineConstraint — measurements on one feedline either start in the
//    same cycle or do not overlap at all.
//  * ParkingConstraint — while CZ(a,b) runs, the frequency-adjacent
//    neighbours Device::parked_qubits(a,b) names are detuned and may not
//    execute anything.
// plus the trapped-ion TwoQubitParallelismConstraint.
//
// Each rule is written once, as its class's compatible(), over a
// ControlTable and a ControlWindow. The table holds the operations under
// consideration by index, each a ControlOp whose control facts (class,
// frequency group, feedline, parked qubits) are derived once from its gate
// and the device; the window holds the indices a candidate is checked
// against, grouped by class. The constrained scheduler, the execution
// snapshot and ValidityChecker's re-audit all call these rules; none
// re-derives a fact per check.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "schedule/schedule.hpp"

namespace qmap {

/// What the control rules distinguish about an operation.
enum class ControlClass : std::uint8_t {
  SingleQubit,  // one-qubit unitary: a pulse from its group's AWG
  Measure,      // a readout on its feedline
  CZ,           // a flux pulse that parks frequency-adjacent neighbours
  Other,
};
inline constexpr std::size_t kControlClasses = 4;

/// One operation as the control rules see it: its gate, timing and the
/// control facts derived once from the gate and the device.
struct ControlOp {
  const Gate* gate;
  int start;
  int duration;
  ControlClass kind;
  bool two_qubit;
  int group;                   // SingleQubit: its qubit's frequency group
  int feedline;                // Measure: its qubit's feedline
  std::uint32_t parked_begin;  // CZ: its parked qubits in the table
  std::uint32_t parked_end;

  [[nodiscard]] int end() const { return start + duration; }
  /// True when the execution windows of the two ops overlap.
  [[nodiscard]] bool overlaps(const ControlOp& other) const {
    return start < other.end() && other.start < end();
  }
};

/// Operations by index. The table points at the gates it was given,
/// which must outlive it.
class ControlTable {
 public:
  explicit ControlTable(const Device& device) : device_(&device) {}

  void reserve(std::size_t ops) { ops_.reserve(ops); }
  /// Derives `gate`'s control facts and returns the new op's index.
  std::uint32_t add(const Gate& gate, int start, int duration);
  std::uint32_t add(const ScheduledGate& op) {
    return add(op.gate, op.start_cycle, op.duration_cycles);
  }
  std::uint32_t add(Gate&&, int, int) = delete;
  std::uint32_t add(ScheduledGate&&) = delete;
  void set_start(std::uint32_t op, int start) { ops_[op].start = start; }

  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] const ControlOp& operator[](std::uint32_t op) const {
    return ops_[op];
  }
  /// Qubits `op` parks (empty unless it is a CZ).
  [[nodiscard]] std::span<const int> parked(const ControlOp& op) const {
    return {parked_.data() + op.parked_begin, parked_.data() + op.parked_end};
  }

 private:
  const Device* device_;
  std::vector<ControlOp> ops_;
  std::vector<int> parked_;
};

/// The ops of a ControlTable a candidate is checked against, kept apart
/// by control class so that each rule scans only the classes it
/// constrains.
class ControlWindow {
 public:
  explicit ControlWindow(const ControlTable& table) : table_(&table) {}
  ControlWindow(const ControlTable& table,
                std::initializer_list<std::uint32_t> ops)
      : table_(&table) {
    for (const std::uint32_t op : ops) add(op);
  }

  [[nodiscard]] const ControlTable& table() const noexcept { return *table_; }
  void add(std::uint32_t op) {
    ops_[static_cast<std::size_t>((*table_)[op].kind)].push_back(op);
  }
  /// The window's ops of class `kind`.
  [[nodiscard]] const std::vector<std::uint32_t>& of(ControlClass kind) const {
    return ops_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::size_t size() const;
  /// Earliest end cycle among the window's ops (INT_MAX when empty).
  [[nodiscard]] int first_end() const;
  /// Drops every op that ends at or before `cycle`.
  void drop_ended(int cycle);

 private:
  const ControlTable* table_;
  std::array<std::vector<std::uint32_t>, kControlClasses> ops_;
};

class ResourceConstraint {
 public:
  virtual ~ResourceConstraint() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// True when op `candidate` of `running.table()` may run alongside the
  /// ops of `running`. Implementations must ignore ops that do not overlap
  /// `candidate`: callers pass their running window, which may still hold
  /// ops that already ended.
  [[nodiscard]] virtual bool compatible(std::uint32_t candidate,
                                        const ControlWindow& running) const = 0;
};

using ConstraintStack = std::vector<std::unique_ptr<ResourceConstraint>>;

/// True when every constraint of `constraints` admits `candidate`.
[[nodiscard]] bool admits(const ConstraintStack& constraints,
                          std::uint32_t candidate,
                          const ControlWindow& running);

class SharedMicrowaveConstraint final : public ResourceConstraint {
 public:
  [[nodiscard]] std::string name() const override {
    return "shared-microwave";
  }
  [[nodiscard]] bool compatible(std::uint32_t candidate,
                                const ControlWindow& running) const override;
};

class FeedlineConstraint final : public ResourceConstraint {
 public:
  [[nodiscard]] std::string name() const override { return "feedline"; }
  [[nodiscard]] bool compatible(std::uint32_t candidate,
                                const ControlWindow& running) const override;
};

class ParkingConstraint final : public ResourceConstraint {
 public:
  [[nodiscard]] std::string name() const override { return "cz-parking"; }
  [[nodiscard]] bool compatible(std::uint32_t candidate,
                                const ControlWindow& running) const override;
};

/// Limits device-wide two-qubit gate concurrency (Sec. VI-C: trapped ions
/// pay for all-to-all connectivity with "reduced two-qubit gate
/// parallelism" on the shared motional bus).
class TwoQubitParallelismConstraint final : public ResourceConstraint {
 public:
  explicit TwoQubitParallelismConstraint(int max_concurrent)
      : max_concurrent_(max_concurrent) {}
  [[nodiscard]] std::string name() const override {
    return "two-qubit-parallelism";
  }
  [[nodiscard]] bool compatible(std::uint32_t candidate,
                                const ControlWindow& running) const override;

 private:
  int max_concurrent_;
};

/// The full Surface-17 constraint stack.
[[nodiscard]] ConstraintStack surface_control_constraints();

/// The constraint stack appropriate for `device`: the Surface control
/// constraints when frequency groups / feedlines are declared, plus the
/// two-qubit parallelism limit when one is set. Empty for unconstrained
/// devices.
[[nodiscard]] ConstraintStack constraints_for_device(const Device& device);

}  // namespace qmap
