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
//    neighbours for which Device::parks(a,b,q) holds are detuned and may
//    not execute anything.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "schedule/schedule.hpp"

namespace qmap {

class ResourceConstraint {
 public:
  virtual ~ResourceConstraint() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// True when `candidate` may run alongside the already-admitted,
  /// time-overlapping `running` operations. Implementations must ignore
  /// operations in `running` that do not overlap `candidate`: callers pass
  /// their running window, which may still hold gates that already ended.
  [[nodiscard]] virtual bool compatible(
      const ScheduledGate& candidate,
      const std::vector<ScheduledGate>& running,
      const Device& device) const = 0;
};

class SharedMicrowaveConstraint final : public ResourceConstraint {
 public:
  [[nodiscard]] std::string name() const override {
    return "shared-microwave";
  }
  [[nodiscard]] bool compatible(const ScheduledGate& candidate,
                                const std::vector<ScheduledGate>& running,
                                const Device& device) const override;
};

class FeedlineConstraint final : public ResourceConstraint {
 public:
  [[nodiscard]] std::string name() const override { return "feedline"; }
  [[nodiscard]] bool compatible(const ScheduledGate& candidate,
                                const std::vector<ScheduledGate>& running,
                                const Device& device) const override;
};

class ParkingConstraint final : public ResourceConstraint {
 public:
  [[nodiscard]] std::string name() const override { return "cz-parking"; }
  [[nodiscard]] bool compatible(const ScheduledGate& candidate,
                                const std::vector<ScheduledGate>& running,
                                const Device& device) const override;
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
  [[nodiscard]] bool compatible(const ScheduledGate& candidate,
                                const std::vector<ScheduledGate>& running,
                                const Device& device) const override;

 private:
  int max_concurrent_;
};

/// The full Surface-17 constraint stack.
[[nodiscard]] std::vector<std::unique_ptr<ResourceConstraint>>
surface_control_constraints();

/// The constraint stack appropriate for `device`: the Surface control
/// constraints when frequency groups / feedlines are declared, plus the
/// two-qubit parallelism limit when one is set. Empty for unconstrained
/// devices.
[[nodiscard]] std::vector<std::unique_ptr<ResourceConstraint>>
constraints_for_device(const Device& device);

}  // namespace qmap
