// ExecutionSnapshot — the mapper-internal representation of Sec. VI-B,
// made concrete:
//
//   "the execution snapshot is a complete description of the algorithm and
//    its current, usually partial, schedule. It contains:
//      - the dependency graph of the algorithm with the indication of which
//        gates have already been scheduled
//      - the initial placement [...]
//      - the current placement of the qubits
//      - the partial schedule with the timing information and explicit
//        parallelism
//      - the settings of the control electronics for the execution."
//
// The snapshot wraps a physical-qubit circuit and schedules it one gate at
// a time (critical-path priority, earliest feasible cycle under the
// device's control constraints), exposing every intermediate state the
// paper lists. Running it to completion yields the same class of schedule
// as schedule_constrained.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "layout/placement.hpp"
#include "route/route_ir.hpp"
#include "schedule/constraints.hpp"
#include "schedule/schedule.hpp"

namespace qmap {

class ExecutionSnapshot {
 public:
  /// `circuit` must be on physical qubits (routed); `initial` is the
  /// placement the router started from.
  ExecutionSnapshot(Circuit circuit, const Device& device, Placement initial);
  // The front layer points into ir_, so the snapshot stays where it is.
  ExecutionSnapshot(const ExecutionSnapshot&) = delete;
  ExecutionSnapshot& operator=(const ExecutionSnapshot&) = delete;

  // --- Sec. VI-B components ---

  /// Dependency graph with Scheduled / Ready / Pending colours: scheduled()
  /// gates, the ready() list, and every other gate pending.
  [[nodiscard]] const FrontLayer& dependency_graph() const { return front_; }
  [[nodiscard]] const Placement& initial_placement() const {
    return initial_;
  }
  /// Placement after the SWAPs scheduled so far.
  [[nodiscard]] const Placement& current_placement() const {
    return current_;
  }
  /// The partial schedule (timing + explicit parallelism).
  [[nodiscard]] const Schedule& partial_schedule() const { return schedule_; }
  /// Control-electronics settings: for every (cycle, frequency group) the
  /// waveform the shared AWG is playing. Empty for unconstrained devices.
  [[nodiscard]] std::map<std::pair<int, int>, std::string> control_settings()
      const;

  // --- Stepping ---

  /// Schedules one more gate (highest-priority ready gate at its earliest
  /// feasible cycle). Returns false when every gate is scheduled.
  bool step();
  /// Steps until completion; returns the final schedule latency in cycles.
  int run_to_completion();
  [[nodiscard]] bool complete() const { return front_.all_scheduled(); }

  [[nodiscard]] std::string to_string() const;

 private:
  Circuit circuit_;
  const Device* device_;
  RouteArena arena_;  // holds ir_'s arrays and front_'s worklist
  RouteIR ir_;
  FrontLayer front_;
  Placement initial_;
  Placement current_;
  Schedule schedule_;
  std::vector<std::unique_ptr<ResourceConstraint>> constraints_;
  std::vector<double> priority_;
  std::vector<int> qubit_busy_;  // per physical qubit
};

}  // namespace qmap
