// Operation schedulers (task 3 of Sec. III-A).
//
// `schedule_asap` / `schedule_alap` respect only gate dependencies and real
// gate durations — the "before mapping" baseline of Sec. V's latency
// comparison. `schedule_constrained` additionally enforces a stack of
// classical-control ResourceConstraints, reproducing the Sec. V claim that
// control sharing inflates the latency (~2x on the running example).
//
// The constrained scheduler works on node indices: each node's duration,
// control facts (a ControlTable) and critical-path rank are computed once,
// the ready set is kept in rank order and the running window holds node
// indices. The Schedule, with its Gate copies, is built once at the end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/device.hpp"
#include "ir/circuit.hpp"
#include "obs/obs.hpp"
#include "route/route_ir.hpp"
#include "schedule/constraints.hpp"
#include "schedule/schedule.hpp"

namespace qmap {

/// The dependency-only ASAP sweep: per-qubit availability plus a running
/// maximum. Gates pushed in program order start as soon as all their qubits
/// are free. schedule_asap and schedule_alap record every start; the
/// decompose stage reads only total_cycles(), so its baseline latency
/// needs no Schedule.
class AsapSweep {
 public:
  explicit AsapSweep(int num_qubits)
      : available_(static_cast<std::size_t>(num_qubits), 0) {}

  /// Places `gate` for `duration` cycles; returns its start cycle.
  int push(const Gate& gate, int duration) {
    int start = 0;
    for (const int q : gate.qubits) {
      start = std::max(start, available_[static_cast<std::size_t>(q)]);
    }
    for (const int q : gate.qubits) {
      available_[static_cast<std::size_t>(q)] = start + duration;
    }
    total_ = std::max(total_, start + duration);
    return start;
  }

  /// Latest end cycle so far: schedule_asap(...).total_cycles() of the
  /// gates pushed.
  [[nodiscard]] int total_cycles() const noexcept { return total_; }

 private:
  std::vector<int> available_;
  int total_ = 0;
};

/// As-soon-as-possible list schedule (dependencies + durations only).
[[nodiscard]] Schedule schedule_asap(const Circuit& circuit,
                                     const Device& device);

/// As-late-as-possible schedule with the same overall latency as ASAP.
[[nodiscard]] Schedule schedule_alap(const Circuit& circuit,
                                     const Device& device);

/// Every node's critical-path rank as a sort key: a smaller key comes
/// first, ordering nodes by downstream critical-path length (own duration,
/// `table[node].duration`, included) descending, then by index ascending.
/// Node i of `ir` is op i of `table`.
[[nodiscard]] std::vector<std::uint64_t> critical_path_ranks(
    const RouteIR& ir, const ControlTable& table);

/// Cycle-driven list scheduler honouring `constraints`. Each cycle it
/// walks the nodes ready at its start in critical-path rank order and
/// admits every one whose operands are idle and which every constraint
/// admits. With an empty constraint stack this degrades to an ASAP
/// schedule. Constraint checks see only the gates still running at the
/// current cycle. `obs` (maybe null) receives cycle-advance /
/// constraint-deferral counters and depth and running-window peak
/// histograms.
[[nodiscard]] Schedule schedule_constrained(
    const Circuit& circuit, const Device& device,
    const ConstraintStack& constraints, obs::Observer* obs = nullptr);

/// Convenience: constrained schedule with the full Surface control stack
/// when the device declares control resources, plain ASAP otherwise.
[[nodiscard]] Schedule schedule_for_device(const Circuit& circuit,
                                           const Device& device,
                                           obs::Observer* obs = nullptr);

}  // namespace qmap
