// Operation schedulers (task 3 of Sec. III-A).
//
// `schedule_asap` / `schedule_alap` respect only gate dependencies and real
// gate durations — the "before mapping" baseline of Sec. V's latency
// comparison. `schedule_constrained` additionally enforces a stack of
// classical-control ResourceConstraints, reproducing the Sec. V claim that
// control sharing inflates the latency (~2x on the running example).
#pragma once

#include <memory>
#include <vector>

#include "arch/device.hpp"
#include "ir/circuit.hpp"
#include "obs/obs.hpp"
#include "schedule/constraints.hpp"
#include "schedule/schedule.hpp"

namespace qmap {

/// As-soon-as-possible list schedule (dependencies + durations only).
[[nodiscard]] Schedule schedule_asap(const Circuit& circuit,
                                     const Device& device);

/// As-late-as-possible schedule with the same overall latency as ASAP.
[[nodiscard]] Schedule schedule_alap(const Circuit& circuit,
                                     const Device& device);

/// Cycle-driven list scheduler honouring `constraints`. Gates are
/// prioritized by downstream critical-path length. With an empty constraint
/// stack this degrades to an ASAP schedule. Constraint checks see only the
/// gates still running at the current cycle. `obs` (maybe null) receives
/// cycle-advance / constraint-deferral counters and depth and running-window
/// peak histograms.
[[nodiscard]] Schedule schedule_constrained(
    const Circuit& circuit, const Device& device,
    const std::vector<std::unique_ptr<ResourceConstraint>>& constraints,
    obs::Observer* obs = nullptr);

/// Convenience: constrained schedule with the full Surface control stack
/// when the device declares control resources, plain ASAP otherwise.
[[nodiscard]] Schedule schedule_for_device(const Circuit& circuit,
                                           const Device& device,
                                           obs::Observer* obs = nullptr);

}  // namespace qmap
