// Measurement relocation (Sec. VI-A device types):
//
//   "when not all qubits can be directly measured ... additional gates are
//    required ... to move the quantum state towards measurable qubits."
//
// Rewrites a routed physical circuit so that every measurement lands on a
// measurable qubit, inserting SWAP chains along shortest coupling paths.
// The placement is updated in place so end-to-end equivalence checking
// keeps working.
//
// Supported shape: measurements on non-measurable qubits must be terminal
// (no further non-measurement gate after the first relocation) — the
// standard read-out-at-the-end pattern. A mid-circuit measurement on a
// measurable qubit is always fine.
#pragma once

#include "arch/device.hpp"
#include "ir/circuit.hpp"
#include "layout/placement.hpp"

namespace qmap {

/// Returns the rewritten circuit; `placement_io` (the routing's final
/// placement) is advanced over the inserted SWAPs. Throws MappingError for
/// unsupported shapes (unitary gates after a relocated measurement, or no
/// free measurable qubit reachable).
[[nodiscard]] Circuit relocate_measurements(const Circuit& circuit,
                                            const Device& device,
                                            Placement& placement_io);

}  // namespace qmap
