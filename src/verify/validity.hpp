// Mapping-validity auditing.
//
// The paper's implicit contract for a mapped circuit: every two-qubit gate
// sits on a coupling-graph edge with an allowed CNOT orientation (Sec. IV),
// only native gates remain after decomposition (Sec. IV/V), measurements
// only touch measurable qubits (Sec. VI-A), and the schedule respects real
// gate durations plus the Surface-17 classical-control constraints —
// shared microwave generators, measurement feedlines, CZ parking (Sec. V).
// MQT QMAP calls this the "validity" half of verification (the other half,
// functional equivalence, lives in sim/equivalence.hpp); the checker here
// audits a circuit/schedule/CompilationResult against a Device and returns
// a structured report instead of a bare bool, so fuzzing and CI can say
// *which* invariant broke and where.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "common/json.hpp"
#include "core/compiler.hpp"
#include "ir/circuit.hpp"
#include "layout/placement.hpp"
#include "schedule/schedule.hpp"

namespace qmap::verify {

/// One broken invariant, tied to the gate (or schedule operation) index
/// where it was detected.
struct Violation {
  enum class Kind {
    WidthMismatch,       // circuit wider than the device
    NonNativeGate,       // gate kind outside the native set
    UncoupledOperands,   // two-qubit gate off the coupling graph
    BadOrientation,      // directional gate against the allowed direction
    UnmeasurableQubit,   // measurement on a qubit without readout
    ShuttleUnsupported,  // Move on a device without shuttling
    BadPlacement,        // placement is not a bijection onto the device
    BadDuration,         // scheduled duration != device duration
    QubitOverlap,        // schedule runs two gates on one qubit at once
    OrderMismatch,       // schedule reorders a qubit's gate sequence
    ControlConflict,     // classical-control resource constraint violated
  };

  Kind kind = Kind::WidthMismatch;
  /// Index into the audited circuit's gate list (or the schedule's
  /// operation list); npos for circuit-level findings.
  std::size_t index = npos;
  std::string message;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] std::string violation_kind_name(Violation::Kind kind);

/// Audit outcome: empty violation list == valid.
struct ValidityReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// One violation per line; "valid" when ok().
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] Json to_json() const;

  /// Concatenates another report's findings (used by check_result).
  void merge(ValidityReport other);
};

struct CheckOptions {
  /// Audit gate kinds against the device native set. Disable for
  /// pre-lowering circuits that legitimately contain SWAP placeholders
  /// or un-decomposed single-qubit gates.
  bool require_native = true;
  /// Re-audit the classical-control constraint stack
  /// (constraints_for_device) over the schedule. Disable when the
  /// schedule was deliberately built without control constraints.
  bool check_control_constraints = true;
};

/// A report stops collecting after this many violations: a fuzzer
/// shrinking a badly broken circuit only needs the first few.
inline constexpr std::size_t kMaxViolations = 64;

class ValidityChecker {
 public:
  explicit ValidityChecker(Device device, CheckOptions options = {});

  [[nodiscard]] const Device& device() const noexcept { return device_; }

  /// Gate-level audit: width, native kinds, coupling, orientation,
  /// measurability, shuttling support.
  [[nodiscard]] ValidityReport check_circuit(const Circuit& circuit) const;

  /// Placement audit: one wire per physical qubit, bijective.
  [[nodiscard]] ValidityReport check_placement(
      const Placement& placement) const;

  /// Schedule audit against its source circuit: durations match the
  /// device, no qubit is double-booked, per-qubit gate order is preserved,
  /// and every operation is compatible with the device's classical-control
  /// constraint stack (Sec. V) re-checked in admission order.
  [[nodiscard]] ValidityReport check_schedule(const Schedule& schedule,
                                              const Circuit& source) const;

  /// Full end-to-end audit of a compilation result: both placements, the
  /// final circuit, and the schedule whenever the result carries one.
  [[nodiscard]] ValidityReport check_result(
      const CompilationResult& result) const;

 private:
  [[nodiscard]] bool full_(const ValidityReport& report) const;
  void add_(ValidityReport& report, Violation::Kind kind, std::size_t index,
            std::string message) const;

  Device device_;
  CheckOptions options_;
};

}  // namespace qmap::verify
