#include "verify/validity.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "schedule/constraints.hpp"

namespace qmap::verify {

std::string violation_kind_name(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::WidthMismatch: return "width-mismatch";
    case Violation::Kind::NonNativeGate: return "non-native-gate";
    case Violation::Kind::UncoupledOperands: return "uncoupled-operands";
    case Violation::Kind::BadOrientation: return "bad-orientation";
    case Violation::Kind::UnmeasurableQubit: return "unmeasurable-qubit";
    case Violation::Kind::ShuttleUnsupported: return "shuttle-unsupported";
    case Violation::Kind::BadPlacement: return "bad-placement";
    case Violation::Kind::BadDuration: return "bad-duration";
    case Violation::Kind::QubitOverlap: return "qubit-overlap";
    case Violation::Kind::OrderMismatch: return "order-mismatch";
    case Violation::Kind::ControlConflict: return "control-conflict";
  }
  return "unknown";
}

std::string Violation::to_string() const {
  std::string out = violation_kind_name(kind);
  if (index != npos) out += " @" + std::to_string(index);
  out += ": " + message;
  return out;
}

std::string ValidityReport::to_string() const {
  if (ok()) return "valid";
  std::string out;
  for (const Violation& v : violations) out += v.to_string() + "\n";
  return out;
}

Json ValidityReport::to_json() const {
  Json out;
  out["ok"] = Json(ok());
  JsonArray list;
  for (const Violation& v : violations) {
    Json entry;
    entry["kind"] = Json(violation_kind_name(v.kind));
    if (v.index != Violation::npos) {
      entry["index"] = Json(v.index);
    }
    entry["message"] = Json(v.message);
    list.push_back(std::move(entry));
  }
  out["violations"] = Json(std::move(list));
  return out;
}

void ValidityReport::merge(ValidityReport other) {
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

ValidityChecker::ValidityChecker(Device device, CheckOptions options)
    : device_(std::move(device)), options_(options) {}

bool ValidityChecker::full_(const ValidityReport& report) const {
  return report.violations.size() >= kMaxViolations;
}

void ValidityChecker::add_(ValidityReport& report, Violation::Kind kind,
                           std::size_t index, std::string message) const {
  if (full_(report)) return;
  report.violations.push_back(Violation{kind, index, std::move(message)});
}

ValidityReport ValidityChecker::check_circuit(const Circuit& circuit) const {
  ValidityReport report;
  if (circuit.num_qubits() > device_.num_qubits()) {
    add_(report, Violation::Kind::WidthMismatch, Violation::npos,
         "circuit has " + std::to_string(circuit.num_qubits()) +
             " qubits, device '" + device_.name() + "' has " +
             std::to_string(device_.num_qubits()));
    // Operand indices may exceed the device register; per-gate coupling
    // queries would throw, so stop here.
    return report;
  }
  const CouplingGraph& coupling = device_.coupling();
  for (std::size_t i = 0; i < circuit.size() && !full_(report); ++i) {
    const Gate& gate = circuit.gate(i);
    if (gate.kind == GateKind::Barrier) continue;
    if (gate.kind == GateKind::Measure) {
      if (!device_.measurable(gate.qubits[0])) {
        add_(report, Violation::Kind::UnmeasurableQubit, i,
             gate.to_string() + ": qubit has no direct readout");
      }
      continue;
    }
    if (gate.kind == GateKind::Move && !device_.supports_shuttling()) {
      add_(report, Violation::Kind::ShuttleUnsupported, i,
           gate.to_string() + ": device does not support shuttling");
    }
    if (options_.require_native && gate.kind != GateKind::Move &&
        !device_.is_native_kind(gate.kind)) {
      add_(report, Violation::Kind::NonNativeGate, i,
           gate.to_string() + ": not in the native set of '" +
               device_.name() + "'");
    }
    if (gate.is_two_qubit()) {
      const int a = gate.qubits[0];
      const int b = gate.qubits[1];
      if (!coupling.connected(a, b)) {
        add_(report, Violation::Kind::UncoupledOperands, i,
             gate.to_string() + ": qubits are not coupled");
      } else if (gate.is_directional() &&
                 !coupling.orientation_allowed(a, b)) {
        add_(report, Violation::Kind::BadOrientation, i,
             gate.to_string() + ": orientation forbidden (allowed: " +
                 std::to_string(b) + " -> " + std::to_string(a) + ")");
      }
    }
  }
  return report;
}

ValidityReport ValidityChecker::check_placement(
    const Placement& placement) const {
  ValidityReport report;
  const int m = device_.num_qubits();
  if (placement.num_physical_qubits() != m) {
    add_(report, Violation::Kind::BadPlacement, Violation::npos,
         "placement covers " +
             std::to_string(placement.num_physical_qubits()) +
             " physical qubits, device has " + std::to_string(m));
    return report;
  }
  std::vector<bool> used(static_cast<std::size_t>(m), false);
  for (int w = 0; w < m; ++w) {
    const int p = placement.wire_to_phys()[static_cast<std::size_t>(w)];
    if (p < 0 || p >= m) {
      add_(report, Violation::Kind::BadPlacement, Violation::npos,
           "wire " + std::to_string(w) + " mapped to invalid qubit " +
               std::to_string(p));
      continue;
    }
    if (used[static_cast<std::size_t>(p)]) {
      add_(report, Violation::Kind::BadPlacement, Violation::npos,
           "physical qubit " + std::to_string(p) +
               " holds more than one wire");
    }
    used[static_cast<std::size_t>(p)] = true;
  }
  return report;
}

ValidityReport ValidityChecker::check_schedule(const Schedule& schedule,
                                               const Circuit& source) const {
  ValidityReport report;
  const auto& ops = schedule.operations();

  // Admission order: by start cycle, ties broken by insertion order (the
  // order the scheduler actually admitted them).
  std::vector<std::size_t> order(ops.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&ops](std::size_t a, std::size_t b) {
                     return ops[a].start_cycle < ops[b].start_cycle;
                   });

  // Durations must match the device's timing model.
  for (std::size_t i = 0; i < ops.size() && !full_(report); ++i) {
    const int expected = device_.cycles_for(ops[i].gate);
    if (ops[i].duration_cycles != expected) {
      add_(report, Violation::Kind::BadDuration, i,
           ops[i].gate.to_string() + ": scheduled for " +
               std::to_string(ops[i].duration_cycles) + " cycles, device says " +
               std::to_string(expected));
    }
  }

  // Per-qubit audit: no double-booking, and the per-qubit gate sequence of
  // the schedule must equal the source program order. Both sides' lanes
  // are built in one walk.
  const int width = std::max(schedule.num_qubits(), source.num_qubits());
  std::vector<std::vector<std::size_t>> per_qubit(
      static_cast<std::size_t>(width));
  for (const std::size_t i : order) {
    if (ops[i].gate.kind == GateKind::Barrier) continue;
    for (const int q : ops[i].gate.qubits) {
      per_qubit[static_cast<std::size_t>(q)].push_back(i);
    }
  }
  std::vector<std::vector<const Gate*>> source_lanes(
      static_cast<std::size_t>(width));
  for (const Gate& gate : source) {
    if (gate.kind == GateKind::Barrier) continue;
    for (auto q = gate.qubits.begin(); q != gate.qubits.end(); ++q) {
      // A gate joins each of its qubits' lanes once.
      if (std::find(gate.qubits.begin(), q, *q) == q) {
        source_lanes[static_cast<std::size_t>(*q)].push_back(&gate);
      }
    }
  }
  for (int q = 0; q < width && !full_(report); ++q) {
    const auto& lane = per_qubit[static_cast<std::size_t>(q)];
    for (const LaneOverlap& overlap : lane_overlaps(ops, lane)) {
      add_(report, Violation::Kind::QubitOverlap, overlap.later,
           ops[overlap.later].gate.to_string() + " overlaps " +
               ops[overlap.earlier].gate.to_string() + " on qubit " +
               std::to_string(q));
    }
    // Source-order comparison.
    const auto& expected = source_lanes[static_cast<std::size_t>(q)];
    if (expected.size() != lane.size()) {
      add_(report, Violation::Kind::OrderMismatch, Violation::npos,
           "qubit " + std::to_string(q) + ": schedule has " +
               std::to_string(lane.size()) + " gates, source has " +
               std::to_string(expected.size()));
      continue;
    }
    for (std::size_t k = 0; k < lane.size(); ++k) {
      if (!(ops[lane[k]].gate == *expected[k])) {
        add_(report, Violation::Kind::OrderMismatch, lane[k],
             "qubit " + std::to_string(q) + ": scheduled '" +
                 ops[lane[k]].gate.to_string() + "' where program order has '" +
                 expected[k]->to_string() + "'");
        break;
      }
    }
  }

  // Classical-control constraint re-audit (Sec. V), replayed in admission
  // order exactly as the constrained scheduler admits operations. Starts
  // never decrease in that order, so an op that ended at or before the
  // current start overlaps no later op either and leaves the window.
  if (options_.check_control_constraints) {
    const ConstraintStack constraints = constraints_for_device(device_);
    if (!constraints.empty()) {
      ControlTable table(device_);
      table.reserve(ops.size());
      for (const ScheduledGate& op : ops) table.add(op);
      ControlWindow running(table);
      for (const std::size_t i : order) {
        if (full_(report)) break;
        const auto op = static_cast<std::uint32_t>(i);
        running.drop_ended(table[op].start);
        for (const auto& constraint : constraints) {
          if (!constraint->compatible(op, running)) {
            add_(report, Violation::Kind::ControlConflict, i,
                 ops[i].gate.to_string() + " at cycle " +
                     std::to_string(ops[i].start_cycle) + " violates '" +
                     constraint->name() + "'");
          }
        }
        running.add(op);
      }
    }
  }
  return report;
}

ValidityReport ValidityChecker::check_result(
    const CompilationResult& result) const {
  ValidityReport report = check_placement(result.routing.initial);
  report.merge(check_placement(result.routing.final));
  report.merge(check_circuit(result.final_circuit));
  if (result.schedule.size() > 0) {
    report.merge(check_schedule(result.schedule, result.final_circuit));
  }
  return report;
}

}  // namespace qmap::verify
