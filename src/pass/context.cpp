#include "pass/context.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "engine/cancel.hpp"

namespace qmap {

CompileContext::CompileContext(const Circuit& circuit, const Device& device,
                               PipelineRuntime runtime)
    : input_(&circuit), device_(&device), runtime_(std::move(runtime)) {
  if (runtime_.artifacts && runtime_.artifacts != device.artifacts()) {
    throw MappingError("runtime artifacts do not belong to device '" +
                       device.name() + "'");
  }
  result.original = circuit;
  result.original_metrics = compute_metrics(circuit);
  // A pipeline without a decompose pass routes the input verbatim.
  result.lowered = circuit;
}

void CompileContext::checkpoint() const {
  if (runtime_.cancel) runtime_.cancel->check();
}

namespace {

Json metrics_to_json(const CircuitMetrics& m) {
  Json out;
  out["total_gates"] = Json(m.total_gates);
  out["single_qubit_gates"] = Json(m.single_qubit_gates);
  out["two_qubit_gates"] = Json(m.two_qubit_gates);
  out["swap_gates"] = Json(m.swap_gates);
  out["measurements"] = Json(m.measurements);
  out["depth"] = Json(m.depth);
  out["two_qubit_depth"] = Json(m.two_qubit_depth);
  return out;
}

Json placement_to_json(const Placement& placement) {
  JsonArray array;
  for (const int p : placement.phys_to_program()) array.push_back(Json(p));
  return Json(std::move(array));
}

void append_placement(std::string& out, const Placement& placement) {
  for (const int p : placement.wire_to_phys()) {
    out += ' ';
    out += std::to_string(p);
  }
}

}  // namespace

Json CompilationResult::to_json() const {
  Json out;
  out["circuit"] = Json(original.name());
  out["original"] = metrics_to_json(original_metrics);
  out["mapped"] = metrics_to_json(final_metrics);
  Json routing_json;
  routing_json["added_swaps"] = Json(routing.added_swaps);
  routing_json["added_moves"] = Json(routing.added_moves);
  routing_json["direction_fixes"] = Json(routing.direction_fixes);
  routing_json["runtime_ms"] = Json(routing.runtime_ms);
  routing_json["initial_placement"] = placement_to_json(routing.initial);
  routing_json["final_placement"] = placement_to_json(routing.final);
  out["routing"] = std::move(routing_json);
  out["baseline_cycles"] = Json(baseline_cycles);
  out["scheduled_cycles"] = Json(scheduled_cycles);
  if (baseline_cycles > 0 && scheduled_cycles > 0) {
    out["latency_ratio"] = Json(latency_ratio());
  }
  return out;
}

std::string CompilationResult::report() const {
  std::string out;
  out += "circuit: " + original.name() + "\n";
  out += "  original: " + original_metrics.to_string() + "\n";
  out += "  mapped:   " + final_metrics.to_string() + "\n";
  out += "  routing:  " + routing.to_string() + "\n";
  char buffer[160];
  if (scheduled_cycles > 0) {
    std::snprintf(buffer, sizeof(buffer),
                  "  latency: %d cycles (baseline %d, ratio %.2fx)\n",
                  scheduled_cycles, baseline_cycles, latency_ratio());
    out += buffer;
  }
  return out;
}

std::string CompilationResult::fingerprint() const {
  std::string out;
  out += "circuit " + original.name() + "\n";
  out += "final " + final_circuit.name() + "\n";
  for (const Gate& gate : final_circuit.gates()) {
    gate.append_to(out);
    out += '\n';
  }
  out += "initial";
  append_placement(out, routing.initial);
  out += "\nfinal";
  append_placement(out, routing.final);
  out += "\nswaps " + std::to_string(routing.added_swaps) + " moves " +
         std::to_string(routing.added_moves) + " dirfixes " +
         std::to_string(routing.direction_fixes) + "\n";
  out += "original " + original_metrics.to_string() + "\n";
  out += "mapped " + final_metrics.to_string() + "\n";
  out += "cycles " + std::to_string(baseline_cycles) + " -> " +
         std::to_string(scheduled_cycles) + "\n";
  return out;
}

}  // namespace qmap
