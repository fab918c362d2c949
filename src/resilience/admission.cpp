#include "resilience/admission.hpp"

#include <string>

namespace qmap::resilience {

std::string admission_verdict_name(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::Admit: return "admit";
    case AdmissionVerdict::DownTier: return "down-tier";
    case AdmissionVerdict::Reject: return "reject";
  }
  return "admit";
}

std::string AdmissionReport::to_string() const {
  std::string out = admission_verdict_name(verdict);
  for (const std::string& reason : reasons) out += "\n  " + reason;
  return out;
}

Json AdmissionReport::to_json() const {
  Json out;
  out["verdict"] = Json(admission_verdict_name(verdict));
  JsonArray reason_list;
  for (const std::string& reason : reasons) reason_list.push_back(Json(reason));
  out["reasons"] = Json(std::move(reason_list));
  out["estimated_strategy_bytes"] = Json(estimated_strategy_bytes);
  out["estimated_portfolio_bytes"] = Json(estimated_portfolio_bytes);
  out["gates"] = Json(metrics.total_gates);
  out["depth"] = Json(metrics.depth);
  return out;
}

AdmissionGuard::AdmissionGuard(const Device& device, ResourceBudget budget)
    : device_qubits_(device.num_qubits()),
      device_name_(device.name()),
      budget_(budget) {}

AdmissionReport AdmissionGuard::assess(const Circuit& circuit,
                                       std::size_t num_strategies,
                                       double deadline_ms) const {
  AdmissionReport report;
  report.metrics = compute_metrics(circuit);
  const std::size_t gates = report.metrics.total_gates;
  const int width = circuit.num_qubits();

  // Coarse peak-working-set model of one strategy run: the pipeline holds
  // ~6 circuit incarnations (original, lowered, routed, expanded, fused,
  // final) at ~80 bytes/gate, a schedule at ~48 bytes/op, and the shared
  // all-pairs distance tables at 8 bytes/entry. An order-of-magnitude guard,
  // not an accountant — budgets should carry 2x headroom anyway.
  report.estimated_strategy_bytes =
      gates * (6 * 80 + 48) +
      static_cast<std::size_t>(device_qubits_) *
          static_cast<std::size_t>(device_qubits_) * 8 +
      (std::size_t(1) << 16);
  report.estimated_portfolio_bytes =
      report.estimated_strategy_bytes * (num_strategies > 0 ? num_strategies
                                                            : 1);

  const auto reject = [&report](std::string reason) {
    report.verdict = AdmissionVerdict::Reject;
    report.reasons.push_back(std::move(reason));
  };
  const auto down_tier = [&report](std::string reason) {
    if (report.verdict == AdmissionVerdict::Admit) {
      report.verdict = AdmissionVerdict::DownTier;
    }
    report.reasons.push_back(std::move(reason));
  };

  // --- Structured validation: requests that can never succeed. ---
  if (width < 1) {
    reject("circuit has no qubits");
  }
  if (width > device_qubits_) {
    reject("circuit uses " + std::to_string(width) + " qubits but device '" +
           device_name_ + "' has " + std::to_string(device_qubits_));
  }
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& gate = circuit.gate(i);
    bool bad = false;
    for (const int q : gate.qubits) bad = bad || q < 0 || q >= width;
    if (gate.qubits.size() == 2 && gate.qubits[0] == gate.qubits[1]) {
      bad = true;
    }
    if (bad) {
      reject("gate " + std::to_string(i) + " (" + gate.to_string() +
             ") has malformed operands for a " + std::to_string(width) +
             "-qubit circuit");
      break;  // one structural finding is enough to fail fast
    }
  }

  // --- Hard resource budgets. ---
  if (budget_.max_gates > 0 && gates > budget_.max_gates) {
    reject("gate count " + std::to_string(gates) +
           " exceeds budget max_gates " + std::to_string(budget_.max_gates));
  }
  if (budget_.max_depth > 0 && report.metrics.depth > budget_.max_depth) {
    reject("depth " + std::to_string(report.metrics.depth) +
           " exceeds budget max_depth " + std::to_string(budget_.max_depth));
  }
  if (budget_.max_memory_bytes > 0 &&
      report.estimated_strategy_bytes > budget_.max_memory_bytes) {
    reject("estimated working set " +
           std::to_string(report.estimated_strategy_bytes) +
           " bytes exceeds budget max_memory_bytes " +
           std::to_string(budget_.max_memory_bytes) +
           " even for a single strategy");
  }
  if (report.verdict == AdmissionVerdict::Reject) return report;

  // --- Soft budgets: admit, but skip the expensive portfolio rung. ---
  if (budget_.max_memory_bytes > 0 && num_strategies > 1 &&
      report.estimated_portfolio_bytes > budget_.max_memory_bytes) {
    down_tier("portfolio race of " + std::to_string(num_strategies) +
              " strategies estimated at " +
              std::to_string(report.estimated_portfolio_bytes) +
              " bytes exceeds max_memory_bytes " +
              std::to_string(budget_.max_memory_bytes) +
              "; starting at the single-strategy rung");
  }
  if (deadline_ms > 0.0 && deadline_ms < kMinRaceDeadlineMs) {
    down_tier("deadline " + std::to_string(deadline_ms) +
              " ms is below min_race_deadline_ms " +
              std::to_string(kMinRaceDeadlineMs) +
              "; starting at the single-strategy rung");
  }
  return report;
}

}  // namespace qmap::resilience
