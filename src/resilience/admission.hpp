// Admission control: reject or down-tier a compile request *before*
// spending compute on it.
//
// A mapping service (the paper's Fig. 2 pipeline behind an API) must not
// let one pathological request — a 10^7-gate circuit, a width beyond the
// device, a deadline too tight to race a portfolio — monopolize the worker
// pool and starve its neighbours. The AdmissionGuard runs structured
// validation plus coarse resource budgeting on the request and returns one
// of three verdicts:
//
//   Admit    — run the full fallback ladder starting at the portfolio rung;
//   DownTier — skip the portfolio race and start at the cheaper
//              single-strategy rung (the circuit fits the device but a
//              full race would blow the memory or wall-clock budget);
//   Reject   — the request can never succeed (wider than the device,
//              malformed gates) or exceeds hard budgets; fail fast with a
//              structured reason list instead of timing out later.
//
// Every reason names the offending quantity and both sides of the
// comparison, so a rejected caller knows what to shrink.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "common/json.hpp"
#include "ir/circuit.hpp"
#include "ir/metrics.hpp"

namespace qmap::resilience {

/// Deadlines shorter than this down-tier past the portfolio rung: a race
/// that will be cancelled before any strategy can finish only burns the
/// budget the fallback rungs need. The down-tier reason still calls it
/// `min_race_deadline_ms`: the text ends up in outcome JSON.
inline constexpr double kMinRaceDeadlineMs = 10.0;

/// Hard and soft budgets for one compile request. Zero means "no limit"
/// everywhere. The circuit width is always capped by the device width.
struct ResourceBudget {
  /// Hard cap on gate count.
  std::size_t max_gates = 200000;
  /// Hard cap on circuit depth (unit-duration critical path).
  int max_depth = 100000;
  /// Soft cap on the estimated peak working set. A portfolio race that
  /// exceeds it down-tiers to the single-strategy rung (1/N of the
  /// estimate); a single strategy exceeding it rejects.
  std::size_t max_memory_bytes = std::size_t(512) << 20;
};

enum class AdmissionVerdict { Admit, DownTier, Reject };

[[nodiscard]] std::string admission_verdict_name(AdmissionVerdict verdict);

struct AdmissionReport {
  AdmissionVerdict verdict = AdmissionVerdict::Admit;
  /// One entry per failed check; empty when verdict == Admit.
  std::vector<std::string> reasons;
  /// Estimated peak working set of one strategy run (bytes).
  std::size_t estimated_strategy_bytes = 0;
  /// The same estimate scaled by the number of racing strategies.
  std::size_t estimated_portfolio_bytes = 0;
  CircuitMetrics metrics;

  [[nodiscard]] bool admitted() const noexcept {
    return verdict != AdmissionVerdict::Reject;
  }
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] Json to_json() const;
};

class AdmissionGuard {
 public:
  AdmissionGuard(const Device& device, ResourceBudget budget);

  /// Assesses one request. `num_strategies` is the width of the portfolio
  /// rung's race (used for the memory estimate); `deadline_ms` the total
  /// wall-clock budget (0 = none).
  [[nodiscard]] AdmissionReport assess(const Circuit& circuit,
                                       std::size_t num_strategies = 1,
                                       double deadline_ms = 0.0) const;

  [[nodiscard]] const ResourceBudget& budget() const noexcept {
    return budget_;
  }

 private:
  int device_qubits_ = 0;
  std::string device_name_;
  ResourceBudget budget_;
};

}  // namespace qmap::resilience
