// Portfolio engine walkthrough: compile one workload-suite circuit on
// Surface-17 with the full default strategy portfolio, print the
// per-strategy telemetry table, the observability span tree of the race,
// and the JSON blob a service would log, then compile several circuits
// with ResilientCompiler::compile_batch, which races the same portfolio
// per circuit on one shared pool. Exits non-zero if any result fails
// simulation-based verification.
#include <iostream>

#include "arch/builtin.hpp"
#include "core/report.hpp"
#include "engine/portfolio.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace qmap;

  const Device device = devices::surface17();
  const Circuit circuit = workloads::qft(5);

  // --- One circuit, the whole portfolio -----------------------------------
  obs::Observer observer;
  PortfolioOptions options;
  options.cost_name = "gates";          // select by routed 2q-gate count
  options.strategy_deadline_ms = 2000;  // soft cap per strategy
  options.obs = &observer;              // record spans + metrics
  const PortfolioCompiler portfolio(device, options);

  std::cout << "racing " << portfolio.strategies().size()
            << " strategies for " << circuit.name() << " on "
            << device.name() << "...\n\n";
  const PortfolioResult result = portfolio.compile(circuit);
  std::cout << result.report() << "\n";

  if (!Compiler::verify(result.best)) {
    std::cerr << "verification failed for the portfolio winner\n";
    return 1;
  }
  std::cout << "winner verified by state-vector equivalence\n\n";

  std::cout << "span tree of the race (obs::ascii_span_tree; export the "
               "same observer\nwith obs::export_chrome_trace to load it in "
               "Perfetto):\n"
            << obs::ascii_span_tree(observer) << "\n";

  std::cout << "telemetry JSON (winner + per-strategy records):\n"
            << result.to_json().dump(2) << "\n\n";

  // --- Many circuits, one pool (batch mode) -------------------------------
  const std::vector<Circuit> batch_circuits = {
      workloads::ghz(6), workloads::qft(4), workloads::fig1_example(),
      workloads::cuccaro_adder(2)};
  const resilience::ResilientCompiler supervisor(device);
  const std::vector<resilience::CompileOutcome> outcomes =
      supervisor.compile_batch(batch_circuits);
  TextTable table({"#", "circuit", "strategy", "2q gates", "cycles",
                   "wall ms"});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const resilience::CompileOutcome& outcome = outcomes[i];
    if (!outcome.ok || !Compiler::verify(outcome.result)) {
      std::cerr << "batch item " << i << " failed: " << outcome.error << "\n";
      return 1;
    }
    table.add_row({TextTable::num(i), outcome.result.original.name(),
                   outcome.winner_label,
                   TextTable::num(outcome.result.final_metrics.two_qubit_gates),
                   TextTable::num(outcome.result.scheduled_cycles),
                   TextTable::num(outcome.wall_ms, 2)});
  }
  std::cout << table.str() << "all batch results verified\n";
  return 0;
}
