#include "engine/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/report.hpp"
#include "engine/cancel.hpp"
#include "pass/manager.hpp"
#include "qasm/openqasm.hpp"

namespace qmap {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Widest cycle of a schedule: the peak number of operations in flight.
int peak_parallel_ops(const Schedule& schedule) {
  std::vector<std::pair<int, int>> events;
  events.reserve(2 * schedule.size());
  for (const ScheduledGate& op : schedule.operations()) {
    if (op.duration_cycles <= 0) continue;
    events.emplace_back(op.start_cycle, +1);
    events.emplace_back(op.end_cycle(), -1);
  }
  // Pairs sort (cycle, delta): at equal cycles the -1 comes first, so
  // back-to-back gates do not count as overlapping.
  std::sort(events.begin(), events.end());
  int current = 0;
  int peak = 0;
  for (const auto& [cycle, delta] : events) {
    current += delta;
    peak = std::max(peak, current);
  }
  return peak;
}

/// One strategy's slot: telemetry always, result only when completed.
/// Workers write disjoint slots, so no locking is needed.
struct StrategyRun {
  StrategyTelemetry telemetry;
  std::optional<CompilationResult> result;
};

}  // namespace

PipelineSpec StrategySpec::pipeline() const {
  return PipelineSpec::standard(placer, router);
}

std::string StrategyTelemetry::status_name() const {
  switch (status) {
    case Status::Completed: return "completed";
    case Status::Cancelled: return "cancelled";
    case Status::Failed: return "failed";
    case Status::Skipped: return "skipped";
  }
  return "unknown";
}

Json StrategyTelemetry::to_json() const {
  Json out;
  out["index"] = Json(strategy_index);
  out["placer"] = Json(spec.placer);
  out["router"] = Json(spec.router);
  out["label"] = Json(spec.label());
  out["status"] = Json(status_name());
  out["wall_ms"] = Json(wall_ms);
  out["winner"] = Json(winner);
  if (status == Status::Completed) {
    out["cost"] = Json(cost);
    out["margin"] = Json(margin);
    out["peak_layer_ops"] = Json(peak_layer_ops);
    out["added_swaps"] = Json(added_swaps);
  }
  if (status == Status::Cancelled || status == Status::Failed) {
    out["error_class"] = Json(error_class_name(error_class));
  }
  if (!error.empty()) out["error"] = Json(error);
  return out;
}

std::size_t PortfolioResult::completed_count() const {
  return static_cast<std::size_t>(std::count_if(
      telemetry.begin(), telemetry.end(), [](const StrategyTelemetry& t) {
        return t.status == StrategyTelemetry::Status::Completed;
      }));
}

std::size_t PortfolioResult::cancelled_count() const {
  return static_cast<std::size_t>(std::count_if(
      telemetry.begin(), telemetry.end(), [](const StrategyTelemetry& t) {
        return t.status == StrategyTelemetry::Status::Cancelled;
      }));
}

std::string PortfolioResult::report() const {
  TextTable table({"#", "strategy", "status", "wall ms", "swaps", "cost",
                   "margin", "peak ops", "winner"});
  for (const StrategyTelemetry& t : telemetry) {
    const bool done = t.status == StrategyTelemetry::Status::Completed;
    table.add_row({TextTable::num(t.strategy_index), t.spec.label(),
                   t.status_name(), TextTable::num(t.wall_ms, 2),
                   done ? TextTable::num(t.added_swaps) : "-",
                   done ? format_double(t.cost, 6) : "-",
                   done ? format_double(t.margin, 6) : "-",
                   done ? TextTable::num(t.peak_layer_ops) : "-",
                   t.winner ? "<==" : ""});
  }
  std::string out = table.str();
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "winner: %s (cost %s, margin to runner-up %s), "
                "%zu/%zu completed, wall %.2f ms on %d thread(s)\n",
                winner_label.c_str(), format_double(best_cost_(), 6).c_str(),
                format_double(winning_margin, 6).c_str(), completed_count(),
                telemetry.size(), wall_ms, num_threads);
  out += buffer;
  return out;
}

Json PortfolioResult::to_json() const {
  Json out;
  out["circuit"] = Json(best.original.name());
  out["num_threads"] = Json(num_threads);
  out["wall_ms"] = Json(wall_ms);
  Json winner;
  winner["index"] = Json(winner_index);
  winner["label"] = Json(winner_label);
  winner["cost"] = Json(best_cost_());
  winner["margin"] = Json(winning_margin);
  out["winner"] = std::move(winner);
  out["completed"] = Json(completed_count());
  out["cancelled"] = Json(cancelled_count());
  JsonArray strategies;
  for (const StrategyTelemetry& t : telemetry) {
    strategies.push_back(t.to_json());
  }
  out["strategies"] = Json(std::move(strategies));
  out["best"] = best.to_json();
  return out;
}

std::string PortfolioResult::fingerprint() const {
  std::string out;
  out += "winner " + std::to_string(winner_index) + " " + winner_label + "\n";
  out += "cost " + format_double(best_cost_(), 6) + "\n";
  out += "scheduled_cycles " + std::to_string(best.scheduled_cycles) + "\n";
  out += "initial";
  for (const int p : best.routing.initial.wire_to_phys()) {
    out += " " + std::to_string(p);
  }
  out += "\nfinal";
  for (const int p : best.routing.final.wire_to_phys()) {
    out += " " + std::to_string(p);
  }
  out += "\n" + to_openqasm(best.final_circuit);
  return out;
}

double PortfolioResult::best_cost_() const {
  return winner_index >= 0 &&
                 static_cast<std::size_t>(winner_index) < telemetry.size()
             ? telemetry[static_cast<std::size_t>(winner_index)].cost
             : std::numeric_limits<double>::infinity();
}

PortfolioCompiler::PortfolioCompiler(Device device, PortfolioOptions options)
    : device_(std::move(device)),
      options_(std::move(options)),
      cost_(make_cost_function(options_.cost_name)) {
  if (options_.strategies.empty()) {
    options_.strategies = default_portfolio(device_);
  }
  // Fail fast on misspelled strategies (the factory error lists the valid
  // names) instead of failing every run at compile() time.
  for (const StrategySpec& spec : options_.strategies) {
    (void)make_placer(spec.placer);
    (void)make_router(spec.router);
  }
}

std::vector<StrategySpec> PortfolioCompiler::default_portfolio(
    const Device& device) {
  // Preferred pairings, in priority order (priority = tie-break index):
  // fast heuristics first, then the slow near-optimal entries gated to
  // small widths (the paper's "exact approaches are not scalable",
  // Sec. IV). The constructor validates every name against the
  // factories.
  std::vector<StrategySpec> portfolio = {
      {"greedy", "sabre", 0, 0.0},
      {"greedy", "bridge", 0, 0.0},
      {"annealing", "qmap", 0, 0.0},
      {"greedy", "sabre+commute", 0, 0.0},
      // Exhaustive placement walks m!/(m-n)! assignments; width 5 keeps it
      // under the placer's own work limit on devices up to Surface-17.
      {"exhaustive", "astar", 5, 0.0},
      {"greedy", "exact", 6, 0.0},
  };
  if (device.has_noise()) {
    portfolio.push_back({"reliability", "reliability", 0, 0.0});
  }
  return portfolio;
}

PortfolioResult PortfolioCompiler::compile(const Circuit& circuit) const {
  ThreadPool pool(options_.num_threads);
  return compile(circuit, pool);
}

PortfolioResult PortfolioCompiler::compile(const Circuit& circuit,
                                           ThreadPool& pool) const {
  PortfolioResult result = try_compile(circuit, pool);
  if (result.winner_index < 0) {
    std::string detail;
    for (const StrategyTelemetry& t : result.telemetry) {
      detail += "\n  " + t.spec.label() + ": " + t.status_name() +
                (t.error.empty() ? "" : " (" + t.error + ")");
    }
    throw MappingError("portfolio: no strategy completed for circuit '" +
                       circuit.name() + "'" + detail);
  }
  return result;
}

PortfolioResult PortfolioCompiler::try_compile(const Circuit& circuit,
                                               ThreadPool& pool) const {
  const auto portfolio_start = Clock::now();
  const std::size_t n = options_.strategies.size();
  if (n == 0) throw MappingError("portfolio: no strategies configured");

  obs::Observer* const obs = options_.obs;
  obs::Span race_span(obs, "portfolio", "engine");
  if (race_span.active()) {
    race_span.arg("circuit", circuit.name());
    race_span.arg("strategies", std::to_string(n));
  }
  const std::uint64_t race_seq = race_span.seq();

  std::optional<Clock::time_point> portfolio_deadline;
  if (options_.portfolio_deadline_ms > 0.0) {
    portfolio_deadline =
        portfolio_start +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                options_.portfolio_deadline_ms));
  }

  // One cancellation token and one result slot per strategy; workers touch
  // only their own slot, so the fan-out needs no synchronization beyond
  // the futures.
  std::vector<CancelToken> tokens(n);
  std::vector<StrategyRun> runs(n);
  std::vector<std::future<void>> futures;
  futures.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.async([this, &circuit, &runs, &tokens, i,
                                  portfolio_deadline, obs, race_seq] {
      const StrategySpec& spec = options_.strategies[i];
      StrategyRun& run = runs[i];
      StrategyTelemetry& telemetry = run.telemetry;
      telemetry.strategy_index = static_cast<int>(i);
      telemetry.spec = spec;

      // Explicitly parented under the race root: this worker's thread-local
      // span stack is empty, so auto-parenting would orphan the span.
      obs::Span strategy_span(obs, spec.label(), "strategy", race_seq);
      if (strategy_span.active()) {
        strategy_span.arg("index", std::to_string(i));
      }

      if (spec.max_qubits > 0 && circuit.num_qubits() > spec.max_qubits) {
        telemetry.status = StrategyTelemetry::Status::Skipped;
        telemetry.error = "circuit wider than the strategy's max_qubits (" +
                          std::to_string(spec.max_qubits) + ")";
        strategy_span.arg("status", telemetry.status_name());
        return;
      }

      // Soft deadline: the stricter of the strategy's own budget
      // (measured from this start) and the portfolio-wide deadline.
      CancelToken& token = tokens[i];
      const auto start = Clock::now();
      const double deadline_ms = spec.deadline_ms > 0.0
                                     ? spec.deadline_ms
                                     : options_.strategy_deadline_ms;
      std::optional<Clock::time_point> deadline = portfolio_deadline;
      if (deadline_ms > 0.0) {
        const auto own =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(deadline_ms));
        deadline = deadline ? std::min(*deadline, own) : own;
      }
      if (deadline) token.set_deadline(*deadline);
      if (options_.cancel != nullptr) token.link_parent(options_.cancel);

      // The strategy as data: the standard pipeline with this spec's
      // placer/router, executed directly against the shared device (and
      // so its immutable distance tables) — no per-strategy Device copy.
      // The compile span nests under strategy_span, the innermost span
      // open on this thread.
      PipelineRuntime runtime;
      runtime.seed = Rng::derive_stream(options_.base_seed, i);
      runtime.cancel = &token;
      runtime.obs = obs;
      if (options_.stage_hook) {
        runtime.stage_hook = [this, i](const char* stage) {
          options_.stage_hook(stage, static_cast<int>(i));
        };
      }

      // Crash boundary: nothing a strategy throws may escape its worker —
      // a crashing placer/router (or injected fault) becomes Failed
      // telemetry with an error class, and its siblings race on.
      try {
        const PassManager manager(spec.pipeline());
        CompilationResult result = manager.run(circuit, device_, runtime);
        telemetry.wall_ms = ms_since(start);
        telemetry.status = StrategyTelemetry::Status::Completed;
        telemetry.cost = cost_(result, device_);
        telemetry.peak_layer_ops = peak_parallel_ops(result.schedule);
        telemetry.added_swaps = result.routing.added_swaps;
        run.result = std::move(result);
      } catch (const CancelledError& e) {
        telemetry.wall_ms = ms_since(start);
        telemetry.status = StrategyTelemetry::Status::Cancelled;
        telemetry.error = e.what();
        telemetry.error_class = ErrorClass::Transient;
      } catch (const std::exception& e) {
        telemetry.wall_ms = ms_since(start);
        telemetry.status = StrategyTelemetry::Status::Failed;
        telemetry.error = e.what();
        telemetry.error_class = classify_exception(e);
      } catch (...) {
        telemetry.wall_ms = ms_since(start);
        telemetry.status = StrategyTelemetry::Status::Failed;
        telemetry.error = "unknown exception";
        telemetry.error_class = ErrorClass::Permanent;
      }
      strategy_span.arg("status", telemetry.status_name());
    }));
  }
  for (std::future<void>& future : futures) future.get();

  // Winner: smallest cost among completed strategies; ties and the
  // iteration order both resolve by strategy index, so the pick does not
  // depend on which worker finished first. NaN costs never win.
  int winner = -1;
  double winner_cost = std::numeric_limits<double>::infinity();
  double runner_up_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const StrategyTelemetry& t = runs[i].telemetry;
    if (t.status != StrategyTelemetry::Status::Completed) continue;
    if (std::isnan(t.cost)) continue;
    if (winner < 0 || t.cost < winner_cost) {
      runner_up_cost = winner_cost;
      winner_cost = t.cost;
      winner = static_cast<int>(i);
    } else if (t.cost < runner_up_cost) {
      runner_up_cost = t.cost;
    }
  }
  // winner < 0 (no strategy completed) is a valid try_compile outcome: the
  // telemetry below is the caller's evidence for retry-vs-fallback.
  PortfolioResult result;
  result.telemetry.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    StrategyTelemetry t = std::move(runs[i].telemetry);
    if (winner >= 0 && t.status == StrategyTelemetry::Status::Completed) {
      t.margin = t.cost - winner_cost;
    }
    t.winner = winner >= 0 && static_cast<int>(i) == winner;
    result.telemetry.push_back(std::move(t));
  }
  if (winner >= 0) {
    result.best = std::move(*runs[static_cast<std::size_t>(winner)].result);
    result.winner_index = winner;
    result.winner_label =
        options_.strategies[static_cast<std::size_t>(winner)].label();
    result.winning_margin = std::isfinite(runner_up_cost)
                                ? runner_up_cost - winner_cost
                                : 0.0;
  }
  result.wall_ms = ms_since(portfolio_start);
  result.num_threads = pool.size();

  // Aggregated on the calling thread after the join, so counter values are
  // identical for every pool size (the adds themselves are commutative, but
  // doing them here also keeps win attribution in one place).
  obs::add(obs, "portfolio.races");
  for (const StrategyTelemetry& t : result.telemetry) {
    obs::add(obs, std::string("portfolio.strategies_") + t.status_name());
  }
  if (winner >= 0) {
    obs::add(obs, "portfolio.wins");
    obs::add(obs, "portfolio.win." + result.winner_label);
  } else {
    obs::add(obs, "portfolio.empty_races");
  }
  obs::set_gauge(obs, "portfolio.last_wall_ms", result.wall_ms);
  return result;
}

}  // namespace qmap
