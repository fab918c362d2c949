// Parallel portfolio compilation engine.
//
// Sec. III-VI of the paper survey a zoo of mapping approaches and conclude
// that no single one wins everywhere: heuristic routers (SABRE [40],
// layer-A* [54], Qmap [39]) trade optimality for speed, the exact mapper
// [57] only scales to small instances, and the ranking flips per
// circuit/device pair. Instead of making the caller pick, the
// PortfolioCompiler fans one circuit out across a configurable set of
// placer x router strategy combinations on a ThreadPool, gives each run a
// soft deadline with cooperative cancellation (engine/cancel.hpp, polled
// in the router main loops), scores every finished result with a pluggable
// CostFunction (engine/cost.hpp), and returns the cheapest — ties broken
// by strategy index, so the winner is reproducible regardless of thread
// timing. Every strategy run records structured telemetry.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "common/error.hpp"
#include "core/compiler.hpp"
#include "engine/cost.hpp"
#include "engine/thread_pool.hpp"

namespace qmap {

/// One portfolio entry: an initial-placement algorithm paired with a
/// router, plus the guards deciding when/how long it may run.
struct StrategySpec {
  std::string placer = "greedy";
  std::string router = "sabre";
  /// Only attempted when the circuit has at most this many qubits
  /// (0 = no limit). Gates expensive exact strategies to small instances.
  int max_qubits = 0;
  /// Per-strategy soft deadline in milliseconds, measured from the
  /// strategy's own start (0 = inherit PortfolioOptions.strategy_deadline_ms).
  double deadline_ms = 0.0;

  [[nodiscard]] std::string label() const { return placer + "+" + router; }

  /// The strategy as pipeline data: the standard preset with this spec's
  /// placer/router. Portfolio workers execute exactly this spec, so a
  /// strategy *is* a PipelineSpec.
  [[nodiscard]] PipelineSpec pipeline() const;
};

/// Structured telemetry of one strategy run.
struct StrategyTelemetry {
  enum class Status { Completed, Cancelled, Failed, Skipped };

  int strategy_index = -1;
  StrategySpec spec;
  Status status = Status::Skipped;
  /// Recovery taxonomy of the failure (meaningful for Cancelled/Failed):
  /// Cancelled is always Transient; Failed carries the thrown error's own
  /// class (common/error.hpp). The resilience pipeline reads this to
  /// decide between retrying the rung and falling back.
  ErrorClass error_class = ErrorClass::Permanent;
  double wall_ms = 0.0;
  /// Selection cost (only meaningful when status == Completed).
  double cost = std::numeric_limits<double>::infinity();
  /// cost - winning cost; 0 for the winner, +inf when not completed.
  double margin = std::numeric_limits<double>::infinity();
  bool winner = false;
  /// Widest cycle of the strategy's schedule: the peak number of
  /// operations in flight at once (0 when the scheduler was disabled).
  int peak_layer_ops = 0;
  std::size_t added_swaps = 0;
  std::string error;  // message for Failed / Cancelled runs

  [[nodiscard]] std::string status_name() const;
  [[nodiscard]] Json to_json() const;
};

struct PortfolioOptions {
  /// Strategies to race; empty selects default_portfolio(device).
  std::vector<StrategySpec> strategies;
  /// Worker threads (0 = hardware concurrency). Results are identical for
  /// every thread count; only wall time changes.
  int num_threads = 0;
  /// Base RNG seed. Worker k draws its stream from
  /// Rng::derive_stream(base_seed, k), so parallel and serial runs produce
  /// bit-identical circuits.
  std::uint64_t base_seed = 0xC0FFEE;
  /// Default per-strategy soft deadline (ms, 0 = none); a spec's own
  /// deadline_ms takes precedence.
  double strategy_deadline_ms = 0.0;
  /// Soft deadline for the whole portfolio measured from compile() entry
  /// (0 = none). Outstanding strategies are cancelled when it passes; the
  /// best result finished by then is returned.
  double portfolio_deadline_ms = 0.0;
  /// Winner-selection cost, by make_cost_function() name.
  std::string cost_name = "balanced";
  /// Per-strategy stage hook: called as (stage, strategy_index) at the
  /// pipeline's stage boundaries ("placer"/"router"/"postroute"/
  /// "schedule") of every racing strategy. The engine wraps it into each
  /// strategy's PipelineRuntime::stage_hook; exceptions it throws are
  /// caught by the same crash boundary that contains placer/router
  /// crashes, which is how the resilience fault injector plants
  /// deterministic per-strategy faults. Empty by default.
  std::function<void(const char* stage, int strategy_index)> stage_hook;
  /// Observability sink (obs/): a race-root span, one strategy span per
  /// entrant (explicitly parented under the root across threads), and
  /// post-join win/cancellation counters aggregated deterministically on
  /// the calling thread. Not owned; null disables recording.
  obs::Observer* obs = nullptr;
  /// Upstream cancellation (not owned; null = none): every strategy's
  /// per-run deadline token is parent-linked to it, so firing it — e.g. the
  /// compile service noticing the last interested client disconnected —
  /// cancels the whole race at the next router checkpoint. Must outlive
  /// the compile call.
  const CancelToken* cancel = nullptr;
};

/// Outcome of a portfolio run: the winning compilation plus per-strategy
/// telemetry.
struct PortfolioResult {
  CompilationResult best;
  int winner_index = -1;
  std::string winner_label;
  /// Winner cost minus runner-up cost gap (how decisively it won);
  /// 0 when only one strategy completed.
  double winning_margin = 0.0;
  std::vector<StrategyTelemetry> telemetry;
  double wall_ms = 0.0;
  int num_threads = 1;

  [[nodiscard]] std::size_t completed_count() const;
  [[nodiscard]] std::size_t cancelled_count() const;

  /// Human-readable per-strategy telemetry table.
  [[nodiscard]] std::string report() const;
  /// Machine-readable report: winner + full telemetry array.
  [[nodiscard]] Json to_json() const;
  /// Deterministic digest of the *result* (winner identity, final circuit,
  /// placements, metrics) excluding wall-clock fields — byte-identical
  /// across runs and thread counts for a fixed base seed.
  [[nodiscard]] std::string fingerprint() const;

 private:
  [[nodiscard]] double best_cost_() const;
};

class PortfolioCompiler {
 public:
  /// Validates every strategy name eagerly (throws MappingError listing
  /// the valid names otherwise). Every racing strategy compiles against
  /// this one Device, so all of them read its distance tables.
  explicit PortfolioCompiler(Device device, PortfolioOptions options = {});

  [[nodiscard]] const Device& device() const noexcept { return device_; }
  [[nodiscard]] const std::vector<StrategySpec>& strategies() const noexcept {
    return options_.strategies;
  }

  /// Races the portfolio on an internally owned pool.
  [[nodiscard]] PortfolioResult compile(const Circuit& circuit) const;
  /// Races the portfolio on a caller-owned pool, so many circuits can share
  /// one pool (ResilientCompiler::compile_batch does, via try_compile).
  [[nodiscard]] PortfolioResult compile(const Circuit& circuit,
                                        ThreadPool& pool) const;

  /// Non-throwing variant for supervisors (src/resilience/): when no
  /// strategy completes, returns winner_index == -1 with the full
  /// per-strategy telemetry (status + error_class per failure) instead of
  /// throwing away the evidence — the caller decides between retry and
  /// fallback from the telemetry. compile() is try_compile() plus a throw
  /// on the empty outcome.
  [[nodiscard]] PortfolioResult try_compile(const Circuit& circuit,
                                            ThreadPool& pool) const;

  /// The built-in strategy set: every heuristic placer x router pairing
  /// worth racing, exact/exhaustive entries gated to small widths, and a
  /// reliability pairing when the device carries calibration data. A
  /// literal list, pinned by tests/test_engine.cpp.
  [[nodiscard]] static std::vector<StrategySpec> default_portfolio(
      const Device& device);

 private:
  Device device_;
  PortfolioOptions options_;
  CostFunction cost_;
};

}  // namespace qmap
