// Shared machinery of the end-to-end benchmark: command-line arguments,
// sample statistics, the in-memory span recorder, the output oracle, and
// the result line every workload prints last.
//
// The benchmark drives qmaplib only through its public entry points
// (Compiler, the pass objects on a CompileContext, CompileService,
// PassManager::run_stream). Spans are recorded here, around each call into
// a layer; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "ir/circuit.hpp"
#include "pass/context.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point start,
                                       Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_file;
};

// --- Statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of the samples, the same rule
/// as numpy's default. 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Process peak resident set size in MiB (getrusage; monotonic).
[[nodiscard]] double peak_rss_mb();

// --- Calibration -----------------------------------------------------------

/// Cancels the host's speed drift out of CPU-bound timings.
///
/// On a shared virtual machine the same compile loop runs up to ~1.5x
/// slower for stretches of seconds to minutes. sample() times a fixed
/// reference kernel (map inserts, number formatting and a sort —
/// allocation-heavy, like the compiler) in thread CPU time, so the
/// benchmark's own other threads cannot inflate it. Workloads sample it
/// interleaved with their work; a time measured over [start, end] is then
/// scaled to a host on which the kernel takes kNominalMs, using the samples
/// taken within a second of that interval:
///   calibrated = measured * factor_near(start, end).
class Calibration {
 public:
  static constexpr double kNominalMs = 6.0;

  void sample();
  /// kNominalMs over the median kernel time of the samples taken within
  /// one second of [start, end]; the run-wide factor when fewer than three
  /// fall there.
  [[nodiscard]] double factor_near(Clock::time_point start,
                                   Clock::time_point end) const;
  /// Run-wide factor (1 before any sample).
  [[nodiscard]] double factor() const;
  /// Median sampled kernel time in milliseconds.
  [[nodiscard]] double ref_ms() const;
  [[nodiscard]] std::size_t samples() const { return ms_.size(); }

 private:
  std::vector<Clock::time_point> at_;  // sample midpoints, ascending
  std::vector<double> ms_;
};

/// One timed operation (a compile, a request, a streamed compile).
struct Interval {
  Clock::time_point start;
  Clock::time_point end;

  [[nodiscard]] double ms() const { return ms_between(start, end); }
};

/// Set-up time in seconds, raw and calibrated.
struct SetupTime {
  double raw_s = 0.0;
  double calibrated_s = 0.0;
};

/// Runs `build` `repeats` times, sampling the calibration three times after
/// each run, and returns the median time of one build, raw and calibrated
/// with the samples around it. Each call rebuilds the workload's state from
/// scratch; the state of the last call is the one the workload measures.
template <typename Build>
[[nodiscard]] SetupTime timed_setup(int repeats, Calibration& calibration,
                                    Build&& build) {
  std::vector<Interval> runs;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    build();
    runs.push_back({start, Clock::now()});
    for (int k = 0; k < 3; ++k) calibration.sample();
  }
  std::vector<double> raw, calibrated;
  for (const Interval& run : runs) {
    raw.push_back(run.ms() / 1000.0);
    calibrated.push_back(raw.back() *
                         calibration.factor_near(run.start, run.end));
  }
  return {quantile(raw, 0.5), quantile(calibrated, 0.5)};
}

// --- Tracing ---------------------------------------------------------------

/// In-memory span recorder. A span is (name, start, end, parent, op): the
/// op id groups the spans of one compile or request. Spans are appended
/// only from the thread that owns the recorder; write() emits them as
/// Chrome trace-event JSON once the run is over.
class Trace {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  // index into spans(), -1 for a root span
    std::uint64_t op = 0;

    [[nodiscard]] double ms() const { return (end_us - start_us) / 1000.0; }
  };

  Trace();

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name, std::uint64_t op);
  void close(int index);
  /// Appends a finished root span measured elsewhere (another thread's
  /// start and end times, handed back to the owner).
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t op);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Durations of every span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON; returns false when the
  /// file cannot be written.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] double us_since_origin(Clock::time_point at) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null trace records nothing.
class Scope {
 public:
  Scope(Trace* trace, std::string name, std::uint64_t op = 0)
      : trace_(trace),
        index_(trace ? trace->open(std::move(name), op) : -1) {}
  ~Scope() {
    if (trace_) trace_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace* trace_;
  int index_;
};

// --- Output oracle ---------------------------------------------------------

/// Checks a finished compilation without using the compiler under test:
/// ValidityChecker::check_result, then functional equivalence under the
/// reported placements — the exact stabilizer tableau when both circuits
/// are Clifford (any width), one randomized state-vector trial otherwise.
/// Returns an empty string when the output is correct, else the reason.
/// With a trace, records a "verify" span around check_result and an
/// "equivalence" span around the equivalence check.
[[nodiscard]] std::string oracle_check(const qmap::CompilationResult& result,
                                       const qmap::Device& device,
                                       std::uint64_t seed,
                                       Trace* trace = nullptr);

/// Plants DropLastSwap (Surface-17) and FlipLastCx (IBM QX5) into fresh
/// compilations and confirms the oracle reports both. Returns the number of
/// planted faults the oracle caught (2 when it works).
[[nodiscard]] int oracle_self_test(std::uint64_t seed);

// --- Result ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  /// False when an output check, the determinism guard, the trace
  /// fingerprint check, the attribution check or the oracle self-test
  /// failed.
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Throws, non-ok statuses and failed output checks.
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed above the result (sample counts, the
  /// percentile behind each tail metric, failure reasons).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

/// Adds setup_s, peak_rss_mb, latency_ms_p50, latency_ms_tail (the
/// `tail` quantile), ops_per_s and input_gates_per_s. Each operation's time
/// is calibrated with the samples near it; the loop's wall time is the sum
/// of the calibrated operation times plus the time between operations at
/// the run-wide factor. The raw figures go to the notes.
void add_calibrated_timings(Result& out, const Calibration& calibration,
                            const SetupTime& setup,
                            const std::vector<Interval>& ops, double tail,
                            const Interval& loop, std::size_t input_gates);

/// Appends, in the canonical order, every per-layer metric this workload
/// did not measure, with value 0: a traced run reports the full set, and a
/// layer the workload never enters spent no time.
void complete_per_layer(Result& result);

/// Prints the notes, one "name value unit" line per metric, and — as the
/// last line of stdout — the JSON result object.
void print_result(const Result& result);

// --- Workloads ---------------------------------------------------------------

Result run_compile_s17(const Args& args);
Result run_serve_mixed(const Args& args);
Result run_stream_qx5(const Args& args);

}  // namespace perfbench
