// Unified observability: metrics, RAII span tracing, bounded trace buffer.
//
// The mapping flow (placement -> routing -> scheduling, Sec. III-VI) is a
// multi-stage pipeline whose overheads must be measured per stage to be
// optimized — MQT QMAP and the tket routing work both report per-pass
// metrics as first-class outputs. This module is the one sink every layer
// records into:
//
//   MetricsRegistry — named counters, gauges and fixed-bucket histograms.
//                     All mutating operations are commutative (integer
//                     adds, bucket increments), so aggregation across the
//                     engine ThreadPool is byte-deterministic regardless
//                     of thread count. Wall-clock values must be recorded
//                     under names ending in "_ms"; fingerprint() excludes
//                     exactly those, making the deterministic subset easy
//                     to diff in tests and CI.
//   Span            — RAII trace span with parent/child nesting. The
//                     parent defaults to the calling thread's innermost
//                     open span (thread-local stack); cross-thread
//                     attribution (a portfolio worker under the race root)
//                     passes the parent's seq explicitly. Destruction
//                     records a SpanRecord into the TraceBuffer.
//   TraceBuffer     — lock-sharded bounded store of completed spans with
//                     an exact drop counter: once `capacity` records were
//                     accepted, every further record() increments
//                     dropped() and stores nothing, so memory is bounded
//                     and loss is observable instead of silent.
//   Observer        — the facade the pipeline threads through
//                     (PipelineRuntime::obs, CompilerOptions::obs,
//                     PortfolioOptions::obs, resilience::Policy::obs,
//                     FuzzOptions::obs). A null
//                     Observer* — the default everywhere — reduces every
//                     recording helper to one pointer compare, so the
//                     instrumented hot paths cost nothing when
//                     observability is off.
//
// Exporters (chrome-trace JSON, flat metrics JSON, ASCII span tree) live
// in obs/export.hpp. This library depends only on common/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace qmap::obs {

struct ObsConfig {
  /// Master switch: a disabled Observer accepts every call and records
  /// nothing (used by benches to price the instrumentation itself).
  bool enabled = true;
  /// Maximum completed spans retained across all shards; further records
  /// are counted in TraceBuffer::dropped() and discarded.
  std::size_t trace_capacity = 1 << 16;
  /// Lock shards for the trace buffer (clamped to >= 1). Spans recorded by
  /// different worker threads land in different shards, so concurrent
  /// strategy races never serialize on one mutex.
  int trace_shards = 16;
};

/// Bucket boundaries shared by every histogram that does not pass its own:
/// observations land in the first bucket whose boundary is >= the value,
/// with one implicit overflow bucket past the last boundary. Stable by
/// contract — tests pin these values.
[[nodiscard]] const std::vector<double>& default_histogram_boundaries();

/// Fixed-bucket histogram. Bucket counts and the observation count are
/// integers, so concurrent observation is order-independent; `sum` is
/// exact (and therefore order-independent too) as long as observations are
/// integer-valued, which every deterministic metric in the pipeline is.
struct HistogramSnapshot {
  std::vector<double> boundaries;
  std::vector<std::uint64_t> counts;  // boundaries.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;

  [[nodiscard]] Json to_json() const;
};

/// Registry of named metrics. Thread-safe; names are ordered (std::map),
/// so every dump is deterministically sorted.
class MetricsRegistry {
 public:
  /// Counter: monotonically increasing integer.
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Gauge: last value written wins. Only byte-deterministic when set from
  /// one thread (the aggregation points all do).
  void set_gauge(std::string_view name, double value);
  /// Histogram observation with the default boundaries, or with explicit
  /// ones on the call that creates the histogram (later calls reuse the
  /// creation-time boundaries).
  void observe(std::string_view name, double value);
  void observe(std::string_view name, double value,
               const std::vector<double>& boundaries);

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] HistogramSnapshot histogram(std::string_view name) const;

  /// Flat JSON dump: {"counters":{...},"gauges":{...},"histograms":{...}},
  /// keys sorted. `include_timing` = false drops every metric whose name
  /// ends in "_ms" — the convention for wall-clock values.
  [[nodiscard]] Json to_json(bool include_timing = true) const;
  /// The deterministic subset, serialized: byte-identical across runs and
  /// thread counts for a fixed seed. Equals to_json(false).dump().
  [[nodiscard]] std::string fingerprint() const;

  void clear();

 private:
  struct Histogram {
    std::vector<double> boundaries;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// One completed (or instant) span, as stored in the TraceBuffer.
struct SpanRecord {
  /// Begin-order sequence number, unique per Observer, monotonically
  /// increasing within each thread. 0 is reserved for "no parent".
  std::uint64_t seq = 0;
  std::uint64_t parent_seq = 0;
  /// Virtual thread ordinal within the Observer (0 = first recording
  /// thread, usually the caller's).
  int tid = 0;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  std::string name;
  std::string category;
  std::vector<std::pair<std::string, std::string>> args;

  [[nodiscard]] double duration_ms() const {
    return static_cast<double>(end_us - start_us) / 1000.0;
  }
};

/// Bounded, lock-sharded store of completed spans with an exact global
/// drop counter (see file comment).
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 16, int shards = 16);

  /// True when stored; false (and dropped() incremented) once the global
  /// capacity was reached. Exact under concurrency: every record() call
  /// either stores or counts as dropped, never both, never neither.
  bool record(SpanRecord record);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Merged copy of every stored span, sorted by (tid, seq) — a
  /// deterministic order for a deterministic workload.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  void clear();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<SpanRecord> records;
  };

  std::size_t capacity_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

class Span;

/// The facade every instrumented layer holds (by plain pointer, null = off).
class Observer {
 public:
  Observer() : Observer(ObsConfig{}) {}
  explicit Observer(ObsConfig config);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }
  [[nodiscard]] const ObsConfig& config() const noexcept { return config_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] TraceBuffer& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceBuffer& trace() const noexcept { return trace_; }

  /// Microsecond timestamp from the observer's clock. Defaults to
  /// steady_clock; tests install a fake via set_clock for byte-stable
  /// golden traces.
  [[nodiscard]] std::int64_t now_us() const;
  void set_clock(std::function<std::int64_t()> now_us);

  /// This thread's stable ordinal within this observer (assigned on first
  /// use, starting at 0).
  [[nodiscard]] int thread_ordinal();

  /// Records a zero-duration span (an event marker, e.g. a fired fault).
  /// Parent defaults to the calling thread's innermost open span.
  void instant(std::string name, std::string category,
               std::vector<std::pair<std::string, std::string>> args = {});

 private:
  friend class Span;

  [[nodiscard]] std::uint64_t next_seq() noexcept {
    return seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  ObsConfig config_;
  MetricsRegistry metrics_;
  TraceBuffer trace_;
  std::atomic<std::uint64_t> seq_{0};
  std::function<std::int64_t()> now_us_;
  mutable std::mutex clock_mutex_;  // guards now_us_ replacement only
  std::mutex tid_mutex_;
  std::map<std::thread::id, int> tids_;
};

/// RAII trace span. Inert when constructed with a null/disabled observer —
/// no clock reads, no allocation beyond the name strings the caller built.
/// `parent_seq` 0 means "the calling thread's innermost open span".
class Span {
 public:
  Span() = default;
  Span(Observer* observer, std::string name, std::string category,
       std::uint64_t parent_seq = 0);
  ~Span() { end(); }

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] bool active() const noexcept { return observer_ != nullptr; }
  /// This span's seq (0 when inert) — pass as parent_seq for explicit
  /// cross-thread nesting.
  [[nodiscard]] std::uint64_t seq() const noexcept { return record_.seq; }

  /// Attaches a key/value attribute (e.g. strategy label). No-op when
  /// inert.
  void arg(std::string key, std::string value);

  /// Ends the span now (idempotent; the destructor calls it too).
  void end();

 private:
  Observer* observer_ = nullptr;
  SpanRecord record_;
};

// Null-safe recording helpers: every call site holds a maybe-null
// Observer*, and these compile down to one pointer test when it is null.
inline void add(Observer* observer, std::string_view name,
                std::uint64_t delta = 1) {
  if (observer != nullptr && observer->enabled()) {
    observer->metrics().add(name, delta);
  }
}

inline void set_gauge(Observer* observer, std::string_view name,
                      double value) {
  if (observer != nullptr && observer->enabled()) {
    observer->metrics().set_gauge(name, value);
  }
}

inline void observe(Observer* observer, std::string_view name, double value) {
  if (observer != nullptr && observer->enabled()) {
    observer->metrics().observe(name, value);
  }
}

inline void instant(Observer* observer, std::string name,
                    std::string category,
                    std::vector<std::pair<std::string, std::string>> args = {}) {
  if (observer != nullptr && observer->enabled()) {
    observer->instant(std::move(name), std::move(category), std::move(args));
  }
}

}  // namespace qmap::obs
