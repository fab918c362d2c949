#include "bench.hpp"

#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>

#include "arch/builtin.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "sim/equivalence.hpp"
#include "sim/stabilizer.hpp"
#include "verify/faults.hpp"
#include "verify/validity.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double peak_rss_mb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- Calibration -------------------------------------------------------------

namespace {

double thread_cpu_ms() {
  timespec now = {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) * 1e-6;
}

/// The fixed reference kernel; returns a value that depends on every step
/// so the work cannot be optimized away.
std::size_t reference_kernel() {
  std::map<int, std::string> names;
  std::vector<int> keys;
  keys.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const int key = (i * 7919) % 30011;
    names[key] = std::to_string(key);
    keys.push_back(key ^ (i << 3));
  }
  std::sort(keys.begin(), keys.end());
  std::size_t sum = 0;
  for (const auto& [key, name] : names) sum += name.size() + key;
  for (const int key : keys) sum += static_cast<std::size_t>(key);
  return sum;
}

}  // namespace

void Calibration::sample() {
  const auto wall = Clock::now();
  const double start = thread_cpu_ms();
  volatile std::size_t sink = reference_kernel();
  (void)sink;
  ms_.push_back(thread_cpu_ms() - start);
  at_.push_back(wall + (Clock::now() - wall) / 2);
}

double Calibration::factor_near(Clock::time_point start,
                                Clock::time_point end) const {
  const auto lo = std::lower_bound(at_.begin(), at_.end(),
                                   start - std::chrono::seconds(1));
  const auto hi = std::upper_bound(at_.begin(), at_.end(),
                                   end + std::chrono::seconds(1));
  if (hi - lo < 3) return factor();
  return kNominalMs / quantile(std::vector<double>(ms_.begin() + (lo - at_.begin()),
                                                   ms_.begin() + (hi - at_.begin())),
                               0.5);
}

double Calibration::factor() const {
  return ms_.empty() ? 1.0 : kNominalMs / ref_ms();
}

double Calibration::ref_ms() const { return quantile(ms_, 0.5); }

// --- Trace -------------------------------------------------------------------

Trace::Trace() : origin_(Clock::now()) { spans_.reserve(1 << 14); }

double Trace::us_since_origin(Clock::time_point at) const {
  return std::chrono::duration<double, std::micro>(at - origin_).count();
}

int Trace::open(std::string name, std::uint64_t op) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_us = us_since_origin(Clock::now());
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Trace::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us =
      us_since_origin(Clock::now());
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Trace::record(std::string name, Clock::time_point start,
                   Clock::time_point end, std::uint64_t op) {
  Span span;
  span.name = std::move(name);
  span.op = op;
  span.start_us = us_since_origin(start);
  span.end_us = us_since_origin(end);
  spans_.push_back(std::move(span));
}

std::vector<double> Trace::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.ms());
  }
  return out;
}

bool Trace::write(const std::string& path) const {
  qmap::JsonArray events;
  events.reserve(spans_.size());
  for (const Span& span : spans_) {
    qmap::JsonObject args;
    args["op"] = qmap::Json(static_cast<std::size_t>(span.op));
    args["parent"] = span.parent;
    qmap::JsonObject event;
    event["name"] = span.name;
    event["ph"] = "X";
    event["ts"] = span.start_us;
    event["dur"] = span.end_us - span.start_us;
    event["pid"] = 1;
    event["tid"] = 1;
    event["args"] = qmap::Json(std::move(args));
    events.emplace_back(std::move(event));
  }
  qmap::JsonObject root;
  root["traceEvents"] = qmap::Json(std::move(events));
  std::ofstream out(path);
  out << qmap::Json(std::move(root)).dump() << "\n";
  return static_cast<bool>(out);
}

// --- Oracle ------------------------------------------------------------------

std::string oracle_check(const qmap::CompilationResult& result,
                         const qmap::Device& device, std::uint64_t seed,
                         Trace* trace) {
  {
    Scope span(trace, "verify");
    const qmap::verify::ValidityReport validity =
        qmap::verify::ValidityChecker(device).check_result(result);
    if (!validity.ok()) return "validity: " + validity.to_string();
  }
  Scope span(trace, "equivalence");
  const std::vector<int>& initial = result.routing.initial.wire_to_phys();
  const std::vector<int>& final = result.routing.final.wire_to_phys();
  if (qmap::is_clifford_circuit(result.original) &&
      qmap::is_clifford_circuit(result.final_circuit)) {
    if (!qmap::clifford_mapping_equivalent(
            result.original, result.final_circuit, initial, final)) {
      return "equivalence: Clifford tableau mismatch";
    }
    return "";
  }
  qmap::Rng rng(seed);
  if (!qmap::mapping_equivalent(result.original, result.final_circuit,
                                initial, final, rng, /*trials=*/1)) {
    return "equivalence: state-vector mismatch";
  }
  return "";
}

int oracle_self_test(std::uint64_t seed) {
  qmap::Rng rng(qmap::Rng::derive_stream(seed, 0x5E1F));
  const qmap::Circuit circuit =
      qmap::workloads::random_clifford_circuit(8, 120, rng);
  const struct {
    qmap::Device device;
    qmap::verify::FaultInjection fault;
  } plants[] = {
      {qmap::devices::surface17(), qmap::verify::FaultInjection::DropLastSwap},
      {qmap::devices::ibm_qx5(), qmap::verify::FaultInjection::FlipLastCx},
  };
  int caught = 0;
  for (const auto& plant : plants) {
    qmap::CompilationResult result =
        qmap::Compiler(plant.device).compile(circuit);
    // A planted fault only counts as caught when the clean output passes.
    if (!oracle_check(result, plant.device, seed).empty()) continue;
    if (!qmap::verify::inject_fault(result, plant.device, plant.fault)) {
      continue;
    }
    if (!oracle_check(result, plant.device, seed).empty()) ++caught;
  }
  return caught;
}

// --- Result ------------------------------------------------------------------

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order (BENCHMARK.json lists the same).
constexpr LayerMetric kPerLayer[] = {
    {"decompose.ms", "ms"},
    {"placer.ms", "ms"},
    {"router.ms", "ms"},
    {"postroute.ms", "ms"},
    {"schedule.ms", "ms"},
    {"compile.unattributed_ms", "ms"},
    {"compile.traced_ms", "ms"},
    {"decompose.gates_out", "count"},
    {"router.gates_out", "count"},
    {"router.swaps_added", "count"},
    {"postroute.gates_out", "count"},
    {"verify.ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"engine.race_ms_p50", "ms"},
    {"engine.exact_ms_share", "share"},
    {"engine.cancelled_share", "share"},
    {"engine.useful_share", "share"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.miss_ms_p50", "ms"},
    {"service.hit_share", "share"},
    {"service.coalesced_share", "share"},
    {"qasm.canonicalize_ms", "ms"},
    {"qasm.parse_ms", "ms"},
    {"qasm.emit_ms", "ms"},
    {"stream.pipeline_ms", "ms"},
    {"stream.window_peak_gates", "count"},
    {"stream.materialized_passes", "count"},
    {"calibration.ref_ms", "ms"},
};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void add_calibrated_timings(Result& out, const Calibration& calibration,
                            const SetupTime& setup,
                            const std::vector<Interval>& ops, double tail,
                            const Interval& loop, std::size_t input_gates) {
  std::vector<double> raw_ms, calibrated_ms;
  double busy_ms = 0.0, calibrated_busy_ms = 0.0;
  for (const Interval& op : ops) {
    raw_ms.push_back(op.ms());
    calibrated_ms.push_back(op.ms() * calibration.factor_near(op.start, op.end));
    busy_ms += raw_ms.back();
    calibrated_busy_ms += calibrated_ms.back();
  }
  const double wall_s = loop.ms() / 1000.0;
  const double calibrated_wall_s =
      (calibrated_busy_ms + (loop.ms() - busy_ms) * calibration.factor()) /
      1000.0;
  const double n = static_cast<double>(ops.size());
  const double gates = static_cast<double>(input_gates);
  out.notes.push_back(
      "calibration: reference kernel " + number(calibration.ref_ms()) +
      " ms (median of " + std::to_string(calibration.samples()) +
      "); raw: setup_s " + number(setup.raw_s) + ", latency_ms_p50 " +
      number(quantile(raw_ms, 0.5)) + ", latency_ms_tail " +
      number(quantile(raw_ms, tail)) + ", ops_per_s " + number(n / wall_s) +
      ", input_gates_per_s " + number(gates / wall_s));
  out.add("setup_s", setup.calibrated_s, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("latency_ms_p50", quantile(calibrated_ms, 0.5), "ms");
  out.add("latency_ms_tail", quantile(calibrated_ms, tail), "ms");
  out.add("ops_per_s", n / calibrated_wall_s, "1/s");
  out.add("input_gates_per_s", gates / calibrated_wall_s, "1/s");
}

void complete_per_layer(Result& result) {
  std::vector<Metric> ordered;
  for (const LayerMetric& layer : kPerLayer) {
    const auto it = std::find_if(
        result.metrics.begin(), result.metrics.end(),
        [&](const Metric& metric) { return metric.name == layer.name; });
    ordered.push_back(it != result.metrics.end()
                          ? *it
                          : Metric{layer.name, 0.0, layer.unit});
  }
  result.metrics = std::move(ordered);
}

void print_result(const Result& result) {
  for (const std::string& note : result.notes) std::cout << note << "\n";
  const double failed_share =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::cout << "failed_share " << number(failed_share) << " ("
            << result.failed << " of " << result.attempted << ")\n";
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : result.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::cout << metric.name << " " << number(value) << " " << metric.unit
              << "\n";
    if (!first) json += ", ";
    first = false;
    json += "\"" + metric.name + "\": {\"value\": " + number(value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace perfbench
