// Observability layer (src/obs/) tests.
//
// The determinism contract under test: for a fixed seed, the metrics
// fingerprint and the span count of an instrumented portfolio compile are
// byte-identical at 1, 2 and 8 worker threads; histogram bucket edges are
// pinned; the trace-buffer drop counter is exact under concurrent
// recording; and the chrome-trace exporter emits balanced B/E events that
// a fake clock makes byte-stable (golden file, QMAP_REGEN_GOLDEN=1
// regenerates).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/builtin.hpp"
#include "arch/noise.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "engine/portfolio.hpp"
#include "ir/gate_stream.hpp"
#include "layout/placement.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "route/router.hpp"
#include "route/sabre.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) ADD_FAILURE() << "cannot read " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Metrics, CountersGaugesHistogramsRoundTrip) {
  obs::MetricsRegistry metrics;
  metrics.add("alpha");
  metrics.add("alpha", 4);
  metrics.set_gauge("beta", 2.5);
  metrics.observe("gamma", 3.0);
  EXPECT_EQ(metrics.counter("alpha"), 5u);
  EXPECT_DOUBLE_EQ(metrics.gauge("beta"), 2.5);
  EXPECT_EQ(metrics.histogram("gamma").count, 1u);
  EXPECT_EQ(metrics.counter("missing"), 0u);
}

TEST(Metrics, DefaultHistogramBoundariesArePinned) {
  const std::vector<double> expected = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  EXPECT_EQ(obs::default_histogram_boundaries(), expected);
}

TEST(Metrics, HistogramBucketPlacementIncludingOverflow) {
  obs::MetricsRegistry metrics;
  metrics.observe("h", 1.0);    // bucket 0 (<= 1)
  metrics.observe("h", 2.0);    // bucket 1
  metrics.observe("h", 3.0);    // bucket 2 (<= 4)
  metrics.observe("h", 512.0);  // bucket 9 (last finite)
  metrics.observe("h", 513.0);  // overflow bucket
  const obs::HistogramSnapshot snapshot = metrics.histogram("h");
  ASSERT_EQ(snapshot.counts.size(),
            obs::default_histogram_boundaries().size() + 1);
  EXPECT_EQ(snapshot.counts[0], 1u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[9], 1u);
  EXPECT_EQ(snapshot.counts.back(), 1u);
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 1031.0);
}

TEST(Metrics, FingerprintExcludesTimingMetrics) {
  obs::MetricsRegistry metrics;
  metrics.add("work_items", 3);
  const std::string before = metrics.fingerprint();
  metrics.add("stage_wall_ms", 17);
  metrics.set_gauge("last_wall_ms", 123.456);
  metrics.observe("case_ms", 9.5);
  EXPECT_EQ(metrics.fingerprint(), before)
      << "metrics named *_ms must not enter the fingerprint";
  // ...but they do appear in the full dump.
  const std::string full = metrics.to_json(true).dump();
  EXPECT_NE(full.find("stage_wall_ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------------

TEST(TraceBuffer, ExactDropCountWhenCapacityExceededConcurrently) {
  obs::ObsConfig config;
  config.trace_capacity = 64;
  config.trace_shards = 4;
  obs::Observer observer(config);

  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&observer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span span(&observer, "work", "test");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr std::uint64_t kTotal = kThreads * kSpansPerThread;
  EXPECT_EQ(observer.trace().size(), 64u);
  EXPECT_EQ(observer.trace().dropped(), kTotal - 64u)
      << "every record() past capacity must count as exactly one drop";
}

TEST(TraceBuffer, ClearResetsDropsAndAdmission) {
  obs::TraceBuffer buffer(/*capacity=*/2, /*shards=*/1);
  obs::SpanRecord record;
  for (int i = 0; i < 5; ++i) {
    record.seq = static_cast<std::uint64_t>(i + 1);
    (void)buffer.record(record);
  }
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 3u);
  buffer.clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  record.seq = 99;
  EXPECT_TRUE(buffer.record(record));
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

TEST(Span, NestsUnderInnermostOpenSpanOnSameThread) {
  obs::Observer observer;
  {
    obs::Span outer(&observer, "outer", "test");
    obs::Span inner(&observer, "inner", "test");
    EXPECT_NE(outer.seq(), 0u);
  }
  const std::vector<obs::SpanRecord> spans = observer.trace().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Snapshot order is (tid, seq): outer begun first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent_seq, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent_seq, spans[0].seq);
}

TEST(Span, ExplicitParentCrossesThreads) {
  obs::Observer observer;
  obs::Span root(&observer, "root", "test");
  const std::uint64_t root_seq = root.seq();
  std::thread worker([&observer, root_seq] {
    obs::Span child(&observer, "child", "test", root_seq);
  });
  worker.join();
  root.end();
  const std::vector<obs::SpanRecord> spans = observer.trace().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "child") {
      EXPECT_EQ(span.parent_seq, root_seq);
      EXPECT_NE(span.tid, 0) << "worker thread must get its own ordinal";
    }
  }
}

TEST(Span, NullAndDisabledObserversAreInertNoOps) {
  obs::Span null_span(nullptr, "x", "y");
  EXPECT_FALSE(null_span.active());
  null_span.arg("k", "v");
  null_span.end();
  obs::add(nullptr, "counter");
  obs::set_gauge(nullptr, "gauge", 1.0);
  obs::observe(nullptr, "hist", 1.0);
  obs::instant(nullptr, "i", "c");

  obs::ObsConfig off;
  off.enabled = false;
  obs::Observer disabled(off);
  {
    obs::Span span(&disabled, "x", "y");
    EXPECT_FALSE(span.active());
  }
  obs::add(&disabled, "counter");
  disabled.instant("i", "c");
  EXPECT_EQ(disabled.trace().size(), 0u);
  EXPECT_EQ(disabled.metrics().counter("counter"), 0u);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts (tentpole acceptance criterion)
// ---------------------------------------------------------------------------

TEST(ObsDeterminism, PortfolioMetricsByteIdenticalAcrossThreadCounts) {
  const Device device = devices::surface17();
  const Circuit circuit = workloads::ghz(7);

  std::vector<std::string> fingerprints;
  std::vector<std::size_t> span_counts;
  for (const int threads : {1, 2, 8}) {
    obs::Observer observer;
    PortfolioOptions options;
    options.num_threads = threads;
    options.obs = &observer;
    const PortfolioResult result =
        PortfolioCompiler(device, options).compile(circuit);
    EXPECT_GE(result.winner_index, 0);
    fingerprints.push_back(observer.metrics().fingerprint());
    span_counts.push_back(observer.trace().size());
    EXPECT_EQ(observer.trace().dropped(), 0u);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
  EXPECT_EQ(span_counts[0], span_counts[1]);
  EXPECT_EQ(span_counts[0], span_counts[2]);
  EXPECT_GT(span_counts[0], 0u);
}

TEST(ObsDeterminism, AnnealingPortfolioFlushesPlacerCounters) {
  // The placer counters come from the racing strategies' PlacePass runs,
  // so they must add up to the same fingerprint whatever the thread count.
  const Device device = devices::surface17();
  Rng rng(7919);
  const Circuit circuit = workloads::random_clifford_circuit(5, 100, rng);

  std::vector<std::string> fingerprints;
  for (const int threads : {1, 2, 8}) {
    obs::Observer observer;
    PortfolioOptions options;
    options.strategies = {{"annealing", "qmap"},
                          {"exhaustive", "astar"},
                          {"greedy", "sabre"}};
    options.num_threads = threads;
    options.obs = &observer;
    const PortfolioResult result =
        PortfolioCompiler(device, options).compile(circuit);
    EXPECT_GE(result.winner_index, 0);
    const obs::MetricsRegistry& metrics = observer.metrics();
    EXPECT_EQ(metrics.counter("placer.annealing.places"), 1u);
    EXPECT_EQ(metrics.counter("placer.annealing.iterations"), 20000u);
    EXPECT_GT(metrics.counter("placer.annealing.accepted"), 0u);
    EXPECT_LE(metrics.counter("placer.annealing.accepted"), 20000u);
    EXPECT_GT(metrics.counter("placer.exhaustive.visited"), 0u);
    fingerprints.push_back(metrics.fingerprint());
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
  EXPECT_NE(fingerprints[0].find("placer.annealing.accepted"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ChromeTrace, GoldenExportWithFakeClock) {
  obs::Observer observer;
  std::int64_t fake_now = 0;
  observer.set_clock([&fake_now] { return fake_now += 100; });

  {
    obs::Span compile(&observer, "compile", "core");
    compile.arg("circuit", "ghz3");
    {
      obs::Span placer(&observer, "placer", "stage");
    }
    {
      obs::Span router(&observer, "router", "stage");
      observer.instant("fault:stall-ms", "fault");
    }
  }
  const std::string trace = obs::export_chrome_trace(observer);

  const obs::TraceValidation validation = obs::validate_chrome_trace(trace);
  EXPECT_TRUE(validation.ok) << validation.to_string();
  EXPECT_EQ(validation.begin_events, validation.end_events);

  const std::string golden_path =
      std::string(QMAP_GOLDEN_DIR) + "/obs_trace.json";
  const char* regen = std::getenv("QMAP_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0') {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << trace;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  EXPECT_EQ(trace, read_file(golden_path))
      << "chrome-trace export drifted from " << golden_path
      << " (QMAP_REGEN_GOLDEN=1 regenerates after an intentional change)";
}

TEST(ChromeTrace, RealPortfolioTraceIsStructurallyValid) {
  const Device device = devices::surface17();
  const Circuit circuit = workloads::qft(5);

  obs::Observer observer;
  PortfolioOptions options;
  options.num_threads = 4;
  options.obs = &observer;
  const PortfolioResult result =
      PortfolioCompiler(device, options).compile(circuit);
  ASSERT_GE(result.winner_index, 0);

  const std::string trace = obs::export_chrome_trace(observer);
  const obs::TraceValidation validation = obs::validate_chrome_trace(trace);
  EXPECT_TRUE(validation.ok) << validation.to_string();
  EXPECT_GT(validation.events, 0u);
  EXPECT_EQ(validation.begin_events, validation.end_events)
      << "every B needs a matching E";

  // The metrics rider must parse as part of the same JSON document.
  const Json document = Json::parse(trace);
  EXPECT_NE(document.find("metrics"), nullptr);
}

TEST(Span, PortfolioCompileSpansNestUnderTheirStrategySpan) {
  // Each strategy's compile span opens on the worker thread inside that
  // strategy's span, so it nests there without an explicit parent.
  obs::Observer observer;
  PortfolioOptions options;
  options.num_threads = 4;
  options.strategies = {{"greedy", "sabre", 0, 0.0},
                        {"annealing", "qmap", 0, 0.0},
                        {"greedy", "bridge", 0, 0.0}};
  options.obs = &observer;
  const PortfolioResult result =
      PortfolioCompiler(devices::surface17(), options)
          .compile(workloads::qft(5));
  ASSERT_GE(result.winner_index, 0);

  std::map<std::uint64_t, obs::SpanRecord> by_seq;
  for (obs::SpanRecord& span : observer.trace().snapshot()) {
    by_seq[span.seq] = std::move(span);
  }
  int compiles = 0;
  for (const auto& [seq, span] : by_seq) {
    if (span.name != "compile") continue;
    ++compiles;
    const auto parent = by_seq.find(span.parent_seq);
    ASSERT_NE(parent, by_seq.end()) << "compile span " << seq;
    EXPECT_EQ(parent->second.category, "strategy");
    EXPECT_EQ(parent->second.tid, span.tid);
  }
  EXPECT_EQ(compiles, 3);
}

TEST(ChromeTrace, ValidatorRejectsBrokenTraces) {
  EXPECT_FALSE(obs::validate_chrome_trace("not json").ok);
  EXPECT_FALSE(obs::validate_chrome_trace("{}").ok);
  // Unbalanced: a lone B.
  EXPECT_FALSE(
      obs::validate_chrome_trace(
          R"({"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0}]})")
          .ok);
  // E with no open B.
  EXPECT_FALSE(
      obs::validate_chrome_trace(
          R"({"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":0,"tid":0}]})")
          .ok);
  // Negative duration.
  EXPECT_FALSE(obs::validate_chrome_trace(
                   R"({"traceEvents":[)"
                   R"({"name":"a","ph":"B","ts":5,"pid":0,"tid":0},)"
                   R"({"name":"a","ph":"E","ts":1,"pid":0,"tid":0}]})")
                   .ok);
  // Balanced pair passes.
  EXPECT_TRUE(obs::validate_chrome_trace(
                  R"({"traceEvents":[)"
                  R"({"name":"a","ph":"B","ts":1,"pid":0,"tid":0},)"
                  R"({"name":"a","ph":"E","ts":5,"pid":0,"tid":0}]})")
                  .ok);
}

TEST(AsciiSpanTree, RendersNestingAndArgs) {
  obs::Observer observer;
  std::int64_t fake_now = 0;
  observer.set_clock([&fake_now] { return fake_now += 1000; });
  {
    obs::Span root(&observer, "root", "test");
    obs::Span child(&observer, "child", "test");
    child.arg("k", "v");
  }
  const std::string tree = obs::ascii_span_tree(observer);
  EXPECT_NE(tree.find("- root [test]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("  - child [test]"), std::string::npos) << tree;
  EXPECT_NE(tree.find("{k=v}"), std::string::npos) << tree;
}

// ---------------------------------------------------------------------------
// Router loop counters
// ---------------------------------------------------------------------------

// Every loop router flushes one set of per-route counters. Reliability and
// shuttle run on the same core as sabre and bridge, so one observed compile
// of each must leave `router.<name>.{routes,iterations,rescues}` and the
// shared `route.swaps_inserted` histogram behind.
TEST(RouterObs, ReliabilityAndShuttleFlushLoopCounters) {
  Device noisy = devices::surface17();
  Rng rng(21);
  noisy.set_noise(NoiseModel::randomized(noisy.coupling(), rng, 1e-3, 1e-2,
                                         2e-2));
  const std::pair<const char*, Device> cases[] = {
      {"reliability", noisy},
      {"shuttle", devices::quantum_dot_array(3, 3)},
  };
  for (const auto& [router, device] : cases) {
    obs::Observer observer;
    CompilerOptions options;
    options.router = router;
    options.obs = &observer;
    (void)Compiler(device, options).compile(workloads::qft(5));
    const Json counters = observer.metrics().to_json().at("counters");
    const std::string prefix = std::string("router.") + router;
    for (const char* counter : {".routes", ".iterations", ".rescues"}) {
      EXPECT_TRUE(counters.contains(prefix + counter)) << prefix + counter;
    }
    EXPECT_EQ(observer.metrics().counter(prefix + ".routes"), 1u) << router;
    EXPECT_GE(observer.metrics().counter(prefix + ".iterations"), 1u)
        << router;
    EXPECT_EQ(observer.metrics().histogram("route.swaps_inserted").count, 1u)
        << router;
  }
}

// The default router's counters sit under `router.sabre`, like every
// other loop router's, on both the materialized and the streamed path.
TEST(RouterObs, SabreFlushesLoopCountersOnBothPaths) {
  const Device qx5 = devices::ibm_qx5();
  const Circuit circuit = workloads::ghz(5);
  const Placement placement =
      Placement::identity(circuit.num_qubits(), qx5.num_qubits());

  obs::Observer materialized;
  SabreRouter router;
  router.set_observer(&materialized);
  (void)router.route(circuit, qx5, placement);

  obs::Observer streamed;
  SabreRouter stream_router;
  stream_router.set_observer(&streamed);
  CircuitSource source(circuit);
  CircuitSink sink(qx5.num_qubits(), "streamed");
  (void)stream_router.route_stream(source, qx5, placement, sink,
                                   StreamRouteOptions{});

  for (obs::Observer* observer : {&materialized, &streamed}) {
    const Json counters = observer->metrics().to_json().at("counters");
    for (const char* counter :
         {"router.sabre.routes", "router.sabre.iterations",
          "router.sabre.rescues"}) {
      EXPECT_TRUE(counters.contains(counter)) << counter;
    }
    EXPECT_EQ(observer->metrics().counter("router.sabre.routes"), 1u);
    EXPECT_FALSE(counters.contains("sabre.routes"));
  }
}

// qmap and the layered A* router flush under `router.<name>` like every
// other router, and no longer under their old top-level prefixes.
TEST(RouterObs, QmapAndAstarFlushUnderRouterNames) {
  struct Case {
    const char* router;
    const char* old_prefix;
    std::vector<const char*> suffixes;
  };
  const Case cases[] = {
      {"qmap", "qmap_router", {".routes", ".iterations", ".rescues"}},
      {"astar", "astar", {".routes", ".expansions", ".fallback_layers"}},
  };
  for (const Case& c : cases) {
    obs::Observer observer;
    CompilerOptions options;
    options.router = c.router;
    options.obs = &observer;
    (void)Compiler(devices::ibm_qx5(), options).compile(workloads::qft(5));
    const Json counters = observer.metrics().to_json().at("counters");
    const std::string prefix = std::string("router.") + c.router;
    for (const char* suffix : c.suffixes) {
      EXPECT_TRUE(counters.contains(prefix + suffix)) << prefix + suffix;
      EXPECT_FALSE(counters.contains(c.old_prefix + std::string(suffix)))
          << c.old_prefix << suffix;
    }
    EXPECT_EQ(observer.metrics().counter(prefix + ".routes"), 1u) << c.router;
    EXPECT_EQ(observer.metrics().histogram("route.swaps_inserted").count, 1u)
        << c.router;
  }
}

TEST(RouterObs, ExactFlushesSearchCounters) {
  const Device qx4 = devices::ibm_qx4();
  const Circuit circuit = workloads::fig1_example();
  obs::Observer observer;
  CompilerOptions options;
  options.router = "exact";
  options.obs = &observer;
  (void)Compiler(qx4, options).compile(circuit);
  const Json counters = observer.metrics().to_json().at("counters");
  for (const char* counter : {"router.exact.routes", "router.exact.expanded",
                              "router.exact.stored"}) {
    EXPECT_TRUE(counters.contains(counter)) << counter;
  }
  EXPECT_EQ(observer.metrics().counter("router.exact.routes"), 1u);
  const std::uint64_t expanded =
      observer.metrics().counter("router.exact.expanded");
  EXPECT_GE(expanded, 1u);
  // The start state is stored before anything is expanded.
  EXPECT_GT(observer.metrics().counter("router.exact.stored"), expanded);
  EXPECT_EQ(observer.metrics().histogram("route.swaps_inserted").count, 1u);

  // The counts are search facts, not timings: a portfolio race that
  // enrolls the exact strategy reports the same metrics at any width.
  std::vector<std::string> fingerprints;
  for (const int threads : {1, 2, 8}) {
    obs::Observer race_observer;
    PortfolioOptions race_options;
    race_options.num_threads = threads;
    race_options.obs = &race_observer;
    const PortfolioResult result =
        PortfolioCompiler(qx4, race_options).compile(circuit);
    EXPECT_GE(result.winner_index, 0);
    EXPECT_EQ(race_observer.metrics().counter("router.exact.routes"), 1u)
        << threads;
    fingerprints.push_back(race_observer.metrics().fingerprint());
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

// ---------------------------------------------------------------------------
// Resilience negative paths
// ---------------------------------------------------------------------------

resilience::Policy faulty_policy() {
  resilience::Policy policy;
  StrategySpec spec;
  spec.placer = "greedy";
  spec.router = "sabre";
  policy.portfolio = {spec};
  policy.max_retries_per_rung = 1;
  policy.backoff.base_ms = 0.1;
  policy.backoff.cap_ms = 1.0;
  resilience::FaultSpec fault;
  fault.point = "throw-in-placer";
  fault.rung = 0;
  fault.probability = 1.0;
  policy.faults = {fault};
  return policy;
}

TEST(ResilienceObs, OutcomeFingerprintIdenticalWithAndWithoutObserver) {
  const Device device = devices::ibm_qx4();
  const Circuit circuit = workloads::ghz(4);

  resilience::Policy without = faulty_policy();
  const resilience::CompileOutcome baseline =
      resilience::ResilientCompiler(device, without).compile(circuit);

  obs::Observer observer;
  resilience::Policy with = faulty_policy();
  with.obs = &observer;
  const resilience::CompileOutcome observed =
      resilience::ResilientCompiler(device, with).compile(circuit);

  EXPECT_EQ(baseline.fingerprint(), observed.fingerprint())
      << "attaching an observer must not change compilation decisions";
  EXPECT_TRUE(observed.ok);
  // The injected placer crash must be visible in the metrics and as an
  // instant event in the trace.
  EXPECT_GE(observer.metrics().counter("resilience.faults_fired"), 1u);
  bool fault_event = false;
  for (const obs::SpanRecord& span : observer.trace().snapshot()) {
    if (span.name == "fault:throw-in-placer") fault_event = true;
  }
  EXPECT_TRUE(fault_event);
}

TEST(ResilienceObs, StallFaultShowsAsSpanExceedingRungDeadlineSlice) {
  const Device device = devices::ibm_qx4();
  const Circuit circuit = workloads::ghz(4);

  resilience::Policy policy = faulty_policy();
  policy.faults.clear();
  resilience::FaultSpec stall;
  stall.point = "stall-ms";
  stall.rung = 0;
  stall.probability = 1.0;
  stall.stall_ms = 120.0;
  policy.faults = {stall};
  policy.deadline_ms = 60.0;
  policy.max_retries_per_rung = 0;

  obs::Observer observer;
  policy.obs = &observer;
  const resilience::CompileOutcome outcome =
      resilience::ResilientCompiler(device, policy).compile(circuit);
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.degraded()) << outcome.report();

  // The rung-0 slice is deadline_ms * kRung0DeadlineFraction = 36 ms; the
  // stalled attempt must overshoot it (the 120 ms sleep straddles the
  // armed deadline before CancelledError surfaces).
  const double slice_ms =
      policy.deadline_ms * resilience::kRung0DeadlineFraction;
  bool found_overrun = false;
  for (const obs::SpanRecord& span : observer.trace().snapshot()) {
    if (span.name != "attempt") continue;
    bool rung0 = false;
    for (const auto& [key, value] : span.args) {
      if (key == "rung" && value == "0") rung0 = true;
    }
    if (rung0 && span.duration_ms() > slice_ms) found_overrun = true;
  }
  EXPECT_TRUE(found_overrun)
      << "expected a rung-0 attempt span longer than the " << slice_ms
      << " ms slice\n"
      << obs::ascii_span_tree(observer);
}

}  // namespace
}  // namespace qmap
