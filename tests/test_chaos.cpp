// Chaos-hardening suite for the compile service (src/service/).
//
// The contract under test: the daemon never crashes, every accepted
// request gets exactly one response, and the deterministic core stays
// byte-deterministic — no matter what the wire does. The matrix drives
// seeded mixed-validity traffic (RequestFuzzer) through seeded wire
// corruption (ChaosTransport) across 1/2/8 dispatcher threads and diffs
// the surviving compile fingerprints against a fault-free baseline.
// Alongside it: overload shedding, brownout down-tiering, per-device
// circuit breakers, graceful drain, and the request-line byte cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "qasm/openqasm.hpp"
#include "resilience/breaker.hpp"
#include "resilience/fault_injector.hpp"
#include "service/chaos.hpp"
#include "service/service.hpp"
#include "workloads/workloads.hpp"

namespace qmap::service {
namespace {

using resilience::BreakerState;
using resilience::FaultSpec;

/// A brownout enter fraction no queue depth reaches: brownout stays off.
constexpr double kNoBrownout = std::numeric_limits<double>::infinity();

FaultSpec wire_fault(const std::string& point, double probability) {
  FaultSpec spec;
  spec.point = point;
  spec.probability = probability;
  return spec;
}

std::string ghz_qasm(int n) { return to_openqasm(workloads::ghz(n)); }

ServiceRequest compile_request(const std::string& id,
                               const std::string& client,
                               const std::string& qasm,
                               std::uint64_t seed = 7) {
  ServiceRequest request;
  request.op = "compile";
  request.id = id;
  request.client = client;
  request.device = "ibm_qx4";
  request.qasm = qasm;
  request.seed = seed;
  return request;
}

/// Matrix-friendly service shape: wide per-client queues and no overload
/// control, so only the wire faults under test perturb the outcome.
ServiceConfig matrix_config(int workers) {
  ServiceConfig config;
  config.num_workers = workers;
  config.num_compile_threads = 2;
  config.max_queued_per_client = 4096;
  config.overload.max_queued_total = 0;  // also disables brownout
  return config;
}

/// Parses serve() output into (ordered JSON lines, id -> response).
struct ParsedReplies {
  std::vector<Json> lines;
  std::map<std::string, Json> by_id;
};

ParsedReplies parse_replies(const std::string& text) {
  ParsedReplies parsed;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    Json json = Json::parse(line);  // every response must be valid JSON
    if (json.contains("id")) {
      parsed.by_id.emplace(json.at("id").as_string(), json);
    }
    parsed.lines.push_back(std::move(json));
  }
  return parsed;
}

// ------------------------------------------------------- ChaosTransport --

TEST(ChaosTransport, RejectsNonServiceFaultPoints) {
  ChaosConfig config;
  config.faults = {wire_fault("stall-ms", 1.0)};  // registry-known, not wire
  EXPECT_THROW(ChaosTransport{config}, MappingError);
  config.faults = {wire_fault("service.typo", 1.0)};
  EXPECT_THROW(ChaosTransport{config}, MappingError);
}

TEST(ChaosTransport, CorruptionIsDeterministicForAFixedSeed) {
  ChaosConfig config;
  config.faults = {wire_fault("service.truncate-line", 0.5),
                   wire_fault("service.garbage-bytes", 0.5)};
  config.seed = 1234;
  const ChaosTransport transport(config);

  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    lines.push_back("{\"op\":\"ping\",\"id\":\"p" + std::to_string(i) + "\"}");
  }
  const auto first = transport.corrupt(lines);
  const auto second = transport.corrupt(lines);
  ASSERT_EQ(first.size(), second.size());
  int corrupted = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].wire, second[i].wire);
    EXPECT_EQ(first[i].intact, second[i].intact);
    if (!first[i].intact) ++corrupted;
  }
  // p=0.5 on two faults over 64 lines: some corruption, not total.
  EXPECT_GT(corrupted, 0);
  EXPECT_LT(corrupted, 64);
}

TEST(ChaosTransport, DisconnectCutsTheStreamMidLine) {
  ChaosConfig config;
  config.faults = {wire_fault("service.disconnect", 0.2)};
  const ChaosTransport transport(config);
  std::vector<std::string> lines(32, R"({"op":"ping","id":"x"})");
  const auto fates = transport.corrupt(lines);

  const auto cut = std::find_if(fates.begin(), fates.end(),
                                [](const auto& f) { return f.cut_here; });
  ASSERT_NE(cut, fates.end()) << "p=0.2 over 32 lines must cut somewhere";
  for (auto it = cut + 1; it != fates.end(); ++it) {
    EXPECT_FALSE(it->delivered);
  }
  const std::string wire = ChaosTransport::wire(fates);
  // The wire ends with the cut line's prefix, no trailing newline.
  EXPECT_TRUE(wire.empty() || wire.back() != '\n');
}

TEST(ChaosTransport, ExpectedLinesMirrorsServeFraming) {
  EXPECT_EQ(ChaosTransport::expected_lines(""), 0);
  EXPECT_EQ(ChaosTransport::expected_lines("\n\n  \n"), 0);
  EXPECT_EQ(ChaosTransport::expected_lines("a\nb\n"), 2);
  EXPECT_EQ(ChaosTransport::expected_lines("a\n\nb"), 2);   // cut fragment
  EXPECT_EQ(ChaosTransport::expected_lines("  \nxy"), 1);   // ws + fragment
}

TEST(StallingStream, DelaysButNeverLosesWrites) {
  std::ostringstream sink;
  StallingStream slow(sink, /*stall_ms=*/2.0, /*stall_every=*/2);
  for (int i = 0; i < 6; ++i) {
    slow << "line" << i << "\n";
    slow.flush();
  }
  EXPECT_GE(slow.stalls(), 3);
  EXPECT_EQ(sink.str(),
            "line0\nline1\nline2\nline3\nline4\nline5\n");
}

// -------------------------------------------------------- RequestFuzzer --

TEST(RequestFuzzer, DeterministicMixOfValidAndMalformed) {
  RequestFuzzer a(42);
  RequestFuzzer b(42);
  const auto first = a.generate(200);
  const auto second = b.generate(200);
  ASSERT_EQ(first.size(), second.size());

  int well_formed = 0;
  int malformed = 0;
  int compiles = 0;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].line, second[i].line);
    if (first[i].well_formed) {
      ++well_formed;
      // A well-formed line must parse through the real request path.
      EXPECT_NO_THROW(ServiceRequest::from_json(Json::parse(first[i].line)));
    } else {
      ++malformed;
    }
    if (first[i].is_compile) ++compiles;
    if (!first[i].id.empty()) ids.push_back(first[i].id);
  }
  EXPECT_GT(well_formed, 100);
  EXPECT_GT(malformed, 20);
  EXPECT_GT(compiles, 50);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "fuzzer ids must be unique";
}

// ------------------------------------------------------- the big matrix --

/// Fault-free baseline: id -> fingerprint for every well-formed compile in
/// the fuzzed batch. Computed once (it is deterministic) and shared.
const std::vector<FuzzItem>& fuzz_batch() {
  static const std::vector<FuzzItem> items =
      RequestFuzzer(0xFADE).generate(520);
  return items;
}

const std::map<std::string, std::string>& baseline_fingerprints() {
  static const std::map<std::string, std::string> baseline = [] {
    CompileService service(matrix_config(1));
    std::istringstream in([] {
      std::string text;
      for (const FuzzItem& item : fuzz_batch()) text += item.line + "\n";
      return text;
    }());
    std::ostringstream out;
    service.serve(in, out);
    const ParsedReplies replies = parse_replies(out.str());
    std::map<std::string, std::string> fingerprints;
    for (const FuzzItem& item : fuzz_batch()) {
      if (!item.is_compile) continue;
      const auto it = replies.by_id.find(item.id);
      if (it == replies.by_id.end()) continue;
      fingerprints[item.id] = it->second.at("fingerprint").as_string();
    }
    return fingerprints;
  }();
  return baseline;
}

struct MatrixCase {
  const char* name;
  std::vector<FaultSpec> faults;
};

std::vector<MatrixCase> matrix_cases() {
  return {
      {"fault-free", {}},
      {"truncate+garbage",
       {wire_fault("service.truncate-line", 0.10),
        wire_fault("service.garbage-bytes", 0.10)}},
      {"oversize+disconnect",
       {wire_fault("service.oversize-line", 0.05),
        wire_fault("service.disconnect", 0.002)}},
      {"everything",
       {wire_fault("service.truncate-line", 0.05),
        wire_fault("service.garbage-bytes", 0.05),
        wire_fault("service.oversize-line", 0.03),
        wire_fault("service.disconnect", 0.001),
        wire_fault("service.stall-write", 1.0)}},
  };
}

TEST(ChaosMatrix, NoCrashOneResponsePerRequestFingerprintsPinned) {
  const auto& items = fuzz_batch();
  std::vector<std::string> lines;
  lines.reserve(items.size());
  for (const FuzzItem& item : items) lines.push_back(item.line);
  const auto& baseline = baseline_fingerprints();
  ASSERT_GT(baseline.size(), 100u);

  for (const MatrixCase& matrix_case : matrix_cases()) {
    ChaosConfig chaos_config;
    chaos_config.faults = matrix_case.faults;
    chaos_config.oversize_bytes = 1 << 16;
    const ChaosTransport transport(chaos_config);
    const auto fates = transport.corrupt(lines);
    const std::string wire = ChaosTransport::wire(fates);
    const int expected = ChaosTransport::expected_lines(wire);

    const bool stalling =
        std::any_of(matrix_case.faults.begin(), matrix_case.faults.end(),
                    [](const FaultSpec& f) {
                      return f.point == "service.stall-write";
                    });

    for (const int workers : {1, 2, 8}) {
      ServiceConfig config = matrix_config(workers);
      // Oversize faults must actually exceed the cap to exercise it.
      config.max_request_line_bytes = 8192;
      CompileService service(std::move(config));

      std::istringstream in(wire);
      std::ostringstream out;
      int consumed = 0;
      if (stalling) {
        StallingStream slow(out, /*stall_ms=*/1.0, /*stall_every=*/16);
        consumed = service.serve(in, slow);
      } else {
        consumed = service.serve(in, out);
      }

      const ParsedReplies replies = parse_replies(out.str());
      // Exactly one response per accepted request: serve()'s own count,
      // the framing mirror, and the parsed output must all agree.
      EXPECT_EQ(consumed, expected)
          << matrix_case.name << " workers=" << workers;
      EXPECT_EQ(replies.lines.size(), static_cast<std::size_t>(expected))
          << matrix_case.name << " workers=" << workers;

      // Every line that reached the service byte-intact and carries a
      // well-formed compile answers with the baseline fingerprint.
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (!items[i].is_compile) continue;
        if (!fates[i].intact || !fates[i].delivered || fates[i].cut_here) {
          continue;
        }
        const auto reply = replies.by_id.find(items[i].id);
        ASSERT_NE(reply, replies.by_id.end())
            << matrix_case.name << " workers=" << workers
            << " lost id " << items[i].id;
        EXPECT_EQ(reply->second.at("status").as_string(), "ok");
        EXPECT_EQ(reply->second.at("fingerprint").as_string(),
                  baseline.at(items[i].id))
            << matrix_case.name << " workers=" << workers
            << " id " << items[i].id;
      }
    }
  }
}

TEST(ChaosMatrix, MetricsFingerprintIdenticalAcrossIdenticalRuns) {
  // With one dispatcher (no hit-vs-coalesced races) and overload control
  // off, two identical runs must produce byte-identical metrics — the
  // chaos machinery itself introduces no nondeterminism. The one excluded
  // gauge: service.cache.bytes sizes the stored outcome JSON, which embeds
  // wall-clock digits, so its value is timing- not traffic-dependent.
  std::vector<std::string> fingerprints;
  for (int run = 0; run < 2; ++run) {
    obs::Observer observer;
    ServiceConfig config = matrix_config(1);
    config.obs = &observer;
    CompileService service(std::move(config));
    std::string text;
    for (const FuzzItem& item : fuzz_batch()) text += item.line + "\n";
    std::istringstream in(text);
    std::ostringstream out;
    service.serve(in, out);
    Json metrics = Json::parse(observer.metrics().fingerprint());
    metrics.as_object().at("gauges").as_object().erase("service.cache.bytes");
    fingerprints.push_back(metrics.dump());
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

// ------------------------------------------------------- line byte cap --

TEST(CompileService, OversizedRequestLineAnsweredWithoutWedging) {
  ServiceConfig config;
  config.max_request_line_bytes = 64;
  CompileService service(std::move(config));

  const std::string big(1 << 12, 'x');
  std::istringstream in(big + "\n" +
                        std::string(200, ' ') + "\n" +  // over-cap whitespace
                        "{\"op\":\"ping\",\"id\":\"p\"}\n");
  std::ostringstream out;
  const int lines = service.serve(in, out);
  EXPECT_EQ(lines, 2);  // the whitespace run is skipped like a blank line

  const ParsedReplies replies = parse_replies(out.str());
  ASSERT_EQ(replies.lines.size(), 2u);
  EXPECT_EQ(replies.lines[0].at("status").as_string(), "error");
  EXPECT_NE(replies.lines[0].at("error").as_string().find("64-byte cap"),
            std::string::npos);
  ASSERT_TRUE(replies.by_id.count("p"));
  EXPECT_EQ(replies.by_id.at("p").at("status").as_string(), "pong");
}

// ------------------------------------------------------------ shedding --

TEST(CompileService, DeadlineAwareAdmissionShedsDoomedRequests) {
  ServiceConfig config;
  config.num_workers = 1;
  config.overload.initial_cost_ms = 1e6;  // predicted wait dwarfs any deadline
  config.overload.cost_ema_alpha = 0.0;   // pin the estimate
  config.overload.brownout_enter_fraction = kNoBrownout;
  // Keep r1 in flight long enough that r2's admission check sees it.
  FaultSpec stall;
  stall.point = "stall-ms";
  stall.stall_ms = 100.0;
  config.policy.faults = {stall};
  CompileService service(std::move(config));

  // r1 is admitted (no deadline => no prediction to violate) and holds
  // outstanding >= 1 until it completes.
  auto first = service.submit(compile_request("r1", "a", ghz_qasm(3)));
  ServiceRequest doomed = compile_request("r2", "b", ghz_qasm(4));
  doomed.deadline_ms = 10.0;
  const ServiceResponse shed = service.submit(std::move(doomed)).get();
  EXPECT_EQ(shed.status, "shed");
  EXPECT_NE(shed.error.find("deadline"), std::string::npos);
  EXPECT_GE(shed.retry_after_ms, 10.0);
  EXPECT_EQ(first.get().status, "ok");

  // Load gone: the same deadline is admitted now.
  service.wait_idle();
  const LoadDecision decision = service.assess_load(10.0);
  EXPECT_FALSE(decision.shed) << decision.reason;
}

TEST(CompileService, GlobalQueueBudgetShedsBeyondWatermark) {
  ServiceConfig config;
  config.num_workers = 1;
  config.overload.max_queued_total = 1;
  config.overload.brownout_enter_fraction = kNoBrownout;
  // Stall every attempt so the first request pins the dispatcher while
  // the rest arrive.
  FaultSpec stall;
  stall.point = "stall-ms";
  stall.stall_ms = 100.0;
  config.policy.faults = {stall};
  CompileService service(std::move(config));

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit(compile_request(
        "r" + std::to_string(i), "c" + std::to_string(i), ghz_qasm(3),
        static_cast<std::uint64_t>(i))));
  }
  int shed = 0;
  int served = 0;
  for (auto& future : futures) {
    const ServiceResponse response = future.get();
    if (response.status == "shed") {
      ++shed;
      EXPECT_NE(response.error.find("queue budget"), std::string::npos);
      EXPECT_GE(response.retry_after_ms, 25.0);
    } else {
      ++served;
    }
  }
  // The budget is a watermark: at least one request must bounce, at least
  // the first must land.
  EXPECT_GE(shed, 1);
  EXPECT_GE(served, 1);
}

// ------------------------------------------------------------ brownout --

TEST(CompileService, BrownoutDownTiersToRungTwoAndNeverCaches) {
  obs::Observer observer;
  ServiceConfig config;
  config.num_workers = 1;
  config.obs = &observer;
  // Sticky brownout: enters at the first queued request, never exits.
  config.overload.max_queued_total = 64;
  config.overload.brownout_enter_fraction = 0.0;
  config.overload.brownout_exit_fraction = -1.0;
  CompileService service(std::move(config));

  const ServiceResponse degraded =
      service.submit(compile_request("r1", "a", ghz_qasm(3))).get();
  ASSERT_EQ(degraded.status, "ok");
  EXPECT_EQ(degraded.mode, "brownout");
  EXPECT_EQ(degraded.rung, 2);
  EXPECT_EQ(degraded.winner, "identity+naive");
  EXPECT_TRUE(service.brownout_active());
  // Degraded answers are never stored: the next identical request is a
  // fresh miss, not a replay of the cheap result.
  EXPECT_EQ(service.cache_stats().entries, 0u);
  const ServiceResponse again =
      service.submit(compile_request("r2", "a", ghz_qasm(3))).get();
  EXPECT_EQ(again.cache, "miss");
  EXPECT_EQ(again.mode, "brownout");
  EXPECT_GE(observer.metrics().counter("service.brownout_compiles"), 2u);
  EXPECT_EQ(observer.metrics().counter("service.brownout_entered"), 1u);
  EXPECT_EQ(observer.metrics().gauge("service.brownout"), 1.0);
}

TEST(CompileService, BrownoutHysteresisEntersAndExits) {
  obs::Observer observer;
  ServiceConfig config;
  config.num_workers = 2;
  config.obs = &observer;
  config.overload.max_queued_total = 4;
  config.overload.brownout_enter_fraction = 0.75;  // enter at depth 3
  config.overload.brownout_exit_fraction = 0.0;    // exit at depth 0
  FaultSpec stall;
  stall.point = "stall-ms";
  stall.stall_ms = 30.0;
  config.policy.faults = {stall};
  CompileService service(std::move(config));

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.submit(compile_request(
        "r" + std::to_string(i), "c" + std::to_string(i % 4), ghz_qasm(3),
        static_cast<std::uint64_t>(i))));
  }
  for (auto& future : futures) (void)future.get();
  service.wait_idle();
  // The burst drove the queue over the enter watermark and the drain back
  // to zero: brownout entered and exited (hysteresis closed the loop).
  EXPECT_GE(observer.metrics().counter("service.brownout_entered"), 1u);
  EXPECT_EQ(observer.metrics().counter("service.brownout_entered"),
            observer.metrics().counter("service.brownout_exited"));
  EXPECT_FALSE(service.brownout_active());
  EXPECT_EQ(observer.metrics().gauge("service.brownout"), 0.0);
}

// ------------------------------------------------------------- breaker --

/// Service whose every compile fails Permanent (unshielded ladder + a
/// placer fault on every rung): the breaker's worst customer.
ServiceConfig poisoned_config(obs::Observer* observer,
                              std::int64_t* clock_us) {
  ServiceConfig config;
  config.num_workers = 1;
  config.obs = observer;
  config.policy.shield_last_rung = false;
  FaultSpec fault;
  fault.point = "throw-in-placer";
  fault.rung = -1;
  config.policy.faults = {fault};
  config.breaker.failure_threshold = 2;
  config.breaker.open_ms = 100.0;
  config.breaker.now_us = [clock_us] { return *clock_us; };
  return config;
}

TEST(CompileService, BreakerOpensAfterConsecutivePermanentFailures) {
  obs::Observer observer;
  std::int64_t clock_us = 0;
  CompileService service(poisoned_config(&observer, &clock_us));

  // Distinct seeds so negative caching cannot absorb the repeats.
  for (int i = 0; i < 2; ++i) {
    const ServiceResponse response =
        service.handle(compile_request("r" + std::to_string(i), "a",
                                       ghz_qasm(3),
                                       static_cast<std::uint64_t>(i)));
    EXPECT_EQ(response.status, "error") << response.error;
  }
  EXPECT_EQ(service.breaker_state("ibm_qx4"), BreakerState::Open);

  // Fresh work fast-fails with a backoff hint...
  const ServiceResponse unavailable =
      service.handle(compile_request("r9", "a", ghz_qasm(3), 99));
  EXPECT_EQ(unavailable.status, "unavailable");
  EXPECT_NE(unavailable.error.find("circuit breaker open"),
            std::string::npos);
  EXPECT_GT(unavailable.retry_after_ms, 0.0);
  EXPECT_GE(observer.metrics().counter("service.breaker_fast_fail"), 1u);
  EXPECT_GE(observer.metrics().counter("service.breaker_open"), 1u);
  EXPECT_EQ(observer.metrics().gauge("service.breaker.ibm_qx4.state"), 2.0);

  // ...but cached answers (here: the negative entry for seed 0) still
  // serve while the breaker is open.
  const ServiceResponse cached =
      service.handle(compile_request("r0-again", "a", ghz_qasm(3), 0));
  EXPECT_EQ(cached.cache, "negative-hit");

  // Per-device isolation: qx5's breaker is untouched.
  ServiceRequest other = compile_request("qx5", "a", ghz_qasm(3), 5);
  other.device = "ibm_qx5";
  const ServiceResponse neighbour = service.handle(std::move(other));
  EXPECT_EQ(neighbour.status, "error");  // still failing, NOT unavailable
  EXPECT_EQ(service.breaker_state("ibm_qx5"), BreakerState::Closed);
}

TEST(CompileService, BreakerHalfOpenProbeFailureReopens) {
  obs::Observer observer;
  std::int64_t clock_us = 0;
  CompileService service(poisoned_config(&observer, &clock_us));

  for (int i = 0; i < 2; ++i) {
    (void)service.handle(compile_request("r" + std::to_string(i), "a",
                                         ghz_qasm(3),
                                         static_cast<std::uint64_t>(i)));
  }
  ASSERT_EQ(service.breaker_state("ibm_qx4"), BreakerState::Open);

  clock_us += 100 * 1000;  // open window lapses: next request is a probe
  const ServiceResponse probe =
      service.handle(compile_request("probe", "a", ghz_qasm(3), 11));
  EXPECT_EQ(probe.status, "error");  // the probe ran (and failed)
  EXPECT_EQ(service.breaker_state("ibm_qx4"), BreakerState::Open);
  EXPECT_GE(observer.metrics().counter("service.breaker_open"), 2u);
  EXPECT_GE(observer.metrics().counter("service.breaker_half_open"), 1u);
}

TEST(CompileService, BreakerNeverCountsAdmissionRejections) {
  obs::Observer observer;
  ServiceConfig config;
  config.obs = &observer;
  config.breaker.failure_threshold = 2;
  CompileService service(std::move(config));

  // 6 qubits on 5-qubit QX4: rejected at admission, forever. Distinct
  // seeds dodge the negative cache so every request runs assess().
  for (int i = 0; i < 6; ++i) {
    const ServiceResponse response =
        service.handle(compile_request("r" + std::to_string(i), "a",
                                       ghz_qasm(6),
                                       static_cast<std::uint64_t>(i)));
    EXPECT_EQ(response.status, "rejected");
  }
  EXPECT_EQ(service.breaker_state("ibm_qx4"), BreakerState::Closed);
}

// --------------------------------------------------------------- drain --

TEST(CompileService, CleanDrainFinishesInFlightWork) {
  obs::Observer observer;
  ServiceConfig config;
  config.num_workers = 2;
  config.obs = &observer;
  CompileService service(std::move(config));

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.submit(compile_request(
        "r" + std::to_string(i), "a", ghz_qasm(3),
        static_cast<std::uint64_t>(i))));
  }
  const DrainReport report = service.drain(10000.0);
  EXPECT_TRUE(report.clean);
  EXPECT_LT(report.wall_ms, 10000.0);
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, "ok");
  }
  EXPECT_TRUE(service.draining());
  EXPECT_EQ(observer.metrics().counter("service.drain_forced"), 0u);

  // Admission is closed: post-drain submits shed immediately.
  const ServiceResponse late =
      service.submit(compile_request("late", "a", ghz_qasm(4))).get();
  EXPECT_EQ(late.status, "shed");
  EXPECT_NE(late.error.find("draining"), std::string::npos);
}

TEST(CompileService, ForcedDrainCancelsStragglersButAnswersEveryone) {
  obs::Observer observer;
  ServiceConfig config;
  config.num_workers = 1;
  config.obs = &observer;
  FaultSpec stall;
  stall.point = "stall-ms";
  stall.stall_ms = 150.0;
  config.policy.faults = {stall};
  CompileService service(std::move(config));

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.submit(compile_request(
        "r" + std::to_string(i), "a", ghz_qasm(4),
        static_cast<std::uint64_t>(i))));
  }
  const DrainReport report = service.drain(20.0);
  EXPECT_FALSE(report.clean);
  // Forcing is bounded: stalls are ~150ms per stage, not the full ladder.
  EXPECT_LT(report.wall_ms, 30000.0);
  int cancelled = 0;
  for (auto& future : futures) {
    const ServiceResponse response = future.get();  // all answered: no hangs
    EXPECT_TRUE(response.status == "ok" || response.status == "cancelled" ||
                response.status == "error")
        << response.status;
    if (response.status == "cancelled") ++cancelled;
  }
  EXPECT_GE(cancelled, 1);
  EXPECT_EQ(observer.metrics().counter("service.drain_forced"), 1u);
}

TEST(CompileService, DrainDuringServeFlushesEveryResponse) {
  // serve() on a background thread, drain racing the request stream: the
  // response count must still match the accepted-line count exactly.
  ServiceConfig config;
  config.num_workers = 2;
  CompileService service(std::move(config));

  std::string text;
  for (int i = 0; i < 12; ++i) {
    ServiceRequest request = compile_request(
        "r" + std::to_string(i), "a", ghz_qasm(3),
        static_cast<std::uint64_t>(i % 3));
    text += request.to_json().dump() + "\n";
  }
  std::istringstream in(text);
  std::ostringstream out;
  std::thread server([&] { service.serve(in, out); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const DrainReport report = service.drain(5000.0);
  server.join();

  const ParsedReplies replies = parse_replies(out.str());
  EXPECT_EQ(replies.lines.size(), 12u);  // one response per accepted line
  EXPECT_LT(report.wall_ms, 5001.0);
  for (const Json& line : replies.lines) {
    const std::string status = line.at("status").as_string();
    EXPECT_TRUE(status == "ok" || status == "shed" || status == "cancelled")
        << status;
  }
}

}  // namespace
}  // namespace qmap::service
