// Resilient compilation pipeline: admission, fallback ladder, retry with
// backoff, fault injection, and degradation reporting (src/resilience/).
//
// The heart of the file is the table-driven fault matrix: every registered
// fault point, armed at probability 1.0 against the rung it targets, on
// every reference device — and resilience::compile must still hand back a
// ValidityChecker-clean mapping with telemetry naming exactly what went
// wrong and which rung recovered.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "arch/builtin.hpp"
#include "arch/noise.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "engine/cancel.hpp"
#include "layout/placers.hpp"
#include "resilience/admission.hpp"
#include "resilience/backoff.hpp"
#include "resilience/breaker.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/resilience.hpp"
#include "verify/shrink.hpp"
#include "verify/validity.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

using resilience::AdmissionGuard;
using resilience::AdmissionVerdict;
using resilience::Backoff;
using resilience::BackoffOptions;
using resilience::CompileOutcome;
using resilience::FaultInjector;
using resilience::FaultSpec;
using resilience::Policy;
using resilience::ResilientCompiler;
using resilience::ResourceBudget;

bool contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

/// A small single-strategy portfolio keeps the matrix fast: the ladder
/// semantics under test do not depend on the race width.
Policy small_policy() {
  Policy policy;
  StrategySpec spec;
  spec.placer = "greedy";
  spec.router = "sabre";
  policy.portfolio = {spec};
  policy.max_retries_per_rung = 1;
  policy.backoff.base_ms = 0.1;
  policy.backoff.cap_ms = 1.0;
  return policy;
}

// ---------------------------------------------------------------------------
// Fault-injection matrix: point x targeted rungs x device.
// ---------------------------------------------------------------------------

struct MatrixCase {
  const char* point;
  int rung;  // targeted rung: 0, or -1 for every rung
};

struct DeviceCase {
  const char* name;
  Device (*make)();
  int workload_qubits;
};

class FaultMatrix
    : public ::testing::TestWithParam<std::tuple<MatrixCase, DeviceCase>> {};

TEST_P(FaultMatrix, RecoversWithValidMapping) {
  const auto& [fault, dev] = GetParam();
  const Device device = dev.make();
  const Circuit circuit = workloads::ghz(dev.workload_qubits);

  Policy policy = small_policy();
  FaultSpec spec;
  spec.point = fault.point;
  spec.rung = fault.rung;
  spec.probability = 1.0;
  spec.stall_ms = 120.0;
  policy.faults = {spec};
  if (std::string(fault.point) == "stall-ms") {
    // A stall only bites when a deadline can expire around it.
    policy.deadline_ms = 60.0;
    policy.max_retries_per_rung = 0;
  }

  const CompileOutcome outcome =
      ResilientCompiler(device, policy).compile(circuit);

  // The ladder must always come back with a result...
  ASSERT_TRUE(outcome.ok) << outcome.report();
  // ...that independently re-audits clean.
  const verify::ValidityChecker checker(device);
  EXPECT_TRUE(checker.check_result(outcome.result).ok()) << outcome.report();
  EXPECT_TRUE(outcome.validated);

  // corrupt-result flips the last CX; a CZ-native device has none, so the
  // fault legitimately cannot fire there and rung 0 wins untouched.
  const bool can_fire = std::string(fault.point) != "corrupt-result" ||
                        device.native_two_qubit() == GateKind::CX;
  if (!can_fire) {
    EXPECT_EQ(outcome.rung, 0) << outcome.report();
    EXPECT_TRUE(outcome.injected_faults.empty());
    return;
  }
  // The telemetry names the fault that fired...
  EXPECT_TRUE(contains(outcome.injected_faults, fault.point))
      << outcome.report();
  // ...and the answer came from below the sabotaged rung(s): rung 0
  // attacks recover at rung 1, everywhere-attacks at the shielded rung 2.
  if (fault.rung == 0) {
    EXPECT_GE(outcome.rung, 1) << outcome.report();
  } else {
    EXPECT_EQ(outcome.rung, 2) << outcome.report();
    EXPECT_EQ(outcome.winner_label, "identity+naive");
  }
  EXPECT_TRUE(outcome.degraded());
}

std::string matrix_test_name(
    const ::testing::TestParamInfo<FaultMatrix::ParamType>& info) {
  const MatrixCase& fault = std::get<0>(info.param);
  const DeviceCase& dev = std::get<1>(info.param);
  std::string point = fault.point;
  std::replace(point.begin(), point.end(), '-', '_');
  return point + (fault.rung == 0 ? "_rung0_" : "_all_rungs_") + dev.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPointsAllDevices, FaultMatrix,
    ::testing::Combine(
        ::testing::Values(MatrixCase{"throw-in-placer", 0},
                          MatrixCase{"throw-in-placer", -1},
                          MatrixCase{"throw-in-router", 0},
                          MatrixCase{"throw-in-router", -1},
                          MatrixCase{"oom-simulate", 0},
                          MatrixCase{"oom-simulate", -1},
                          MatrixCase{"corrupt-result", 0},
                          MatrixCase{"corrupt-result", -1},
                          MatrixCase{"stall-ms", 0},
                          MatrixCase{"stall-ms", -1}),
        ::testing::Values(DeviceCase{"qx4", devices::ibm_qx4, 4},
                          DeviceCase{"qx5", devices::ibm_qx5, 6},
                          DeviceCase{"surface17", devices::surface17, 5})),
    matrix_test_name);

// ---------------------------------------------------------------------------
// Clean path, degradation report, determinism.
// ---------------------------------------------------------------------------

TEST(Resilience, CleanCompileWinsAtRungZero) {
  const CompileOutcome outcome = resilience::compile(
      workloads::fig1_example(), devices::ibm_qx4(), small_policy());
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.rung, 0);
  EXPECT_FALSE(outcome.degraded());
  EXPECT_EQ(outcome.total_retries, 0);
  EXPECT_TRUE(outcome.injected_faults.empty());
  EXPECT_TRUE(outcome.validated);
  ASSERT_EQ(outcome.rungs.size(), 3u);
  EXPECT_FALSE(outcome.rungs[0].skipped);
  EXPECT_TRUE(outcome.rungs[1].skipped);
  EXPECT_TRUE(outcome.rungs[2].skipped);
  EXPECT_FALSE(outcome.rungs[0].strategies.empty());
}

TEST(Resilience, RetryTelemetryRecordsBackoffAndClasses) {
  Policy policy = small_policy();
  policy.max_retries_per_rung = 2;
  FaultSpec spec;
  spec.point = "throw-in-router";
  spec.rung = 0;
  policy.faults = {spec};

  const CompileOutcome outcome = resilience::compile(
      workloads::ghz(4), devices::ibm_qx4(), policy);
  ASSERT_TRUE(outcome.ok) << outcome.report();
  EXPECT_EQ(outcome.rung, 1);
  EXPECT_EQ(outcome.total_retries, 2);
  const resilience::RungReport& r0 = outcome.rungs[0];
  ASSERT_EQ(r0.attempts.size(), 3u);
  for (const resilience::AttemptReport& a : r0.attempts) {
    EXPECT_FALSE(a.ok);
    EXPECT_EQ(a.error_class, ErrorClass::Transient);
    EXPECT_TRUE(contains(a.injected_faults, "throw-in-router"));
  }
  EXPECT_EQ(r0.attempts[0].backoff_ms, 0.0);
  EXPECT_GT(r0.attempts[1].backoff_ms, 0.0);
  EXPECT_GT(r0.attempts[2].backoff_ms, 0.0);
  // Permanent rung-1 success needed no retries.
  ASSERT_EQ(outcome.rungs[1].attempts.size(), 1u);
  EXPECT_TRUE(outcome.rungs[1].attempts[0].ok);
}

TEST(Resilience, ResourceExhaustionFallsBackWithoutRetry) {
  Policy policy = small_policy();
  policy.max_retries_per_rung = 3;
  FaultSpec spec;
  spec.point = "oom-simulate";
  spec.rung = 0;
  policy.faults = {spec};

  const CompileOutcome outcome = resilience::compile(
      workloads::ghz(4), devices::ibm_qx4(), policy);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.rung, 1);
  // ResourceExhausted must not burn the retry budget at the same tier.
  EXPECT_EQ(outcome.total_retries, 0);
  ASSERT_EQ(outcome.rungs[0].attempts.size(), 1u);
  EXPECT_EQ(outcome.rungs[0].attempts[0].error_class,
            ErrorClass::ResourceExhausted);
}

TEST(Resilience, FingerprintByteIdenticalAcrossThreadCounts) {
  // Probabilistic faults + retries + a multi-strategy race: the full
  // decision surface must depend only on the seed, never on scheduling.
  Policy policy;
  StrategySpec a;
  a.placer = "greedy";
  a.router = "sabre";
  StrategySpec b;
  b.placer = "annealing";
  b.router = "astar";
  policy.portfolio = {a, b};
  policy.max_retries_per_rung = 1;
  policy.backoff.base_ms = 0.1;
  policy.backoff.cap_ms = 0.5;
  FaultSpec flaky;
  flaky.point = "throw-in-router";
  flaky.rung = 0;
  flaky.probability = 0.5;
  policy.faults = {flaky};
  policy.seed = 0xD15EA5E;

  std::vector<std::string> fingerprints;
  for (const int threads : {1, 4, 1}) {
    policy.num_threads = threads;
    const CompileOutcome outcome = resilience::compile(
        workloads::qft(4), devices::surface17(), policy);
    ASSERT_TRUE(outcome.ok);
    fingerprints.push_back(outcome.fingerprint());
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

TEST(Resilience, ShieldedLastRungSurvivesTotalInjection) {
  Policy policy = small_policy();
  for (const std::string& point : resilience::known_fault_points()) {
    FaultSpec spec;
    spec.point = point;
    spec.rung = -1;
    spec.stall_ms = 5.0;
    policy.faults.push_back(spec);
  }
  const CompileOutcome outcome = resilience::compile(
      workloads::ghz(4), devices::ibm_qx4(), policy);
  ASSERT_TRUE(outcome.ok) << outcome.report();
  EXPECT_EQ(outcome.rung, 2);
  EXPECT_EQ(outcome.winner_label, "identity+naive");
  EXPECT_TRUE(outcome.validated);
  EXPECT_TRUE(
      verify::ValidityChecker(devices::ibm_qx4()).check_result(outcome.result)
          .ok());
}

TEST(Resilience, UnshieldedLastRungReportsHonestFailure) {
  Policy policy = small_policy();
  policy.shield_last_rung = false;
  FaultSpec spec;
  spec.point = "throw-in-placer";
  spec.rung = -1;
  policy.faults = {spec};
  const CompileOutcome outcome = resilience::compile(
      workloads::ghz(3), devices::ibm_qx4(), policy);
  EXPECT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ(outcome.rung, -1);
  ASSERT_EQ(outcome.rungs.size(), 3u);
  EXPECT_FALSE(outcome.rungs[2].attempts.empty());
}

// ---------------------------------------------------------------------------
// Admission guards.
// ---------------------------------------------------------------------------

TEST(Admission, RejectsCircuitsThatCanNeverSucceed) {
  const CompileOutcome wide = resilience::compile(
      workloads::ghz(8), devices::ibm_qx4(), small_policy());
  EXPECT_FALSE(wide.ok);
  EXPECT_NE(wide.error.find("admission"), std::string::npos);
  EXPECT_NE(wide.error.find("8 qubits"), std::string::npos);
  EXPECT_EQ(wide.admission.verdict, AdmissionVerdict::Reject);
  EXPECT_TRUE(wide.rungs.empty());  // no compute was spent
}

TEST(Admission, BudgetsRejectWithNamedReasons) {
  Policy policy = small_policy();
  policy.budget.max_gates = 3;
  const CompileOutcome outcome = resilience::compile(
      workloads::ghz(4), devices::ibm_qx4(), policy);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("max_gates"), std::string::npos);

  Policy depth_policy = small_policy();
  depth_policy.budget.max_depth = 1;
  const CompileOutcome deep = resilience::compile(
      workloads::ghz(4), devices::ibm_qx4(), depth_policy);
  EXPECT_FALSE(deep.ok);
  EXPECT_NE(deep.error.find("max_depth"), std::string::npos);
}

TEST(Admission, MemoryPressureDownTiersPastThePortfolio) {
  const Device device = devices::ibm_qx5();
  const Circuit circuit = workloads::ghz(6);
  Policy policy;
  StrategySpec spec;
  spec.placer = "greedy";
  spec.router = "sabre";
  policy.portfolio = std::vector<StrategySpec>(6, spec);
  // Budget sized between one strategy's estimate and six strategies'.
  const AdmissionGuard probe(device, ResourceBudget{});
  const std::size_t one = probe.assess(circuit, 1).estimated_strategy_bytes;
  policy.budget.max_memory_bytes = one * 3;

  const CompileOutcome outcome =
      ResilientCompiler(device, policy).compile(circuit);
  ASSERT_TRUE(outcome.ok) << outcome.report();
  EXPECT_EQ(outcome.admission.verdict, AdmissionVerdict::DownTier);
  EXPECT_EQ(outcome.rung, 1);
  EXPECT_TRUE(outcome.rungs[0].skipped);
}

TEST(Admission, DeadlineBelowTheRaceFloorDownTiers) {
  const Circuit circuit = workloads::ghz(4);
  const AdmissionGuard guard(devices::ibm_qx4(), ResourceBudget{});
  const auto tight = guard.assess(circuit, 1, 5.0);
  EXPECT_EQ(tight.verdict, AdmissionVerdict::DownTier);
  const std::vector<std::string> expected = {
      "deadline 5.000000 ms is below min_race_deadline_ms 10.000000; "
      "starting at the single-strategy rung"};
  EXPECT_EQ(tight.reasons, expected);
  // The floor itself, and no deadline at all, race the portfolio.
  for (const double deadline_ms : {10.0, 0.0}) {
    const auto report = guard.assess(circuit, 1, deadline_ms);
    EXPECT_EQ(report.verdict, AdmissionVerdict::Admit) << deadline_ms;
    EXPECT_TRUE(report.reasons.empty()) << deadline_ms;
  }

  Policy policy = small_policy();
  policy.deadline_ms = 5.0;
  const CompileOutcome outcome =
      resilience::compile(circuit, devices::ibm_qx4(), policy);
  ASSERT_TRUE(outcome.ok) << outcome.report();
  EXPECT_EQ(outcome.admission.verdict, AdmissionVerdict::DownTier);
  ASSERT_EQ(outcome.rungs.size(), 3u);
  EXPECT_TRUE(outcome.rungs[0].skipped);
  EXPECT_TRUE(outcome.rungs[0].attempts.empty());
  EXPECT_GE(outcome.rung, 1);
}

TEST(Admission, ReportsMalformedGatesStructurally) {
  Circuit bad(3);
  bad.add(Gate{GateKind::CX, {0, 0}, {}});
  const AdmissionGuard guard(devices::ibm_qx4(), ResourceBudget{});
  const auto report = guard.assess(bad);
  EXPECT_EQ(report.verdict, AdmissionVerdict::Reject);
  ASSERT_FALSE(report.reasons.empty());
  EXPECT_NE(report.reasons[0].find("gate 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault injector registry.
// ---------------------------------------------------------------------------

TEST(FaultInjectorRegistry, UnknownPointThrowsWithValidNames) {
  FaultInjector injector;
  FaultSpec spec;
  spec.point = "segfault-in-scheduler";
  try {
    injector.add(spec);
    FAIL() << "expected MappingError";
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("throw-in-placer"),
              std::string::npos);
  }
  // The policy validator rejects it just as eagerly.
  Policy policy;
  policy.faults = {spec};
  EXPECT_THROW(ResilientCompiler(devices::ibm_qx4(), policy), MappingError);
}

TEST(FaultInjectorRegistry, DecisionsAreDeterministicPerCoordinates) {
  FaultSpec spec;
  spec.point = "throw-in-router";
  spec.probability = 0.5;
  const FaultInjector a({spec}, 42);
  const FaultInjector b({spec}, 42);
  for (int rung = 0; rung < 2; ++rung) {
    for (int strategy = 0; strategy < 4; ++strategy) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        bool fired_a = false;
        bool fired_b = false;
        try {
          a.at_stage("router", rung, strategy, attempt);
        } catch (const TransientError&) {
          fired_a = true;
        }
        try {
          b.at_stage("router", rung, strategy, attempt);
        } catch (const TransientError&) {
          fired_b = true;
        }
        EXPECT_EQ(fired_a, fired_b);
      }
    }
  }
  // Both injectors saw identical firings.
  EXPECT_EQ(a.drain_fired(), b.drain_fired());
}

TEST(FaultInjectorRegistry, KnownPointsAreStable) {
  const std::vector<std::string> expected = {
      "throw-in-placer", "throw-in-router", "stall-ms", "corrupt-result",
      "oom-simulate", "service.truncate-line", "service.garbage-bytes",
      "service.oversize-line", "service.disconnect", "service.stall-write"};
  EXPECT_EQ(resilience::known_fault_points(), expected);
}

// ---------------------------------------------------------------------------
// Backoff.
// ---------------------------------------------------------------------------

TEST(BackoffSchedule, DecorrelatedJitterStaysInBounds) {
  BackoffOptions options;
  options.base_ms = 2.0;
  options.cap_ms = 50.0;
  Backoff backoff(options, 7);
  double prev = options.base_ms;
  for (int i = 0; i < 64; ++i) {
    const double d = backoff.next_ms();
    EXPECT_GE(d, options.base_ms);
    EXPECT_LE(d, options.cap_ms);
    EXPECT_LE(d, std::max(options.base_ms, prev * resilience::kBackoffMultiplier));
    prev = d;
  }
}

TEST(BackoffSchedule, SameSeedSameSequence) {
  Backoff a({}, 99);
  Backoff b({}, 99);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_ms(), b.next_ms());
  Backoff c({}, 100);
  bool any_different = false;
  Backoff d({}, 99);
  for (int i = 0; i < 16; ++i) {
    any_different = any_different || c.next_ms() != d.next_ms();
  }
  EXPECT_TRUE(any_different);
}

// ---------------------------------------------------------------------------
// Batch isolation.
// ---------------------------------------------------------------------------

TEST(ResilienceBatch, PoisonedItemsNeverSinkSiblings) {
  const std::vector<Circuit> circuits = {
      workloads::ghz(3),   // fine
      workloads::ghz(12),  // wider than QX4: rejected at admission
      workloads::ghz(4),   // fine
  };
  const std::vector<CompileOutcome> outcomes =
      ResilientCompiler(devices::ibm_qx4(), small_policy())
          .compile_batch(circuits);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find("admission"), std::string::npos);
  EXPECT_TRUE(outcomes[2].ok);
}

TEST(Batch, CompilesManyCircuitsAndKeepsOrder) {
  const std::vector<Circuit> circuits = {
      workloads::ghz(4), workloads::qft(4), workloads::fig1_example(),
      workloads::bernstein_vazirani({1, 0, 1}).unitary_part()};
  const std::vector<CompileOutcome> outcomes =
      ResilientCompiler(devices::surface17(), small_policy())
          .compile_batch(circuits);
  ASSERT_EQ(outcomes.size(), circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    // Submission order is preserved no matter which worker finished first.
    EXPECT_EQ(outcomes[i].result.original.name(), circuits[i].name());
    EXPECT_EQ(outcomes[i].rung, 0);
    EXPECT_TRUE(outcomes[i].validated);
    EXPECT_TRUE(Compiler::verify(outcomes[i].result));
  }
}

TEST(Batch, PortfolioModeReturnsWinnersPerCircuit) {
  // Two racing strategies, so every item names the winner of its own race.
  Policy policy = small_policy();
  StrategySpec bridge;
  bridge.placer = "identity";
  bridge.router = "bridge";
  policy.portfolio.push_back(bridge);
  const std::vector<Circuit> circuits = {workloads::fig1_example(),
                                         workloads::ghz(4)};
  const std::vector<CompileOutcome> outcomes =
      ResilientCompiler(devices::ibm_qx4(), policy).compile_batch(circuits);
  ASSERT_EQ(outcomes.size(), circuits.size());
  for (const CompileOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.rung, 0);
    EXPECT_FALSE(outcome.winner_label.empty());
    EXPECT_TRUE(Compiler::verify(outcome.result));
  }
}

TEST(Batch, RecordsPerCircuitFailuresWithoutThrowing) {
  const std::vector<Circuit> circuits = {workloads::ghz(4),
                                         workloads::ghz(9)};  // too wide
  std::vector<CompileOutcome> outcomes;
  EXPECT_NO_THROW(outcomes =
                      ResilientCompiler(devices::ibm_qx4(), small_policy())
                          .compile_batch(circuits));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_FALSE(outcomes[1].error.empty());
}

TEST(ResilienceBatch, MatchesSerialCompileUnderDerivedSeed) {
  // Item k of a batch is the serial compile under the seed derived from
  // (policy.seed, k), bit for bit. The annealing placer is stochastic, so
  // a wrong seed shows in the output.
  Policy policy = small_policy();
  policy.portfolio[0].placer = "annealing";
  policy.seed = 99;
  const Device device = devices::surface17();
  const std::vector<Circuit> circuits = {workloads::ghz(5),
                                         workloads::qft(4)};
  const std::vector<CompileOutcome> batch =
      ResilientCompiler(device, policy).compile_batch(circuits);
  ASSERT_EQ(batch.size(), circuits.size());
  for (std::size_t k = 0; k < circuits.size(); ++k) {
    Policy serial_policy = policy;
    serial_policy.seed = Rng::derive_stream(policy.seed, k);
    const CompileOutcome serial =
        ResilientCompiler(device, serial_policy).compile(circuits[k]);
    ASSERT_TRUE(batch[k].ok) << batch[k].error;
    EXPECT_EQ(batch[k].fingerprint(), serial.fingerprint()) << "item " << k;
  }
}

TEST(ResilienceBatch, DerivedSeedsKeepItemsIndependent) {
  // Every item derives its own seed stream from (policy.seed, index): a
  // probabilistic fault hitting item 0 says nothing about item 1.
  Policy policy = small_policy();
  policy.seed = 123;
  const std::vector<Circuit> circuits = {workloads::ghz(3),
                                         workloads::ghz(3)};
  const std::vector<CompileOutcome> first =
      ResilientCompiler(devices::ibm_qx4(), policy).compile_batch(circuits);
  const std::vector<CompileOutcome> second =
      ResilientCompiler(devices::ibm_qx4(), policy).compile_batch(circuits);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].fingerprint(), second[0].fingerprint());
  EXPECT_EQ(first[1].fingerprint(), second[1].fingerprint());
}

// ---------------------------------------------------------------------------
// Satellite: 1 ms deadlines cancel every search pass promptly.
// ---------------------------------------------------------------------------

template <typename PlacerT>
void expect_placer_cancels(PlacerT&& placer, const Device& device,
                           const Circuit& circuit) {
  CancelToken token;
  token.cancel();
  placer.set_cancel_token(&token);
  EXPECT_THROW((void)placer.place(circuit, device), CancelledError);
}

TEST(CancellationCoverage, PlacersHonorFiredTokens) {
  const Device device = devices::surface17();
  Rng rng(7);
  const Circuit circuit = workloads::random_circuit(10, 60, rng);
  expect_placer_cancels(GreedyPlacer(), device, circuit);
  expect_placer_cancels(AnnealingPlacer(7), device, circuit);
  const Device small = devices::ibm_qx4();
  const Circuit small_circuit = workloads::ghz(4);
  expect_placer_cancels(ExhaustivePlacer(), small, small_circuit);
}

TEST(CancellationCoverage, OneMillisecondDeadlineCancelsPlacersPromptly) {
  const Device device = devices::surface17();
  Rng rng(11);
  const Circuit circuit = workloads::random_circuit(14, 220, rng);
  for (const char* name : {"greedy", "annealing"}) {
    CancelToken token;
    token.set_deadline_after_ms(1.0);
    const auto placer = make_placer(name, 3);
    placer->set_cancel_token(&token);
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)placer->place(circuit, device);
    } catch (const CancelledError&) {
    }
    const double elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // Promptly: well under a second even on a loaded CI box.
    EXPECT_LT(elapsed, 500.0) << name;
  }
}

TEST(CancellationCoverage, ShrinkerDdminHonorsDeadline) {
  Rng rng(5);
  const Circuit failing = workloads::random_circuit(5, 40, rng);
  CancelToken token;
  token.cancel();
  verify::ShrinkOptions options;
  options.cancel = &token;
  const verify::Shrinker shrinker(options);
  EXPECT_THROW(
      (void)shrinker.shrink(failing, [](const Circuit&) { return true; }),
      CancelledError);
}

// ---------------------------------------------------------------------------
// Reporting surface.
// ---------------------------------------------------------------------------

TEST(Resilience, ReportAndJsonNameRungsAndFaults) {
  Policy policy = small_policy();
  FaultSpec spec;
  spec.point = "throw-in-placer";
  spec.rung = 0;
  policy.faults = {spec};
  const CompileOutcome outcome = resilience::compile(
      workloads::ghz(4), devices::ibm_qx4(), policy);
  ASSERT_TRUE(outcome.ok);

  const std::string text = outcome.report();
  EXPECT_NE(text.find("rung 0"), std::string::npos);
  EXPECT_NE(text.find("throw-in-placer"), std::string::npos);
  EXPECT_NE(text.find("degraded"), std::string::npos);

  const Json json = outcome.to_json();
  EXPECT_TRUE(json.at("ok").as_bool());
  EXPECT_EQ(json.at("rung").as_int(), 1);
  EXPECT_TRUE(json.at("degraded").as_bool());
  EXPECT_TRUE(json.at("validated").as_bool());
  EXPECT_EQ(json.at("injected_faults").at(0).as_string(), "throw-in-placer");
  EXPECT_EQ(json.at("rungs").size(), 3u);
  EXPECT_EQ(json.at("admission").at("verdict").as_string(), "admit");
}

// ---------------------------------------------------------------------------
// Rungs as pipeline data.
// ---------------------------------------------------------------------------

TEST(Resilience, Rung1PipelineOverrideIsHonoredAndLabelsTheRung) {
  Policy policy = small_policy();
  // Force rung 0 to fail permanently so the ladder lands on rung 1.
  FaultSpec fault;
  fault.point = "throw-in-placer";
  fault.rung = 0;
  policy.faults = {fault};
  // Rung 1 as declarative JSON instead of the greedy+sabre default:
  // identity+naive without a schedule pass.
  policy.rung1_pipeline = PipelineSpec::from_json_text(R"([
    "decompose",
    {"pass": "placer", "options": {"algorithm": "identity"}},
    {"pass": "router", "options": {"algorithm": "naive"}},
    "postroute"
  ])");

  const CompileOutcome outcome =
      resilience::compile(workloads::ghz(4), devices::ibm_qx4(), policy);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.rung, 1);
  EXPECT_EQ(outcome.winner_label, "identity+naive");
  ASSERT_GE(outcome.rungs.size(), 2u);
  EXPECT_EQ(outcome.rungs[1].label, "identity+naive");
  // The override really ran: no schedule pass, so no scheduled cycles.
  EXPECT_EQ(outcome.result.scheduled_cycles, 0);
  EXPECT_TRUE(respects_coupling(outcome.result.final_circuit,
                                devices::ibm_qx4()));
}

TEST(Resilience, BridgeWithTokenSwapFinisherServesAsRung1) {
  // The BRIDGE router + token_swap_finisher pair enrolls in the fallback
  // ladder like any registered strategy: kill rung 0 and the ladder must
  // recover through the bridge pipeline with a checker-clean result whose
  // final placement equals the initial one (the finisher's contract).
  Policy policy = small_policy();
  FaultSpec fault;
  fault.point = "throw-in-placer";
  fault.rung = 0;
  policy.faults = {fault};
  policy.rung1_pipeline = PipelineSpec::from_json_text(R"([
    "decompose",
    {"pass": "placer", "options": {"algorithm": "greedy"}},
    {"pass": "router", "options": {"algorithm": "bridge"}},
    "token_swap_finisher",
    "postroute",
    "schedule"
  ])");

  const Device device = devices::ibm_qx5();
  const CompileOutcome outcome =
      resilience::compile(workloads::qft(5), device, policy);
  ASSERT_TRUE(outcome.ok) << outcome.report();
  EXPECT_EQ(outcome.rung, 1);
  EXPECT_EQ(outcome.winner_label, "greedy+bridge");
  EXPECT_TRUE(outcome.validated);
  const verify::ValidityChecker checker(device);
  EXPECT_TRUE(checker.check_result(outcome.result).ok()) << outcome.report();
  const RoutingResult& routing = outcome.result.routing;
  for (int w = 0; w < routing.initial.num_program_qubits(); ++w) {
    EXPECT_EQ(routing.final.phys_of_wire(w), routing.initial.phys_of_wire(w))
        << "wire " << w;
  }
}

TEST(Resilience, DefaultRungsMatchTheirPipelineSpecForm) {
  // Without an override rung 1 is the standard preset; spelling it out as
  // a PipelineSpec produces an identical result.
  Policy policy = small_policy();
  FaultSpec fault;
  fault.point = "throw-in-placer";
  fault.rung = 0;
  policy.faults = {fault};

  Policy spelled_out = policy;
  spelled_out.rung1_pipeline = PipelineSpec::standard();

  const Device device = devices::ibm_qx4();
  const Circuit circuit = workloads::ghz(4);
  const CompileOutcome implicit =
      resilience::compile(circuit, device, policy);
  const CompileOutcome explicit_spec =
      resilience::compile(circuit, device, spelled_out);
  ASSERT_TRUE(implicit.ok);
  ASSERT_TRUE(explicit_spec.ok);
  EXPECT_EQ(implicit.fingerprint(), explicit_spec.fingerprint());
}

// ---------------------------------------------------------------------------
// Circuit breaker (fake clock; no sleeping).
// ---------------------------------------------------------------------------

using resilience::BreakerConfig;
using resilience::BreakerPermit;
using resilience::BreakerState;
using resilience::CircuitBreaker;

namespace {

BreakerConfig fast_breaker(std::int64_t* clock_us, int threshold = 3) {
  BreakerConfig config;
  config.failure_threshold = threshold;
  config.open_ms = 100.0;
  config.now_us = [clock_us] { return *clock_us; };
  return config;
}

/// Acquires a permit, which must be granted, and settles it as a failure.
void fail_once(CircuitBreaker& breaker) {
  const BreakerPermit permit = breaker.try_acquire();
  ASSERT_TRUE(permit);
  breaker.on_failure(permit);
}

}  // namespace

TEST(CircuitBreaker, ConsecutivePermanentFailuresOpenIt) {
  std::int64_t clock_us = 0;
  CircuitBreaker breaker(fast_breaker(&clock_us));
  for (int i = 0; i < 2; ++i) {
    fail_once(breaker);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
  }
  fail_once(breaker);
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_FALSE(breaker.try_acquire());
  EXPECT_GT(breaker.retry_after_ms(), 0.0);
  EXPECT_LE(breaker.retry_after_ms(), 100.0);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  std::int64_t clock_us = 0;
  CircuitBreaker breaker(fast_breaker(&clock_us));
  for (int round = 0; round < 5; ++round) {
    fail_once(breaker);
    fail_once(breaker);
    const BreakerPermit permit = breaker.try_acquire();
    ASSERT_TRUE(permit);
    breaker.on_success(permit);  // the streak never reaches 3
  }
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreaker, TransientAndResourceOutcomesNeverCount) {
  std::int64_t clock_us = 0;
  CircuitBreaker breaker(fast_breaker(&clock_us));
  for (int i = 0; i < 20; ++i) {
    const BreakerPermit permit = breaker.try_acquire();
    ASSERT_TRUE(permit);
    breaker.record(permit, false,
                   i % 2 == 0 ? ErrorClass::Transient
                              : ErrorClass::ResourceExhausted);
  }
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccess) {
  std::int64_t clock_us = 0;
  CircuitBreaker breaker(fast_breaker(&clock_us));
  for (int i = 0; i < 3; ++i) fail_once(breaker);
  ASSERT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_FALSE(breaker.try_acquire());

  clock_us += 100 * 1000;  // open window lapses
  const BreakerPermit probe = breaker.try_acquire();
  ASSERT_TRUE(probe);
  EXPECT_TRUE(probe.probe());
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  // Only one concurrent probe is admitted.
  EXPECT_FALSE(breaker.try_acquire());
  breaker.on_success(probe);
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  const BreakerPermit next = breaker.try_acquire();
  EXPECT_TRUE(next);
  EXPECT_FALSE(next.probe());
  breaker.release(next);
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopensWithFreshWindow) {
  std::int64_t clock_us = 0;
  CircuitBreaker breaker(fast_breaker(&clock_us));
  for (int i = 0; i < 3; ++i) fail_once(breaker);
  clock_us += 100 * 1000;
  fail_once(breaker);  // the probe
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  // Fresh window: still denied until another open_ms passes.
  clock_us += 50 * 1000;
  EXPECT_FALSE(breaker.try_acquire());
  clock_us += 50 * 1000;
  const BreakerPermit probe = breaker.try_acquire();
  EXPECT_TRUE(probe);
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  breaker.release(probe);  // neutral verdict frees the probe slot
  const BreakerPermit second = breaker.try_acquire();
  EXPECT_TRUE(second);
  breaker.on_success(second);
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

TEST(CircuitBreaker, StaleVerdictDoesNotFreeTheProbeSlot) {
  // A request admitted while Closed that finishes after the trip must not
  // free the probe slot: only the probe's own verdict does.
  std::int64_t clock_us = 0;
  CircuitBreaker breaker(fast_breaker(&clock_us, /*threshold=*/2));
  const BreakerPermit a = breaker.try_acquire();
  ASSERT_TRUE(a);
  EXPECT_FALSE(a.probe());
  fail_once(breaker);
  fail_once(breaker);
  ASSERT_EQ(breaker.state(), BreakerState::Open);
  clock_us += 100 * 1000;  // open window lapses

  const BreakerPermit probe = breaker.try_acquire();
  ASSERT_TRUE(probe);
  ASSERT_TRUE(probe.probe());
  breaker.release(a);  // A finishes neutrally (cache hit, cancellation)
  EXPECT_FALSE(breaker.try_acquire()) << "a second probe got through";
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);

  // A stale success or failure does not decide the probe's outcome either.
  breaker.on_success(a);
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  breaker.on_failure(a);
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  EXPECT_FALSE(breaker.try_acquire());

  breaker.on_success(probe);
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

TEST(CircuitBreaker, TransitionCallbackSeesEveryState) {
  std::int64_t clock_us = 0;
  CircuitBreaker breaker(fast_breaker(&clock_us));
  std::vector<BreakerState> seen;
  breaker.on_transition = [&seen](BreakerState state) {
    seen.push_back(state);
  };
  for (int i = 0; i < 3; ++i) fail_once(breaker);
  clock_us += 100 * 1000;
  const BreakerPermit probe = breaker.try_acquire();
  ASSERT_TRUE(probe);
  breaker.on_success(probe);
  const std::vector<BreakerState> expected = {
      BreakerState::Open, BreakerState::HalfOpen, BreakerState::Closed};
  EXPECT_EQ(seen, expected);
  EXPECT_STREQ(resilience::breaker_state_name(BreakerState::HalfOpen),
               "half-open");
}

TEST(CircuitBreaker, ZeroThresholdDisablesEntirely) {
  BreakerConfig config;
  config.failure_threshold = 0;
  CircuitBreaker breaker(config);
  for (int i = 0; i < 50; ++i) fail_once(breaker);
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_EQ(breaker.retry_after_ms(), 0.0);
}

// ---------------------------------------------------------------------------
// Ladder pins: device x circuit x fault plan x entry rung -> digest.
//
// Every row is content_digest(CompileOutcome::fingerprint()) — rung,
// retries, fired faults, per-attempt classes and the final circuit — or,
// for the portfolio rows, of PortfolioResult::fingerprint(). The digests in
// tests/golden/ladder_fingerprints.txt were captured before the rungs moved
// from per-attempt Compiler objects onto PassManager runs; do not
// regenerate them unless the ladder's behaviour changes on purpose:
//   QMAP_REGEN_GOLDEN=1 ./build/tests/test_resilience --gtest_filter='LadderPins.*'
// No deadlines anywhere: they would make the outcome depend on timing.
// ---------------------------------------------------------------------------

Device noisy_qx5() {
  Device device = devices::ibm_qx5();
  Rng rng(22);
  device.set_noise(NoiseModel::randomized(device.coupling(), rng, 1e-3, 1e-2,
                                          2e-2));
  return device;
}

struct LadderDevice {
  const char* name;
  Device device;
};

std::vector<LadderDevice> ladder_devices() {
  return {{"qx4", devices::ibm_qx4()},
          {"qx5", devices::ibm_qx5()},
          {"surface7", devices::surface7()},
          {"noisy_qx5", noisy_qx5()}};
}

std::vector<Circuit> ladder_circuits() {
  Rng rng(0x1ADDE5);
  Circuit random = workloads::random_circuit(4, 30, rng, 0.5);
  return {workloads::ghz(4), workloads::fig1_example(), std::move(random)};
}

const char* const kLadderCircuitNames[] = {"ghz4", "fig1", "random4"};

struct LadderPlan {
  const char* name;
  std::vector<FaultSpec> faults;
};

std::vector<LadderPlan> ladder_plans() {
  const auto fault = [](const char* point, int rung) {
    FaultSpec spec;
    spec.point = point;
    spec.rung = rung;
    return spec;
  };
  FaultSpec drop0 = fault("corrupt-result", 0);
  drop0.corruption = verify::FaultInjection::DropLastSwap;
  FaultSpec drop1 = drop0;
  drop1.rung = 1;
  return {{"none", {}},
          {"throw-in-placer@0", {fault("throw-in-placer", 0)}},
          {"throw-in-router@0", {fault("throw-in-router", 0)}},
          {"oom-simulate@0", {fault("oom-simulate", 0)}},
          {"drop-last-swap@0", {drop0}},
          {"drop-last-swap@1", {drop1}},
          {"throw-in-placer@-1", {fault("throw-in-placer", -1)}}};
}

/// The policy for one (device, plan, entry) cell. QX4 races the default
/// portfolio, whose exact and exhaustive entrants finish in milliseconds
/// on 4 qubits; the wider devices race the heuristic entrants only.
Policy ladder_policy(const Device& device, const LadderPlan& plan,
                     const std::string& entry) {
  Policy policy;
  if (device.num_qubits() > 5) {
    for (const StrategySpec& spec :
         PortfolioCompiler::default_portfolio(device)) {
      if (spec.max_qubits == 0) policy.portfolio.push_back(spec);
    }
  }
  policy.num_threads = 2;
  policy.backoff.base_ms = 0.1;
  policy.backoff.cap_ms = 1.0;
  policy.faults = plan.faults;
  if (entry == "pinned") {
    policy.rung1_pipeline = PipelineSpec::standard("annealing", "qmap");
    policy.first_rung = 1;
  } else if (entry == "rung2") {
    policy.first_rung = 2;
  }
  return policy;
}

std::map<std::string, std::string> ladder_pins() {
  const std::vector<Circuit> circuits = ladder_circuits();
  std::map<std::string, std::string> pins;
  ThreadPool pool(2);
  for (const LadderDevice& dev : ladder_devices()) {
    for (const LadderPlan& plan : ladder_plans()) {
      for (const std::string entry : {"default", "pinned", "rung2"}) {
        const ResilientCompiler compiler(
            dev.device, ladder_policy(dev.device, plan, entry));
        const std::string cell =
            std::string(dev.name) + "/" + plan.name + "/" + entry;
        for (std::size_t k = 0; k < circuits.size(); ++k) {
          pins["ladder/" + cell + "/" + kLadderCircuitNames[k]] =
              content_digest(compiler.compile(circuits[k], pool).fingerprint());
        }
        const std::vector<CompileOutcome> batch =
            compiler.compile_batch(circuits);
        for (std::size_t k = 0; k < batch.size(); ++k) {
          pins["batch/" + cell + "#" + std::to_string(k)] =
              content_digest(batch[k].fingerprint());
        }
      }
    }
  }
  PortfolioOptions options;
  options.num_threads = 2;
  const PortfolioCompiler racer(devices::ibm_qx4(), options);
  for (std::size_t k = 0; k < circuits.size(); ++k) {
    pins[std::string("portfolio/qx4/") + kLadderCircuitNames[k]] =
        content_digest(racer.compile(circuits[k], pool).fingerprint());
  }
  return pins;
}

TEST(LadderPins, MatchGoldenFingerprints) {
  const std::map<std::string, std::string> actual = ladder_pins();
  const std::string path =
      std::string(QMAP_GOLDEN_DIR) + "/ladder_fingerprints.txt";
  const char* regen = std::getenv("QMAP_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0') {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const auto& [id, digest] : actual) out << id << ' ' << digest << '\n';
    GTEST_SKIP() << "regenerated " << path;
  }
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string id;
  std::string digest;
  while (in >> id >> digest) golden[id] = digest;
  ASSERT_EQ(golden.size(), actual.size()) << "golden rows at " << path;
  for (const auto& [case_id, value] : actual) {
    EXPECT_EQ(value, golden[case_id])
        << case_id << ": ladder outcome drifted from the golden pin";
  }
}

}  // namespace
}  // namespace qmap
