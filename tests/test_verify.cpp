// Verification harness unit tests: ValidityChecker accepts known-good
// mappings and rejects hand-built violations of every invariant class,
// the Shrinker converges on planted bugs, reproducers round-trip through
// disk, and the planted-fault path proves the differential oracle catches
// a real routing bug end to end (caught -> shrunk to <= 10 gates ->
// dumped -> reloaded -> same failure).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "arch/builtin.hpp"
#include "core/compiler.hpp"
#include "schedule/schedulers.hpp"
#include "verify/fuzzer.hpp"
#include "verify/reproducer.hpp"
#include "verify/shrink.hpp"
#include "verify/validity.hpp"
#include "workloads/workloads.hpp"

namespace qmap::verify {
namespace {

bool has_kind(const ValidityReport& report, Violation::Kind kind) {
  for (const Violation& v : report.violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

// --- ValidityChecker: accepts known-good mappings --------------------------

TEST(ValidityChecker, AcceptsCompiledCircuits) {
  for (const Device& device :
       {devices::ibm_qx4(), devices::surface17(), devices::surface7()}) {
    const CompilationResult result =
        Compiler(device).compile(workloads::fig1_example());
    const ValidityReport report = ValidityChecker(device).check_result(result);
    EXPECT_TRUE(report.ok()) << device.name() << ":\n" << report.to_string();
  }
}

TEST(ValidityChecker, AcceptsGhzOnQx5) {
  const Device qx5 = devices::ibm_qx5();
  const CompilationResult result = Compiler(qx5).compile(workloads::ghz(8));
  const ValidityReport report = ValidityChecker(qx5).check_result(result);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- ValidityChecker: rejects hand-built violations ------------------------

TEST(ValidityChecker, RejectsWrongCnotDirection) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(5);
  c.cx(0, 1);  // only 1 -> 0 is allowed on QX4
  const ValidityReport report = ValidityChecker(qx4).check_circuit(c);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_kind(report, Violation::Kind::BadOrientation))
      << report.to_string();
}

TEST(ValidityChecker, RejectsUncoupledOperands) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(5);
  c.cx(1, 0);  // legal warm-up gate
  c.cx(0, 3);  // 0 and 3 share no edge
  const ValidityReport report = ValidityChecker(qx4).check_circuit(c);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_kind(report, Violation::Kind::UncoupledOperands));
  EXPECT_EQ(report.violations[0].index, 1u);
}

TEST(ValidityChecker, RejectsNonNativeGates) {
  const Device s17 = devices::surface17();
  Circuit c(17);
  c.cx(1, 5);  // Surface-17 is a CZ device; CX is not native
  const ValidityReport report = ValidityChecker(s17).check_circuit(c);
  EXPECT_TRUE(has_kind(report, Violation::Kind::NonNativeGate))
      << report.to_string();

  // The same circuit passes a pre-lowering audit.
  CheckOptions relaxed;
  relaxed.require_native = false;
  const ValidityReport ok = ValidityChecker(s17, relaxed).check_circuit(c);
  EXPECT_TRUE(ok.ok()) << ok.to_string();
}

TEST(ValidityChecker, RejectsOversizedCircuits) {
  const Device qx4 = devices::ibm_qx4();
  const Circuit c(6);
  const ValidityReport report = ValidityChecker(qx4).check_circuit(c);
  EXPECT_TRUE(has_kind(report, Violation::Kind::WidthMismatch));
}

TEST(ValidityChecker, RejectsUnmeasurableQubit) {
  Device line = devices::linear(3);
  line.set_measurable({true, false, true});
  Circuit c(3);
  c.measure(1, 0);
  const ValidityReport report = ValidityChecker(line).check_circuit(c);
  EXPECT_TRUE(has_kind(report, Violation::Kind::UnmeasurableQubit));
}

TEST(ValidityChecker, RejectsMoveWithoutShuttling) {
  const Device line = devices::linear(3);
  Circuit c(3);
  c.add(make_gate(GateKind::Move, {0, 1}));
  const ValidityReport report = ValidityChecker(line).check_circuit(c);
  EXPECT_TRUE(has_kind(report, Violation::Kind::ShuttleUnsupported));
}

TEST(ValidityChecker, RejectsMismatchedPlacement) {
  const Device qx4 = devices::ibm_qx4();
  const Placement undersized = Placement::identity(3, 3);
  const ValidityReport report =
      ValidityChecker(qx4).check_placement(undersized);
  EXPECT_TRUE(has_kind(report, Violation::Kind::BadPlacement));
  EXPECT_TRUE(
      ValidityChecker(qx4).check_placement(Placement::identity(4, 5)).ok());
}

// --- ValidityChecker: schedule audits --------------------------------------

TEST(ValidityChecker, RejectsWrongDuration) {
  const Device s7 = devices::surface7();
  Circuit c(7);
  c.cz(0, 2);
  Schedule schedule(7);
  schedule.add(ScheduledGate{c.gate(0), 0, s7.cycles_for(c.gate(0)) + 1});
  const ValidityReport report =
      ValidityChecker(s7).check_schedule(schedule, c);
  EXPECT_TRUE(has_kind(report, Violation::Kind::BadDuration))
      << report.to_string();
}

TEST(ValidityChecker, RejectsDoubleBookedQubit) {
  const Device s7 = devices::surface7();
  Circuit c(7);
  c.rx(0.5, 0).ry(0.5, 0);
  Schedule schedule(7);
  schedule.add(ScheduledGate{c.gate(0), 0, 1});
  schedule.add(ScheduledGate{c.gate(1), 0, 1});  // same qubit, same cycle
  const ValidityReport report =
      ValidityChecker(s7).check_schedule(schedule, c);
  EXPECT_TRUE(has_kind(report, Violation::Kind::QubitOverlap))
      << report.to_string();
}

TEST(ValidityChecker, NamesEveryOpOverlappingALongRunningOne) {
  // measure q0 [0,30), x q0 [1,2), y q0 [5,6): y's lane neighbour x ended
  // before y starts, but the measure still runs. Both x and y overlap it,
  // and both must be named.
  Device s7 = devices::surface7();
  Durations durations = s7.durations();
  durations.measure_cycles = 30;
  s7.set_durations(durations);
  Circuit c(7);
  c.measure(0, 0).x(0).y(0);
  Schedule schedule(7);
  schedule.add(ScheduledGate{c.gate(0), 0, s7.cycles_for(c.gate(0))});
  schedule.add(ScheduledGate{c.gate(1), 1, s7.cycles_for(c.gate(1))});
  schedule.add(ScheduledGate{c.gate(2), 5, s7.cycles_for(c.gate(2))});
  ASSERT_EQ(schedule.operations()[0].end_cycle(), 30);
  ASSERT_LE(schedule.operations()[1].end_cycle(), 5);
  const ValidityReport report =
      ValidityChecker(s7).check_schedule(schedule, c);
  std::vector<std::size_t> overlapping;
  for (const Violation& violation : report.violations) {
    if (violation.kind != Violation::Kind::QubitOverlap) continue;
    overlapping.push_back(violation.index);
    EXPECT_NE(violation.message.find(c.gate(0).to_string()),
              std::string::npos)
        << violation.message;
  }
  EXPECT_EQ(overlapping, (std::vector<std::size_t>{1, 2}))
      << report.to_string();
  EXPECT_FALSE(schedule.is_consistent_with(c));
}

TEST(ValidityChecker, RejectsReorderedQubitSequence) {
  const Device s7 = devices::surface7();
  Circuit c(7);
  c.rx(0.5, 0).ry(0.7, 0);
  Schedule schedule(7);
  schedule.add(ScheduledGate{c.gate(1), 0, 1});  // ry before rx
  schedule.add(ScheduledGate{c.gate(0), 1, 1});
  const ValidityReport report =
      ValidityChecker(s7).check_schedule(schedule, c);
  EXPECT_TRUE(has_kind(report, Violation::Kind::OrderMismatch))
      << report.to_string();
}

TEST(ValidityChecker, RejectsSharedMicrowaveConflict) {
  // Two qubits of one Surface-17 frequency group running *different*
  // single-qubit gates in the same cycle violate the shared-AWG rule.
  const Device s17 = devices::surface17();
  const auto& groups = s17.frequency_groups();
  int a = -1;
  int b = -1;
  for (std::size_t i = 0; i < groups.size() && a < 0; ++i) {
    for (std::size_t j = i + 1; j < groups.size(); ++j) {
      if (groups[i] >= 0 && groups[i] == groups[j]) {
        a = static_cast<int>(i);
        b = static_cast<int>(j);
        break;
      }
    }
  }
  ASSERT_GE(a, 0) << "Surface-17 should declare frequency groups";
  Circuit c(17);
  c.rx(0.5, a).ry(0.5, b);
  Schedule schedule(17);
  schedule.add(ScheduledGate{c.gate(0), 0, 1});
  schedule.add(ScheduledGate{c.gate(1), 0, 1});
  const ValidityReport report =
      ValidityChecker(s17).check_schedule(schedule, c);
  EXPECT_TRUE(has_kind(report, Violation::Kind::ControlConflict))
      << report.to_string();
}

TEST(ValidityChecker, CatchesLateConflictWithLongRunningMeasure) {
  // A Surface-17 schedule with a slow readout: one Measure starts at cycle
  // 0, about 1000 conflict-free X gates fill the following cycles, and a
  // second Measure on the same feedline starts while the first is still
  // running. The re-audit's running window must still hold the first
  // Measure that many ops later.
  Device s17 = devices::surface17();
  Durations durations = s17.durations();
  durations.measure_cycles = 100;
  s17.set_durations(durations);
  int first = -1;
  int second = -1;
  for (int a = 0; a < s17.num_qubits() && second < 0; ++a) {
    for (int b = a + 1; b < s17.num_qubits(); ++b) {
      if (s17.feedline(a) >= 0 && s17.feedline(a) == s17.feedline(b)) {
        first = a;
        second = b;
        break;
      }
    }
  }
  ASSERT_GE(second, 0) << "Surface-17 should share a feedline";
  const auto build = [&](int planted_start, Circuit& source) {
    source = Circuit(17);
    Schedule schedule(17);
    source.measure(first, first);
    schedule.add(ScheduledGate{source.gate(0), 0, 100});
    constexpr int kBodyCycles = 67;  // 15 idle qubits x 67 cycles = 1005 ops
    for (int cycle = 0; cycle < kBodyCycles; ++cycle) {
      for (int q = 0; q < 17; ++q) {
        if (q == first || q == second) continue;
        source.x(q);
        schedule.add(ScheduledGate{source.gate(source.size() - 1), cycle, 1});
      }
    }
    source.measure(second, second);
    schedule.add(
        ScheduledGate{source.gate(source.size() - 1), planted_start, 100});
    return schedule;
  };
  Circuit source;
  const Schedule clean = build(100, source);
  EXPECT_TRUE(ValidityChecker(s17).check_schedule(clean, source).ok());

  const Schedule planted = build(67, source);
  ASSERT_GT(planted.size(), 1000u);
  const ValidityReport report =
      ValidityChecker(s17).check_schedule(planted, source);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, Violation::Kind::ControlConflict);
  EXPECT_EQ(v.index, planted.size() - 1);
  EXPECT_NE(v.message.find("feedline"), std::string::npos) << v.message;
}

TEST(ValidityChecker, AcceptsConstrainedSchedulerOutput) {
  const Device s17 = devices::surface17();
  Rng rng(11);
  const CompilationResult result =
      Compiler(s17).compile(workloads::random_circuit(5, 30, rng, 0.4));
  ASSERT_GT(result.schedule.size(), 0u);
  const ValidityReport report = ValidityChecker(s17).check_schedule(
      result.schedule, result.final_circuit);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- Shrinker ---------------------------------------------------------------

TEST(Shrinker, ConvergesOnPlantedGate) {
  // Plant one CCX in a 40-gate random circuit (random_circuit never emits
  // CCX); the predicate fires while the needle survives. Note the
  // predicate is kind-based, i.e. invariant under qubit relabeling —
  // shrink predicates must be, or compaction is (correctly) rejected.
  Rng rng(123);
  Circuit haystack = workloads::random_circuit(6, 40, rng, 0.3);
  Circuit planted(6, "planted");
  for (std::size_t i = 0; i < haystack.size(); ++i) {
    if (i == 20) planted.ccx(0, 2, 4);
    planted.add(haystack.gate(i));
  }
  const auto contains_needle = [](const Circuit& c) {
    for (const Gate& gate : c) {
      if (gate.kind == GateKind::CCX) return true;
    }
    return false;
  };
  const Shrinker::Result result =
      Shrinker().shrink(planted, contains_needle);
  EXPECT_EQ(result.circuit.size(), 1u) << result.circuit.to_string();
  EXPECT_EQ(result.circuit.num_qubits(), 3);
  EXPECT_EQ(result.original_gates, planted.size());
  EXPECT_GT(result.tests, 0u);
}

TEST(Shrinker, ThrowsWhenInputDoesNotFail) {
  const Circuit c(2, "healthy");
  EXPECT_THROW(
      (void)Shrinker().shrink(c, [](const Circuit&) { return false; }),
      MappingError);
}

TEST(Shrinker, RespectsTestBudget) {
  Rng rng(5);
  const Circuit big = workloads::random_circuit(5, 60, rng, 0.4);
  ShrinkOptions options;
  options.max_tests = 10;
  const Shrinker::Result result =
      Shrinker(options).shrink(big, [](const Circuit&) { return true; });
  EXPECT_LE(result.tests, 10u);
}

TEST(Shrinker, CompactQubitsRelabelsDensely) {
  Circuit c(6, "sparse");
  c.h(1).cx(1, 4);
  const Circuit compact = compact_qubits(c);
  EXPECT_EQ(compact.num_qubits(), 2);
  EXPECT_EQ(compact.gate(1).qubits, (std::vector<int>{0, 1}));
}

// --- Reproducers ------------------------------------------------------------

TEST(Reproducer, RoundTripsThroughDisk) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "qmap_repro_rt").string();
  Reproducer repro;
  Rng rng(77);
  repro.circuit = workloads::random_circuit(4, 12, rng, 0.5);
  repro.device = "ibm_qx4";
  repro.strategy = {"greedy", "sabre"};
  repro.seed = 0xDEADBEEFCAFEF00DULL;  // must survive JSON losslessly
  repro.trials = 2;
  repro.fault = FaultInjection::DropLastSwap;
  repro.kind = "equivalence";
  repro.message = "state-vector mismatch";

  const std::string path = save_reproducer(repro, dir, "case0");
  const Reproducer loaded = load_reproducer(path);
  EXPECT_EQ(loaded.device, repro.device);
  EXPECT_EQ(loaded.strategy.placer, repro.strategy.placer);
  EXPECT_EQ(loaded.strategy.router, repro.strategy.router);
  EXPECT_EQ(loaded.seed, repro.seed);
  EXPECT_EQ(loaded.trials, repro.trials);
  EXPECT_EQ(loaded.fault, repro.fault);
  EXPECT_EQ(loaded.kind, repro.kind);
  EXPECT_EQ(loaded.message, repro.message);
  EXPECT_EQ(loaded.circuit.size(), repro.circuit.size());
  EXPECT_EQ(loaded.circuit.num_qubits(), repro.circuit.num_qubits());
}

TEST(Reproducer, DeviceByNameCoversBuiltins) {
  EXPECT_EQ(device_by_name("ibm_qx4").num_qubits(), 5);
  EXPECT_EQ(device_by_name("ibm_qx5").num_qubits(), 16);
  EXPECT_EQ(device_by_name("surface17").num_qubits(), 17);
  EXPECT_EQ(device_by_name("surface7").num_qubits(), 7);
  EXPECT_EQ(device_by_name("linear6").num_qubits(), 6);
  EXPECT_EQ(device_by_name("grid3x4").num_qubits(), 12);
  EXPECT_EQ(device_by_name("all_to_all5").num_qubits(), 5);
  EXPECT_EQ(device_by_name("ion4").num_qubits(), 4);
  EXPECT_THROW((void)device_by_name("no_such_device"), DeviceError);
}

TEST(Reproducer, CleanRunReplaysClean) {
  Reproducer repro;
  Rng rng(3);
  repro.circuit = workloads::random_circuit(4, 10, rng, 0.4);
  repro.device = "ibm_qx4";
  repro.strategy = {"greedy", "sabre"};
  repro.seed = 42;
  const RunOutcome outcome = replay(repro);
  EXPECT_EQ(outcome.kind, FailureKind::None) << outcome.message;
}

// --- Planted routing bug: the acceptance-criterion path ---------------------

TEST(PlantedBug, DroppedSwapIsCaughtShrunkAndReplayable) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / "qmap_repro_bug").string();
  FuzzOptions options;
  options.num_circuits = 8;
  options.min_qubits = 4;
  options.max_qubits = 5;
  options.min_gates = 16;
  options.max_gates = 28;
  options.two_qubit_fraction = 0.6;
  options.base_seed = 0xB0661E;
  options.num_threads = 2;
  options.trials = 2;
  options.placers = {"greedy"};
  options.routers = {"sabre"};
  options.fault = FaultInjection::DropLastSwap;
  options.reproducer_dir = dir;

  const DifferentialFuzzer fuzzer({devices::ibm_qx4()}, options);
  const FuzzReport report = fuzzer.run();
  ASSERT_FALSE(report.failures.empty())
      << "a dropped routing SWAP must be caught:\n" << report.report();

  for (const FuzzFailure& failure : report.failures) {
    EXPECT_EQ(failure.kind, FailureKind::Equivalence) << failure.to_string();
    EXPECT_LE(failure.shrunk.size(), 10u)
        << "shrinker left too many gates:\n" << failure.shrunk.to_string();
    ASSERT_FALSE(failure.reproducer_path.empty());

    // Round-trip: dumped reproducer replays to the same failure.
    const Reproducer loaded = load_reproducer(failure.reproducer_path);
    const RunOutcome replayed = replay(loaded);
    EXPECT_EQ(failure_kind_name(replayed.kind), loaded.kind)
        << failure.reproducer_path;
    EXPECT_NE(replayed.kind, FailureKind::None);
  }
}

TEST(PlantedBug, FlippedCxIsAValidityFailureOnDirectedDevices) {
  FuzzOptions options;
  options.num_circuits = 6;
  options.min_qubits = 4;
  options.max_qubits = 5;
  options.min_gates = 12;
  options.max_gates = 20;
  options.two_qubit_fraction = 0.6;
  options.base_seed = 0xF11F;
  options.num_threads = 2;
  options.trials = 2;
  options.placers = {"greedy"};
  options.routers = {"sabre"};
  options.fault = FaultInjection::FlipLastCx;
  options.shrink_failures = false;  // keep the self-test fast

  const DifferentialFuzzer fuzzer({devices::ibm_qx4()}, options);
  const FuzzReport report = fuzzer.run();
  ASSERT_FALSE(report.failures.empty()) << report.report();
  for (const FuzzFailure& failure : report.failures) {
    EXPECT_EQ(failure.kind, FailureKind::Validity) << failure.to_string();
  }
}

// --- Fuzzer plumbing --------------------------------------------------------

TEST(DifferentialFuzzer, StrategyGatingRespectsDeviceFeatures) {
  FuzzOptions options;
  const DifferentialFuzzer fuzzer(
      {devices::ibm_qx4(), devices::ibm_qx5()}, options);
  for (const FuzzStrategy& s : fuzzer.strategies_for(devices::ibm_qx4())) {
    EXPECT_NE(s.placer, "reliability");  // no noise model attached
    EXPECT_NE(s.router, "reliability");
    EXPECT_NE(s.router, "shuttle");
  }
  bool qx4_has_exact = false;
  for (const FuzzStrategy& s : fuzzer.strategies_for(devices::ibm_qx4())) {
    qx4_has_exact |= s.router == "exact";
  }
  EXPECT_TRUE(qx4_has_exact);
  for (const FuzzStrategy& s : fuzzer.strategies_for(devices::ibm_qx5())) {
    EXPECT_NE(s.router, "exact") << "exact must be width-gated off QX5";
    EXPECT_NE(s.placer, "exhaustive");
  }
}

TEST(DifferentialFuzzer, RejectsUnknownStrategyNames) {
  FuzzOptions options;
  options.routers = {"no-such-router"};
  EXPECT_THROW(DifferentialFuzzer({devices::ibm_qx4()}, options),
               MappingError);
}

TEST(DifferentialFuzzer, FingerprintIsThreadCountInvariant) {
  FuzzOptions options;
  options.num_circuits = 6;
  options.max_qubits = 4;
  options.max_gates = 18;
  options.base_seed = 0xABCD;
  options.trials = 2;
  options.placers = {"identity", "greedy"};
  options.routers = {"naive", "sabre"};

  options.num_threads = 1;
  const FuzzReport serial =
      DifferentialFuzzer({devices::ibm_qx4(), devices::surface7()}, options)
          .run();
  options.num_threads = 4;
  const FuzzReport parallel =
      DifferentialFuzzer({devices::ibm_qx4(), devices::surface7()}, options)
          .run();
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
  EXPECT_TRUE(serial.ok()) << serial.report();
  EXPECT_GT(serial.runs, 0u);
}

}  // namespace
}  // namespace qmap::verify
