// End-to-end compiler-pipeline tests and the Sec. VI-B ExecutionSnapshot.
#include <gtest/gtest.h>

#include "arch/builtin.hpp"
#include "arch/config.hpp"
#include "core/compiler.hpp"
#include "core/report.hpp"
#include "core/snapshot.hpp"
#include "route/router.hpp"
#include "schedule/constraints.hpp"
#include "verify/validity.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

struct PipelineCase {
  std::string device;
  std::string router;
  std::string placer;
  std::string workload;
};

std::string pipeline_name(const testing::TestParamInfo<PipelineCase>& info) {
  return info.param.device + "_" + info.param.router + "_" +
         info.param.placer + "_" + info.param.workload;
}

Device pipeline_device(const std::string& name) {
  if (name == "qx4") return devices::ibm_qx4();
  if (name == "qx5") return devices::ibm_qx5();
  if (name == "s17") return devices::surface17();
  if (name == "s7") return devices::surface7();
  throw std::runtime_error("unknown device");
}

Circuit pipeline_workload(const std::string& name) {
  Rng rng(77);
  if (name == "fig1") return workloads::fig1_example();
  if (name == "ghz4") return workloads::ghz(4);
  if (name == "qft4") return workloads::qft(4);
  if (name == "grover2") return workloads::grover(2, 3);
  if (name == "random") return workloads::random_circuit(4, 25, rng, 0.4);
  if (name == "adder1") return workloads::cuccaro_adder(1);
  throw std::runtime_error("unknown workload");
}

class CompilerPipeline : public testing::TestWithParam<PipelineCase> {};

TEST_P(CompilerPipeline, CompilesVerifiablyToNativeLegalCircuits) {
  const PipelineCase& param = GetParam();
  const Device device = pipeline_device(param.device);
  CompilerOptions options;
  options.router = param.router;
  options.placer = param.placer;
  const Compiler compiler(device, options);
  const CompilationResult result =
      compiler.compile(pipeline_workload(param.workload));

  // Final circuit: native gate set, legal coupling.
  for (const Gate& gate : result.final_circuit) {
    EXPECT_TRUE(device.accepts(gate)) << gate.to_string();
  }
  EXPECT_TRUE(respects_coupling(result.final_circuit, device));

  // Schedule is a consistent reordering of the final circuit.
  EXPECT_TRUE(result.schedule.is_consistent_with(result.final_circuit));
  EXPECT_GE(result.scheduled_cycles, result.baseline_cycles);

  // End-to-end unitary equivalence.
  EXPECT_TRUE(Compiler::verify(result));
}

std::vector<PipelineCase> pipeline_cases() {
  std::vector<PipelineCase> cases;
  for (const char* device : {"qx4", "s17", "s7"}) {
    for (const char* router : {"naive", "sabre", "astar", "qmap"}) {
      cases.push_back({device, router, "greedy", "fig1"});
    }
  }
  cases.push_back({"qx4", "exact", "exhaustive", "fig1"});
  cases.push_back({"qx4", "exact", "identity", "random"});
  cases.push_back({"qx4", "sabre", "annealing", "qft4"});
  cases.push_back({"s17", "qmap", "exhaustive", "qft4"});
  cases.push_back({"s17", "sabre", "greedy", "random"});
  cases.push_back({"s17", "astar", "greedy", "grover2"});
  cases.push_back({"qx5", "sabre", "greedy", "qft4"});
  cases.push_back({"qx5", "astar", "annealing", "random"});
  cases.push_back({"s7", "qmap", "greedy", "adder1"});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, CompilerPipeline,
                         testing::ValuesIn(pipeline_cases()), pipeline_name);

TEST(Compiler, ReportContainsKeyNumbers) {
  const Compiler compiler(devices::surface17());
  const CompilationResult result =
      compiler.compile(workloads::fig1_example());
  const std::string report = result.report();
  EXPECT_NE(report.find("latency"), std::string::npos);
  EXPECT_NE(report.find("ratio"), std::string::npos);
  EXPECT_GT(result.latency_ratio(), 1.0);
}

TEST(Compiler, JsonReportCarriesTheKeyNumbers) {
  const Compiler compiler(devices::surface17());
  const CompilationResult result =
      compiler.compile(workloads::fig1_example());
  const Json report = result.to_json();
  EXPECT_EQ(report.at("circuit").as_string(), "fig1");
  EXPECT_EQ(report.at("original").at("two_qubit_gates").as_int(), 5);
  EXPECT_EQ(report.at("routing").at("added_swaps").as_int(),
            static_cast<int>(result.routing.added_swaps));
  EXPECT_EQ(report.at("scheduled_cycles").as_int(), result.scheduled_cycles);
  EXPECT_GT(report.at("latency_ratio").as_number(), 1.0);
  // Placements serialize as the paper-style physical->program arrays.
  EXPECT_EQ(report.at("routing").at("initial_placement").size(), 17u);
  // Round-trips through the JSON text form.
  EXPECT_TRUE(Json::parse(report.dump()) == report);
}

TEST(Compiler, VerifiesWideCliffordCircuitsViaTableau) {
  // 16 program qubits on QX5: beyond comfortable state-vector range, but
  // GHZ is Clifford, so verify() switches to the exact tableau check.
  const Compiler compiler(devices::ibm_qx5());
  const CompilationResult result = compiler.compile(workloads::ghz(16));
  EXPECT_TRUE(Compiler::verify(result));
}

TEST(Compiler, SchedulingCanBeDisabled) {
  CompilerOptions options;
  options.run_scheduler = false;
  const Compiler compiler(devices::ibm_qx4(), options);
  const CompilationResult result = compiler.compile(workloads::ghz(3));
  EXPECT_EQ(result.scheduled_cycles, 0);
  EXPECT_EQ(result.schedule.size(), 0u);
}

TEST(Compiler, ControlConstraintsIncreaseLatency) {
  const Circuit circuit = workloads::qft(4);
  CompilerOptions with;
  with.use_control_constraints = true;
  CompilerOptions without;
  without.use_control_constraints = false;
  const CompilationResult constrained =
      Compiler(devices::surface17(), with).compile(circuit);
  const CompilationResult unconstrained =
      Compiler(devices::surface17(), without).compile(circuit);
  EXPECT_GE(constrained.scheduled_cycles, unconstrained.scheduled_cycles);
}

TEST(Compiler, WorksWithJsonLoadedDevice) {
  // Fig. 2 / Sec. V: the device description comes from a config file.
  const Device device =
      device_from_json(device_to_json(devices::surface17()));
  const Compiler compiler(device);
  const CompilationResult result = compiler.compile(workloads::ghz(4));
  EXPECT_TRUE(Compiler::verify(result));
}

TEST(Snapshot, ExposesAllSectionSixComponents) {
  const Device s17 = devices::surface17();
  const Compiler compiler(s17);
  const CompilationResult compiled =
      compiler.compile(workloads::fig1_example());
  ExecutionSnapshot snapshot(compiled.routing.circuit, s17,
                             compiled.routing.initial);

  // Initially: nothing scheduled, some gates ready, none pending-complete.
  EXPECT_FALSE(snapshot.complete());
  EXPECT_EQ(snapshot.partial_schedule().size(), 0u);
  EXPECT_GT(snapshot.dependency_graph().ready_size(), 0u);
  EXPECT_EQ(snapshot.current_placement(), snapshot.initial_placement());

  // Step once: exactly one gate scheduled.
  EXPECT_TRUE(snapshot.step());
  EXPECT_EQ(snapshot.partial_schedule().size(), 1u);
  EXPECT_EQ(snapshot.dependency_graph().num_scheduled(), 1u);

  const int cycles = snapshot.run_to_completion();
  EXPECT_TRUE(snapshot.complete());
  EXPECT_GT(cycles, 0);
  EXPECT_FALSE(snapshot.step());

  // After completion the current placement reflects the routing SWAPs.
  EXPECT_EQ(snapshot.current_placement(), compiled.routing.final);

  // The resulting schedule is consistent with the routed circuit.
  EXPECT_TRUE(
      snapshot.partial_schedule().is_consistent_with(compiled.routing.circuit));
}

TEST(Snapshot, HonoursTrappedIonParallelismLimit) {
  // trapped_ion(n) serializes two-qubit gates on its shared bus; the
  // snapshot must schedule with the device's own constraint stack, not
  // just the Surface control constraints.
  const Device ion = devices::trapped_ion(5);
  Circuit c(5);
  c.cx(0, 1).cx(2, 3).h(4);
  ExecutionSnapshot snapshot(c, ion, Placement::identity(5, 5));
  snapshot.run_to_completion();
  const Schedule& schedule = snapshot.partial_schedule();
  EXPECT_FALSE(schedule.operations()[0].overlaps(schedule.operations()[1]));
  const verify::ValidityReport report =
      verify::ValidityChecker(ion).check_schedule(schedule, c);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Snapshot, ControlSettingsTrackSharedAwgs) {
  const Device s17 = devices::surface17();
  Circuit c(17);
  c.x(1).y(3);  // same frequency group -> serialized, two table entries
  ExecutionSnapshot snapshot(c, s17, Placement::identity(17, 17));
  snapshot.run_to_completion();
  const auto settings = snapshot.control_settings();
  EXPECT_EQ(settings.size(), 2u);
  // Both on group 0 (f1), different cycles.
  for (const auto& [key, pulse] : settings) {
    EXPECT_EQ(key.second, 0);
    EXPECT_TRUE(pulse == "x" || pulse == "y");
  }
}

TEST(Snapshot, RejectsProgramSizedCircuits) {
  const Device s17 = devices::surface17();
  Circuit c(4);
  EXPECT_THROW(ExecutionSnapshot(c, s17, Placement::identity(4, 17)),
               MappingError);
}

TEST(Snapshot, ToStringSummarizesState) {
  const Device s7 = devices::surface7();
  Circuit c(7);
  c.x(0).cz(0, 2);
  ExecutionSnapshot snapshot(c, s7, Placement::identity(7, 7));
  snapshot.step();
  const std::string text = snapshot.to_string();
  EXPECT_NE(text.find("1/2 gates scheduled"), std::string::npos);
  EXPECT_NE(text.find("initial placement"), std::string::npos);
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable table({"workload", "swaps", "ratio"});
  table.add_row({"fig1", "1", TextTable::num(1.53)});
  table.add_row({"qft4", "12", TextTable::num(2.0)});
  const std::string text = table.str();
  EXPECT_NE(text.find("| workload |"), std::string::npos);
  EXPECT_NE(text.find("1.53"), std::string::npos);
  EXPECT_THROW(table.add_row({"too", "few"}), Error);
}

}  // namespace
}  // namespace qmap
