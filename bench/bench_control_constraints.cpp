// E11 / Sec. V — classical-control constraint ablation.
//
// "control instruments need to be shared among different qubits. This
// restriction may severely affect the scheduling of quantum operations as
// it will limit the possible parallelism leading to larger circuit
// depths."
//
// For a workload suite on Surface-17, schedules the mapped circuit under
// every subset of the constraint stack (none / +shared-microwave /
// +feedline / +cz-parking / all) and reports the latency attributable to
// each. Expected shape: latency grows monotonically as constraints are
// added; the shared-AWG constraint dominates for gate-heavy circuits and
// the feedline constraint only matters for measurement-heavy ones.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "schedule/constraints.hpp"

namespace {

using namespace qmap;
using namespace qmap::bench;

ConstraintStack stack_named(const std::string& name) {
  ConstraintStack stack;
  if (name == "none") return stack;
  if (name == "microwave" || name == "all") {
    stack.push_back(std::make_unique<SharedMicrowaveConstraint>());
  }
  if (name == "feedline" || name == "all") {
    stack.push_back(std::make_unique<FeedlineConstraint>());
  }
  if (name == "parking" || name == "all") {
    stack.push_back(std::make_unique<ParkingConstraint>());
  }
  return stack;
}

void print_figure() {
  const Device s17 = devices::surface17();
  Rng rng(5);
  std::vector<std::pair<std::string, Circuit>> suite;
  suite.emplace_back("fig1", workloads::fig1_example());
  suite.emplace_back("ghz6", workloads::ghz(6));
  suite.emplace_back("qft5", workloads::qft(5));
  {
    Circuit measured = workloads::ghz(6);
    measured.measure_all();
    suite.emplace_back("ghz6+measure", std::move(measured));
  }
  suite.emplace_back("random8", workloads::random_circuit(8, 60, rng, 0.4));

  section("Latency (cycles) by constraint stack, Surface-17");
  TextTable table({"workload", "none", "+microwave", "+feedline", "+parking",
                   "all", "all/none"});
  for (const auto& [label, circuit] : suite) {
    CompilerOptions options;
    options.router = "qmap";
    options.run_scheduler = false;
    const CompilationResult mapped = Compiler(s17, options).compile(circuit);
    std::vector<std::string> row{label};
    int none_cycles = 0;
    int all_cycles = 0;
    for (const char* which :
         {"none", "microwave", "feedline", "parking", "all"}) {
      const ConstraintStack stack = stack_named(which);
      const Schedule schedule =
          schedule_constrained(mapped.final_circuit, s17, stack);
      if (!schedule.is_consistent_with(mapped.final_circuit)) {
        std::cerr << "FATAL: inconsistent schedule (" << which << ")\n";
        std::exit(1);
      }
      const int cycles = schedule.total_cycles();
      if (std::string(which) == "none") none_cycles = cycles;
      if (std::string(which) == "all") all_cycles = cycles;
      row.push_back(TextTable::num(cycles));
    }
    row.push_back(TextTable::num(
        none_cycles > 0 ? static_cast<double>(all_cycles) / none_cycles : 0.0,
        2));
    table.add_row(std::move(row));
  }
  std::cout << table.str();
  paper_note(
      "feedline effects require measurements; parking effects require "
      "frequency-adjacent parallel CZs — circuits without them show no "
      "overhead in those columns, which is itself the expected shape.");
}

void BM_ConstraintStack(benchmark::State& state) {
  static const char* stacks[] = {"none", "microwave", "feedline", "parking",
                                 "all"};
  const char* which = stacks[state.range(0)];
  const Device s17 = devices::surface17();
  Rng rng(5);
  CompilerOptions options;
  options.router = "qmap";
  options.run_scheduler = false;
  const CompilationResult mapped =
      Compiler(s17, options)
          .compile(workloads::random_circuit(8, 60, rng, 0.4));
  const ConstraintStack stack = stack_named(which);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schedule_constrained(mapped.final_circuit, s17, stack));
  }
  state.SetLabel(which);
}
BENCHMARK(BM_ConstraintStack)->DenseRange(0, 4);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
