// Pass-pipeline setup economics: what sharing one immutable ArchArtifacts
// bundle buys the portfolio engine.
//
// A Device builds its distance tables (ArchArtifacts) once, in its
// constructor, and every copy of it shares them; the PortfolioCompiler
// runs every racing strategy against its one Device. Handing a strategy
// its tables is therefore a shared_ptr copy of device.artifacts(), not a
// rebuild, regardless of how many strategies race. The figure prints that
// shared curve next to a rebuild-per-strategy curve; the bench exits
// non-zero if the shared-setup curve grows with the strategy count (the
// regression this file exists to catch).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench_util.hpp"
#include "engine/portfolio.hpp"
#include "pass/manager.hpp"

namespace {

using namespace qmap;
using namespace qmap::bench;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// A 16-entry portfolio: every heuristic placer x router pairing worth
// racing on a noiseless 17-qubit device, padded with seed-sensitive
// annealing entries so the race genuinely saturates 16 slots.
std::vector<StrategySpec> sixteen_strategies() {
  std::vector<StrategySpec> specs;
  for (const char* placer : {"greedy", "identity", "bidirectional"}) {
    for (const char* router : {"sabre", "sabre+commute", "astar", "qmap"}) {
      specs.push_back({placer, router});
    }
  }
  for (const char* router : {"sabre", "sabre+commute", "astar", "qmap"}) {
    specs.push_back({"annealing", router});
  }
  return specs;  // 3*4 + 4 = 16
}

// Setup cost only: what it takes to hand `count` strategies their device
// artifacts, rebuilt per strategy vs shared from the Device. Compile
// time is excluded on purpose.
double setup_per_strategy_ms(const Device& device, int count) {
  const auto start = Clock::now();
  for (int i = 0; i < count; ++i) {
    benchmark::DoNotOptimize(ArchArtifacts::build(device.coupling()));
  }
  return ms_since(start);
}

double setup_shared_ms(const Device& device, int count) {
  const auto start = Clock::now();
  for (int i = 0; i < count; ++i) {
    PipelineRuntime runtime;
    runtime.artifacts = device.artifacts();
    benchmark::DoNotOptimize(runtime);
  }
  return ms_since(start);
}

void print_figure() {
  paper_note(
      "Routing reads one immutable ArchArtifacts bundle (all-pairs "
      "distances and BFS shortest paths) that each Device builds once — "
      "racing strategies share it instead of each rebuilding it.");

  const Device device = devices::surface17();

  section("Setup cost vs strategy count on " + device.name() +
          " (artifacts only, no compiles)");
  TextTable table({"strategies", "per-strategy build (ms)",
                   "shared bundle (ms)", "ratio"});
  double shared_1 = 0.0;
  double shared_16 = 0.0;
  for (const int count : {1, 2, 4, 8, 16}) {
    // Median-of-3 to keep one scheduler hiccup from deciding the table.
    double per = setup_per_strategy_ms(device, count);
    double shared = setup_shared_ms(device, count);
    for (int rep = 0; rep < 2; ++rep) {
      per = std::min(per, setup_per_strategy_ms(device, count));
      shared = std::min(shared, setup_shared_ms(device, count));
    }
    if (count == 1) shared_1 = shared;
    if (count == 16) shared_16 = shared;
    table.add_row({TextTable::num(count), TextTable::num(per, 3),
                   TextTable::num(shared, 3),
                   TextTable::num(per / std::max(shared, 1e-6), 1) + "x"});
  }
  std::cout << table.str();
  // The acceptance gate: shared setup must not scale with the strategy
  // count. Allow generous noise (10x over the single-strategy cost covers
  // timer jitter on loaded CI hosts; linear scaling would show ~16x over a
  // much larger base).
  if (shared_16 > std::max(10.0 * shared_1, 0.5)) {
    std::cerr << "FATAL: shared-artifacts setup grew with strategy count ("
              << shared_1 << " ms for 1 vs " << shared_16
              << " ms for 16)\n";
    std::exit(1);
  }

  section("16-strategy race on " + device.name() + " (shared bundle)");
  PortfolioOptions options;
  options.strategies = sixteen_strategies();
  options.base_seed = 0xC0FFEE;
  const PortfolioCompiler racer(device, options);
  Rng rng(99);
  const Circuit circuit = workloads::random_circuit(10, 80, rng, 0.45);
  const PortfolioResult result = racer.compile(circuit);
  if (!Compiler::verify(result.best)) {
    std::cerr << "FATAL: 16-strategy race produced an unverifiable result\n";
    std::exit(1);
  }
  std::printf(
      "winner %s, %zu/%zu completed, wall %.1f ms on %d thread(s)\n",
      result.winner_label.c_str(), result.completed_count(),
      result.telemetry.size(), result.wall_ms, result.num_threads);
}

void BM_ArtifactsBuild(benchmark::State& state) {
  const Device device = devices::surface17();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ArchArtifacts::build(device.coupling()));
  }
  state.SetLabel("surface17 all-pairs BFS");
}
BENCHMARK(BM_ArtifactsBuild);

void BM_SetupPerStrategyArtifacts(benchmark::State& state) {
  const Device device = devices::surface17();
  const int count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < count; ++i) {
      benchmark::DoNotOptimize(ArchArtifacts::build(device.coupling()));
    }
  }
  state.SetLabel(std::to_string(count) + " strategies, rebuild each");
}
BENCHMARK(BM_SetupPerStrategyArtifacts)->Arg(1)->Arg(4)->Arg(16);

void BM_SetupSharedArtifacts(benchmark::State& state) {
  const Device device = devices::surface17();
  const int count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < count; ++i) {
      PipelineRuntime runtime;
      runtime.artifacts = device.artifacts();
      benchmark::DoNotOptimize(runtime);
    }
  }
  state.SetLabel(std::to_string(count) + " strategies, one shared bundle");
}
BENCHMARK(BM_SetupSharedArtifacts)->Arg(1)->Arg(4)->Arg(16);

void BM_SixteenStrategyRace(benchmark::State& state) {
  const Device device = devices::surface17();
  PortfolioOptions options;
  options.strategies = sixteen_strategies();
  options.num_threads = static_cast<int>(state.range(0));
  const PortfolioCompiler racer(device, options);
  Rng rng(99);
  const Circuit circuit = workloads::random_circuit(10, 80, rng, 0.45);
  for (auto _ : state) {
    benchmark::DoNotOptimize(racer.compile(circuit));
  }
  state.SetLabel(std::to_string(state.range(0)) + " threads, 16 strategies");
}
BENCHMARK(BM_SixteenStrategyRace)->Arg(1)->Arg(4);

// The placer layer by itself: the annealing entrant of every portfolio
// race (default 20,000 iterations) and the exhaustive entrant at the
// widest shape serve_mixed races, on a random Clifford circuit with 20
// gates per qubit on Surface-17.
Circuit placer_workload(int width) {
  Rng rng(99);
  return workloads::random_clifford_circuit(width, 20 * width, rng);
}

void BM_AnnealingPlace(benchmark::State& state) {
  const Device device = devices::surface17();
  const int width = static_cast<int>(state.range(0));
  const Circuit circuit = placer_workload(width);
  for (auto _ : state) {
    AnnealingPlacer placer;
    benchmark::DoNotOptimize(placer.place(circuit, device));
  }
  state.SetLabel(std::to_string(width) + " qubits, surface17");
}
BENCHMARK(BM_AnnealingPlace)
    ->Arg(5)->Arg(6)->Arg(12)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ExhaustivePlace(benchmark::State& state) {
  const Device device = devices::surface17();
  const int width = static_cast<int>(state.range(0));
  const Circuit circuit = placer_workload(width);
  for (auto _ : state) {
    ExhaustivePlacer placer;
    benchmark::DoNotOptimize(placer.place(circuit, device));
  }
  state.SetLabel(std::to_string(width) + " qubits, surface17");
}
BENCHMARK(BM_ExhaustivePlace)->Arg(5)->Unit(benchmark::kMillisecond);

// The schedule layer by itself: the constrained scheduler on the final
// circuit of a default Surface-17 compile (greedy+sabre, postroute) of
// qft17 (arg 0) and of a 17-qubit, 408-gate random Clifford circuit
// (arg 1), under the device's full control-constraint stack.
void BM_ScheduleConstrained(benchmark::State& state) {
  const Device device = devices::surface17();
  Rng rng(17);
  const Circuit input = state.range(0) == 0
                            ? workloads::qft(17)
                            : workloads::random_clifford_circuit(17, 408, rng);
  CompilerOptions options;
  options.run_scheduler = false;
  const Circuit routed = Compiler(device, options).compile(input).final_circuit;
  const auto constraints = constraints_for_device(device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_constrained(routed, device, constraints));
  }
  state.SetLabel(std::string(state.range(0) == 0 ? "qft17" : "clifford17x408") +
                 ", surface17, " + std::to_string(routed.size()) + " gates");
}
BENCHMARK(BM_ScheduleConstrained)->Arg(0)->Arg(1);

// The two layers that fuse and lower single-qubit runs, by themselves, on
// the same two Surface-17 inputs: qft17 (arg 0) and the 17-qubit, 408-gate
// random Clifford circuit (arg 1).
Circuit layer_input(std::int64_t arg) {
  Rng rng(17);
  return arg == 0 ? workloads::qft(17)
                  : workloads::random_clifford_circuit(17, 408, rng);
}

std::string layer_label(std::int64_t arg, std::size_t gates) {
  return std::string(arg == 0 ? "qft17" : "clifford17x408") +
         ", surface17, " + std::to_string(gates) + " gates";
}

// Postroute's native tail (SWAP expansion, direction repair, peephole,
// fusion and {Rx, Ry} lowering) on the routed circuit of a default
// compile, copied in per iteration as postroute copies it.
void BM_FinalizeRouted(benchmark::State& state) {
  const Device device = devices::surface17();
  CompilerOptions options;
  options.run_scheduler = false;
  const std::vector<Gate> routed = Compiler(device, options)
                                       .compile(layer_input(state.range(0)))
                                       .routing.circuit.gates();
  for (auto _ : state) {
    std::vector<Gate> gates = routed;
    finalize_routed(gates, device.num_qubits(), device, /*peephole=*/true);
    benchmark::DoNotOptimize(gates);
  }
  state.SetLabel(layer_label(state.range(0), routed.size()));
}
BENCHMARK(BM_FinalizeRouted)->Arg(0)->Arg(1);

// Decompose's lowering (two-qubit target, fusion, {Rx, Ry} basis) of the
// unrouted input, SWAPs kept as the decompose stage keeps them.
void BM_LowerToDevice(benchmark::State& state) {
  const Device device = devices::surface17();
  const Circuit input = layer_input(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lower_to_device(input, device, true));
  }
  state.SetLabel(layer_label(state.range(0), input.size()));
}
BENCHMARK(BM_LowerToDevice)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
