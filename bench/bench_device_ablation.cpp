// E10 / Sec. VI-A — "Every device is (almost) equal before the compiler":
// device-type ablation.
//
// The section classifies devices by (1) two-qubit gate symmetry, (2)
// single-qubit gate homogeneity, (3) measurement uniformity, and argues
// that asymmetric gates couple routing with decomposition (extra H gates
// decided at routing time). This bench isolates those effects:
//   * same topology, directed CX vs symmetric CX vs symmetric CZ,
//   * topology family sweep (line / grid / surface / all-to-all) at a fixed
//     workload, quantifying how connectivity buys routing cost down.
// Expected shape: direction fixes vanish on symmetric devices; SWAP counts
// drop monotonically with connectivity (all-to-all needs none — the
// trapped-ion case of Sec. VI-C).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace qmap;
using namespace qmap::bench;

Device qx4_variant(const std::string& flavour) {
  // Same 5-qubit topology as IBM QX4, different gate-type rules.
  const Device base = devices::ibm_qx4();
  if (flavour == "directed-cx") return base;
  CouplingGraph coupling(base.num_qubits());
  for (const auto& edge : base.coupling().edges()) {
    coupling.add_edge(edge.a, edge.b, /*directed=*/false);
  }
  Device device("qx4_" + flavour, std::move(coupling));
  if (flavour == "symmetric-cx") {
    device.set_native_two_qubit(GateKind::CX);
    device.set_native_single_qubit({GateKind::U, GateKind::I});
  } else {  // symmetric-cz
    device.set_native_two_qubit(GateKind::CZ);
    device.set_native_single_qubit(
        {GateKind::Rx, GateKind::Ry, GateKind::X, GateKind::Y, GateKind::I});
  }
  return device;
}

void print_figure() {
  paper_note(
      "Sec. VI-A: 'When the two-qubit gates are asymmetric, decisions "
      "concerning the addition of extra gates must be made at the time of "
      "routing and scheduling.'");

  section("Gate-type ablation: QX4 topology, three device types");
  TextTable type_table({"workload", "device type", "swaps", "dir-fixes",
                        "native gates", "depth"});
  Rng rng(2);
  const std::vector<std::pair<std::string, Circuit>> workloads_list = {
      {"fig1", workloads::fig1_example()},
      {"qft4", workloads::qft(4)},
      {"random5", workloads::random_circuit(5, 30, rng, 0.5)},
  };
  for (const auto& [label, circuit] : workloads_list) {
    for (const char* flavour :
         {"directed-cx", "symmetric-cx", "symmetric-cz"}) {
      const Device device = qx4_variant(flavour);
      const Circuit lowered =
          lower_to_device(circuit, device, /*keep_swaps=*/true);
      const Placement initial = GreedyPlacer().place(lowered, device);
      const MappedOutcome outcome =
          map_and_verify(circuit, device, "sabre", initial);
      type_table.add_row({label, flavour,
                          TextTable::num(outcome.routing.added_swaps),
                          TextTable::num(outcome.routing.direction_fixes),
                          TextTable::num(outcome.metrics.total_gates),
                          TextTable::num(outcome.metrics.depth)});
    }
  }
  std::cout << type_table.str();

  section("Topology ablation: 8-qubit QFT across connectivity families");
  paper_note(
      "Sec. VI-C: 'trapped ions provide all-to-all connectivity ... at the "
      "price of reduced two-qubit gate parallelism.'");
  TextTable topo_table({"device", "diameter", "swaps", "native gates",
                        "depth"});
  const Circuit qft8 = workloads::qft(8);
  for (const Device& device :
       {devices::linear(8), devices::grid(2, 4), devices::grid(3, 3),
        devices::surface17(), devices::all_to_all(8)}) {
    const Circuit lowered = lower_to_device(qft8, device, /*keep_swaps=*/true);
    const Placement initial = GreedyPlacer().place(lowered, device);
    const MappedOutcome outcome =
        map_and_verify(qft8, device, "sabre", initial);
    topo_table.add_row({device.name(),
                        TextTable::num(device.artifacts()->diameter()),
                        TextTable::num(outcome.routing.added_swaps),
                        TextTable::num(outcome.metrics.total_gates),
                        TextTable::num(outcome.metrics.depth)});
  }
  std::cout << topo_table.str();
}

void BM_RouteByDeviceType(benchmark::State& state) {
  static const char* flavours[] = {"directed-cx", "symmetric-cx",
                                   "symmetric-cz"};
  const char* flavour = flavours[state.range(0)];
  const Device device = qx4_variant(flavour);
  const Circuit lowered =
      lower_to_device(workloads::qft(4), device, /*keep_swaps=*/true);
  const Placement initial = GreedyPlacer().place(lowered, device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        make_router("sabre")->route(lowered, device, initial));
  }
  state.SetLabel(flavour);
}
BENCHMARK(BM_RouteByDeviceType)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
