// E4 / Fig. 4 — the Surface-17 device model: lattice, frequency groups,
// measurement feedlines, and the CZ parking rule.
//
// Regenerates the figure as text (coordinates, adjacency, colour groups,
// feedline membership) and checks every concrete fact the paper states
// about it. Timing section covers the device-model queries routers hammer
// (distance lookups, parking sets).
#include <benchmark/benchmark.h>

#include "arch/draw.hpp"
#include "bench_util.hpp"

namespace {

using namespace qmap;
using namespace qmap::bench;

void print_figure() {
  const Device s17 = devices::surface17();
  section("Fig. 4: Surface-17 lattice");
  std::cout << s17.summary() << "\n" << draw_device(s17) << "\n";

  TextTable table({"qubit", "row", "col", "freq group", "feedline",
                   "neighbours"});
  const char* group_names[] = {"f1 (red)", "f2 (blue)", "f3 (pink)"};
  for (int q = 0; q < s17.num_qubits(); ++q) {
    std::string neighbours;
    for (const int n : s17.coupling().neighbors(q)) {
      if (!neighbours.empty()) neighbours += " ";
      neighbours += std::to_string(n);
    }
    const auto [row, col] = s17.coordinates()[static_cast<std::size_t>(q)];
    table.add_row({TextTable::num(q), TextTable::num(row, 0),
                   TextTable::num(col, 0),
                   group_names[s17.frequency_group(q)],
                   TextTable::num(s17.feedline(q)), neighbours});
  }
  std::cout << table.str();

  section("Facts stated in Sec. V");
  const auto check = [](const std::string& what, bool ok) {
    std::cout << "  " << what << ": " << (ok ? "OK" : "MISMATCH") << "\n";
    if (!ok) std::exit(1);
  };
  check("qubits 1 and 5 can interact", s17.coupling().connected(1, 5));
  check("qubits 1 and 7 cannot interact", !s17.coupling().connected(1, 7));
  check("no control/target restriction (symmetric CZ)",
        s17.coupling().orientation_allowed(1, 5) &&
            s17.coupling().orientation_allowed(5, 1));
  bool feedline_ok = true;
  for (const int q : {2, 3, 6, 9, 12}) {
    feedline_ok = feedline_ok && s17.feedline(q) == s17.feedline(0);
  }
  check("qubits {0,2,3,6,9,12} share a feedline", feedline_ok);
  check("three microwave frequencies f1 > f2 > f3",
        [&] {
          std::vector<int> groups = s17.frequency_groups();
          std::sort(groups.begin(), groups.end());
          return groups.front() == 0 && groups.back() == 2;
        }());

  section("CZ parking sets (Sec. V: detuned neighbours per CZ)");
  TextTable parking({"CZ edge", "high-freq qubit", "parked qubits"});
  for (const auto& edge : s17.coupling().edges()) {
    const std::vector<int> parked = s17.parked_qubits(edge.a, edge.b);
    if (parked.empty()) continue;
    const int high = s17.frequency_group(edge.a) < s17.frequency_group(edge.b)
                         ? edge.a
                         : edge.b;
    std::string parked_str;
    for (const int p : parked) {
      if (!parked_str.empty()) parked_str += " ";
      parked_str += std::to_string(p);
    }
    parking.add_row({"Q" + std::to_string(edge.a) + "-Q" +
                         std::to_string(edge.b),
                     TextTable::num(high), parked_str});
  }
  std::cout << parking.str();
}

void BM_DistanceQueries(benchmark::State& state) {
  const Device s17 = devices::surface17();
  const ArchArtifacts& artifacts = *s17.artifacts();
  int sink = 0;
  for (auto _ : state) {
    for (int a = 0; a < 17; ++a) {
      for (int b = 0; b < 17; ++b) {
        sink += artifacts.distance(a, b);
      }
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_DistanceQueries);

void BM_ParkingSets(benchmark::State& state) {
  const Device s17 = devices::surface17();
  for (auto _ : state) {
    for (const auto& edge : s17.coupling().edges()) {
      benchmark::DoNotOptimize(s17.parked_qubits(edge.a, edge.b));
    }
  }
}
BENCHMARK(BM_ParkingSets);

void BM_ShortestPath(benchmark::State& state) {
  const Device s17 = devices::surface17();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s17.artifacts()->shortest_path(4, 12));
  }
}
BENCHMARK(BM_ShortestPath);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
