// Device-model tests: coupling graphs, the distance tables every Device
// derives from its graph (checked pair by pair against a reference BFS),
// the built-in devices (with the concrete facts the paper states about QX4
// and Surface-17), and the JSON device-config loader.
#include <algorithm>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "arch/artifacts.hpp"
#include "arch/builtin.hpp"
#include "arch/config.hpp"
#include "arch/draw.hpp"
#include "arch/topology.hpp"
#include "common/error.hpp"
#include "reference_bfs.hpp"

namespace qmap {
namespace {

TEST(CouplingGraph, EdgesAndConnectivity) {
  CouplingGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2, /*directed=*/true);
  EXPECT_TRUE(g.connected(0, 1));
  EXPECT_TRUE(g.connected(1, 0));
  EXPECT_TRUE(g.connected(1, 2));
  EXPECT_FALSE(g.connected(0, 2));
  EXPECT_TRUE(g.orientation_allowed(0, 1));
  EXPECT_TRUE(g.orientation_allowed(1, 0));
  EXPECT_TRUE(g.orientation_allowed(1, 2));
  EXPECT_FALSE(g.orientation_allowed(2, 1));
  EXPECT_FALSE(g.orientation_allowed(0, 3));
}

TEST(CouplingGraph, AddingReverseDirectedEdgeWidens) {
  CouplingGraph g(2);
  g.add_edge(0, 1, true);
  EXPECT_FALSE(g.orientation_allowed(1, 0));
  g.add_edge(1, 0, true);
  EXPECT_TRUE(g.orientation_allowed(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);  // still one physical connection
}

TEST(CouplingGraph, RejectsBadEdges) {
  CouplingGraph g(3);
  EXPECT_THROW(g.add_edge(0, 0), DeviceError);
  EXPECT_THROW(g.add_edge(0, 3), DeviceError);
  EXPECT_THROW((void)g.connected(-1, 0), DeviceError);
}

TEST(CouplingGraph, DistancesAndPaths) {
  CouplingGraph g(5);  // line
  for (int q = 0; q + 1 < 5; ++q) g.add_edge(q, q + 1);
  const ArchArtifacts artifacts = ArchArtifacts::build(g);
  EXPECT_EQ(artifacts.distance(0, 4), 4);
  EXPECT_EQ(artifacts.distance(2, 2), 0);
  const auto path = artifacts.shortest_path(0, 3);
  EXPECT_EQ(path, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(artifacts.connected());
  EXPECT_EQ(artifacts.diameter(), 4);
}

TEST(CouplingGraph, DisconnectedGraphs) {
  CouplingGraph g(4);
  g.add_edge(0, 1);
  const ArchArtifacts artifacts = ArchArtifacts::build(g);
  EXPECT_EQ(artifacts.distance(0, 3), -1);
  EXPECT_TRUE(artifacts.shortest_path(0, 3).empty());
  EXPECT_FALSE(artifacts.connected());
  EXPECT_EQ(artifacts.diameter(), -1);
  EXPECT_EQ(artifacts.total_distance_from(0), -1);
}

TEST(CouplingGraph, DistanceCacheInvalidatedByNewEdges) {
  // The tables are a snapshot of the graph they were built from: an edge
  // added later shows up in a new build and leaves the old one as it was.
  CouplingGraph g(3);
  g.add_edge(0, 1);
  const ArchArtifacts before = ArchArtifacts::build(g);
  g.add_edge(1, 2);
  EXPECT_EQ(ArchArtifacts::build(g).distance(0, 2), 2);
  EXPECT_EQ(before.distance(0, 2), -1);
}

// --- ArchArtifacts against the early-exit reference BFS ---------------------

Device reference_device(const std::string& name) {
  if (name == "qx4") return devices::ibm_qx4();
  if (name == "qx5") return devices::ibm_qx5();
  if (name == "s17") return devices::surface17();
  if (name == "s7") return devices::surface7();
  if (name == "linear6") return devices::linear(6);
  if (name == "grid3x4") return devices::grid(3, 4);
  if (name == "all5") return devices::all_to_all(5);
  if (name == "ion5") return devices::trapped_ion(5);
  if (name == "dots3x3") return devices::quantum_dot_array(3, 3);
  if (name == "disconnected") {
    // Two components — a directed triangle and a path — plus an isolated
    // qubit, with edges added out of order.
    CouplingGraph g(8);
    g.add_edge(2, 0, /*directed=*/true);
    g.add_edge(1, 2);
    g.add_edge(0, 1);
    g.add_edge(6, 5);
    g.add_edge(3, 4);
    g.add_edge(5, 4);
    return Device(name, std::move(g));
  }
  throw std::runtime_error("unknown device " + name);
}

class ArtifactsReference : public testing::TestWithParam<std::string> {};

TEST_P(ArtifactsReference, MatchesEarlyExitBfs) {
  const Device device = reference_device(GetParam());
  const ArchArtifacts& artifacts = *device.artifacts();
  const CouplingGraph& graph = device.coupling();
  const int n = device.num_qubits();
  ASSERT_EQ(artifacts.num_qubits(), n);

  bool connected = true;
  int diameter = 0;
  for (int a = 0; a < n; ++a) {
    long total = 0;
    bool row_connected = true;
    for (int b = 0; b < n; ++b) {
      // The same path, not merely an equally long one: routers take
      // bridge and rescue paths from it.
      EXPECT_EQ(artifacts.shortest_path(a, b),
                reference_shortest_path(graph, a, b))
          << a << " -> " << b;
      const int d = reference_distance(graph, a, b);
      EXPECT_EQ(artifacts.distance(a, b), d) << a << " -> " << b;
      EXPECT_EQ(artifacts.distance_data()[a * n + b], d) << a << " -> " << b;
      if (d < 0) {
        row_connected = false;
        connected = false;
      } else {
        total += d;
        diameter = std::max(diameter, d);
      }
    }
    EXPECT_EQ(artifacts.total_distance_from(a), row_connected ? total : -1)
        << "from " << a;
  }
  EXPECT_EQ(artifacts.connected(), connected);
  EXPECT_EQ(artifacts.diameter(), connected ? diameter : -1);
  EXPECT_EQ(connected, GetParam() != "disconnected");
}

INSTANTIATE_TEST_SUITE_P(Devices, ArtifactsReference,
                         testing::Values("qx4", "qx5", "s17", "s7", "linear6",
                                         "grid3x4", "all5", "ion5", "dots3x3",
                                         "disconnected"));

TEST(ArchArtifacts, DefaultDeviceHasEmptyTables) {
  const Device device;
  ASSERT_NE(device.artifacts(), nullptr);
  EXPECT_EQ(device.artifacts()->num_qubits(), 0);
  EXPECT_TRUE(device.artifacts()->connected());
  EXPECT_EQ(device.artifacts()->diameter(), 0);
}

TEST(IbmQx4, MatchesFig3aCouplingGraph) {
  const Device qx4 = devices::ibm_qx4();
  EXPECT_EQ(qx4.num_qubits(), 5);
  EXPECT_EQ(qx4.coupling().num_edges(), 6u);
  EXPECT_EQ(qx4.native_two_qubit(), GateKind::CX);
  // Allowed CNOT orientations (control -> target).
  const std::pair<int, int> allowed[] = {{1, 0}, {2, 0}, {2, 1},
                                         {2, 4}, {3, 2}, {3, 4}};
  for (const auto& [c, t] : allowed) {
    EXPECT_TRUE(qx4.coupling().orientation_allowed(c, t))
        << c << "->" << t;
    EXPECT_FALSE(qx4.coupling().orientation_allowed(t, c))
        << t << "->" << c << " should be forbidden";
  }
  // The Sec. IV narrative: the example's first CNOT (paper q3 -> q4,
  // trivially placed) is not allowed.
  EXPECT_FALSE(qx4.coupling().orientation_allowed(2, 3));
  EXPECT_TRUE(qx4.accepts(make_gate(GateKind::CX, {1, 0})));
  EXPECT_FALSE(qx4.accepts(make_gate(GateKind::CX, {0, 1})));
  EXPECT_FALSE(qx4.accepts(make_gate(GateKind::CZ, {1, 0})));
}

TEST(IbmQx5, SixteenQubitLadder) {
  const Device qx5 = devices::ibm_qx5();
  EXPECT_EQ(qx5.num_qubits(), 16);
  EXPECT_TRUE(qx5.artifacts()->connected());
  EXPECT_EQ(qx5.coupling().num_edges(), 22u);
}

TEST(Surface17, MatchesThePaperFacts) {
  const Device s17 = devices::surface17();
  EXPECT_EQ(s17.num_qubits(), 17);
  EXPECT_EQ(s17.native_two_qubit(), GateKind::CZ);
  // "qubits 1 and 5 can interact"
  EXPECT_TRUE(s17.coupling().connected(1, 5));
  // "realising a two-qubit gate between qubits 1 and 7 is not possible"
  EXPECT_FALSE(s17.coupling().connected(1, 7));
  // Symmetric: "no restriction on which qubit can act as control/target".
  EXPECT_TRUE(s17.coupling().orientation_allowed(1, 5));
  EXPECT_TRUE(s17.coupling().orientation_allowed(5, 1));
  // "qubits 0, 2, 3, 6, 9, and 12 are coupled to the same feedline"
  const int line = s17.feedline(0);
  for (const int q : {2, 3, 6, 9, 12}) {
    EXPECT_EQ(s17.feedline(q), line) << "qubit " << q;
  }
  EXPECT_NE(s17.feedline(1), line);
  // Three frequency groups, all used.
  std::vector<int> groups = s17.frequency_groups();
  std::sort(groups.begin(), groups.end());
  EXPECT_EQ(groups.front(), 0);
  EXPECT_EQ(groups.back(), 2);
  EXPECT_TRUE(s17.has_control_constraints());
}

TEST(Surface17, LatticeIsTriangleFreeAndConnected) {
  const Device s17 = devices::surface17();
  const CouplingGraph& g = s17.coupling();
  EXPECT_TRUE(s17.artifacts()->connected());
  // Bipartite data/ancilla lattice: no triangles (this is why a 3-clique of
  // program interactions always costs at least one SWAP on Surface-17).
  int triangles = 0;
  for (int a = 0; a < 17; ++a) {
    for (int b = a + 1; b < 17; ++b) {
      for (int c = b + 1; c < 17; ++c) {
        if (g.connected(a, b) && g.connected(b, c) && g.connected(a, c)) {
          ++triangles;
        }
      }
    }
  }
  EXPECT_EQ(triangles, 0);
}

TEST(Surface17, EveryCzPairsAdjacentFrequencyGroups) {
  // Versluis scheme: data qubits at f1/f3 (groups 0/2), ancillas at f2
  // (group 1) — so every edge connects group 1 with group 0 or 2.
  const Device s17 = devices::surface17();
  for (const auto& edge : s17.coupling().edges()) {
    const int ga = s17.frequency_group(edge.a);
    const int gb = s17.frequency_group(edge.b);
    EXPECT_EQ(std::abs(ga - gb), 1)
        << "edge " << edge.a << "-" << edge.b << " groups " << ga << "," << gb;
  }
}

TEST(Surface17, ParkingRuleMatchesModel) {
  const Device s17 = devices::surface17();
  // Pick an edge whose high-frequency endpoint has other neighbours at the
  // low endpoint's frequency.
  for (const auto& edge : s17.coupling().edges()) {
    const std::vector<int> parked = s17.parked_qubits(edge.a, edge.b);
    const int ga = s17.frequency_group(edge.a);
    const int gb = s17.frequency_group(edge.b);
    const int high = ga < gb ? edge.a : edge.b;
    const int low = ga < gb ? edge.b : edge.a;
    for (const int p : parked) {
      EXPECT_EQ(s17.frequency_group(p), s17.frequency_group(low));
      EXPECT_TRUE(s17.coupling().connected(high, p));
      EXPECT_NE(p, low);
    }
    // Complete too: every such neighbour is parked, and the allocation-free
    // predicate agrees with the list for every qubit and operand order.
    for (int q = 0; q < s17.num_qubits(); ++q) {
      const bool in_list =
          std::find(parked.begin(), parked.end(), q) != parked.end();
      const bool by_model = q != low && s17.coupling().connected(high, q) &&
                            s17.frequency_group(q) == s17.frequency_group(low);
      EXPECT_EQ(in_list, by_model) << "edge " << edge.a << "-" << edge.b
                                   << " qubit " << q;
      EXPECT_EQ(s17.parks(edge.a, edge.b, q), in_list);
      EXPECT_EQ(s17.parks(edge.b, edge.a, q), in_list);
    }
  }
  // Parking is symmetric in the operand order.
  const auto& edge = s17.coupling().edges().front();
  EXPECT_EQ(s17.parked_qubits(edge.a, edge.b),
            s17.parked_qubits(edge.b, edge.a));
}

TEST(Surface17, DurationsMatchSec5) {
  const Durations d = devices::surface17().durations();
  EXPECT_DOUBLE_EQ(d.cycle_ns, 20.0);  // "26 cycles (20 ns per cycle)"
  EXPECT_EQ(d.single_qubit_cycles, 1);
  EXPECT_EQ(d.two_qubit_cycles, 2);
  EXPECT_GT(d.measure_cycles, 2);  // "measurement takes several cycles"
}

TEST(Surface7, SevenQubitTwoThreeTwo) {
  const Device s7 = devices::surface7();
  EXPECT_EQ(s7.num_qubits(), 7);
  EXPECT_EQ(s7.coupling().num_edges(), 8u);
  EXPECT_TRUE(s7.coupling().connected(0, 2));
  EXPECT_TRUE(s7.coupling().connected(3, 6));
  EXPECT_FALSE(s7.coupling().connected(0, 1));
}

TEST(Generators, LinearGridAllToAll) {
  const Device line = devices::linear(6);
  EXPECT_EQ(line.coupling().num_edges(), 5u);
  EXPECT_EQ(line.artifacts()->diameter(), 5);
  const Device grid = devices::grid(3, 4);
  EXPECT_EQ(grid.num_qubits(), 12);
  EXPECT_EQ(grid.coupling().num_edges(), 17u);  // 3*3 + 2*4
  const Device full = devices::all_to_all(5);
  EXPECT_EQ(full.coupling().num_edges(), 10u);
  EXPECT_EQ(full.artifacts()->diameter(), 1);
}

TEST(DeviceGates, CyclesForGateFamilies) {
  const Device s17 = devices::surface17();
  EXPECT_EQ(s17.cycles_for(make_gate(GateKind::Ry, {0}, {0.5})), 1);
  EXPECT_EQ(s17.cycles_for(make_gate(GateKind::CZ, {1, 5})), 2);
  EXPECT_EQ(s17.cycles_for(make_measure(0, 0)), 30);
  EXPECT_EQ(s17.cycles_for(make_barrier({0, 1})), 0);
  EXPECT_GT(s17.cycles_for(make_gate(GateKind::SWAP, {1, 5})), 3 * 2 - 1);
}

TEST(DeviceConfig, JsonRoundTripPreservesEverything) {
  const Device original = devices::surface17();
  const Json encoded = device_to_json(original);
  const Device decoded = device_from_json(encoded);
  EXPECT_EQ(decoded.name(), original.name());
  EXPECT_EQ(decoded.num_qubits(), original.num_qubits());
  EXPECT_EQ(decoded.coupling().num_edges(), original.coupling().num_edges());
  for (const auto& edge : original.coupling().edges()) {
    EXPECT_TRUE(decoded.coupling().connected(edge.a, edge.b));
  }
  EXPECT_EQ(decoded.native_two_qubit(), original.native_two_qubit());
  EXPECT_EQ(decoded.frequency_groups(), original.frequency_groups());
  EXPECT_EQ(decoded.feedlines(), original.feedlines());
  EXPECT_DOUBLE_EQ(decoded.durations().cycle_ns,
                   original.durations().cycle_ns);
}

TEST(DeviceConfig, DirectedEdgesRoundTrip) {
  const Device original = devices::ibm_qx4();
  const Device decoded = device_from_json(device_to_json(original));
  EXPECT_TRUE(decoded.coupling().orientation_allowed(1, 0));
  EXPECT_FALSE(decoded.coupling().orientation_allowed(0, 1));
}

TEST(DeviceConfig, ParsesMinimalConfig) {
  const Device device = device_from_json_text(R"({
    "name": "tiny",
    "num_qubits": 2,
    "edges": [[0, 1]],
    "native_two_qubit": "cz"
  })");
  EXPECT_EQ(device.name(), "tiny");
  EXPECT_TRUE(device.coupling().connected(0, 1));
  EXPECT_FALSE(device.has_control_constraints());
}

TEST(DeviceConfig, RejectsMalformedConfigs) {
  EXPECT_THROW((void)device_from_json_text("{}"), DeviceError);
  EXPECT_THROW((void)device_from_json_text(
                   R"({"num_qubits": 2, "edges": [[0, 5]]})"),
               DeviceError);
  EXPECT_THROW((void)load_device("/nonexistent/path.json"), DeviceError);
  // Outside int range: rejected, never cast.
  EXPECT_THROW((void)device_from_json_text(R"({"num_qubits": 3000000000})"),
               ParseError);
}

// Hard errors carry the offending key path so a bad config is fixable
// from the message alone.
TEST(DeviceConfig, ErrorsNameTheOffendingKeyPath) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)device_from_json_text(text);
    } catch (const DeviceError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message_of("{}").find("num_qubits"), std::string::npos);
  EXPECT_NE(message_of(R"({"num_qubits": "three"})").find("'num_qubits'"),
            std::string::npos);
  EXPECT_NE(message_of(R"({"num_qubits": 0})").find("at least 1"),
            std::string::npos);
  const std::string bad_edge =
      message_of(R"({"num_qubits": 2, "edges": [[0, 1], [0, 5]]})");
  EXPECT_NE(bad_edge.find("edges[1]"), std::string::npos);
  EXPECT_NE(message_of(R"({"num_qubits": 2, "edges": [[0], [0, 1]]})")
                .find("edges[0]"),
            std::string::npos);
  EXPECT_NE(message_of("[1, 2]").find("top level"), std::string::npos);
}

// Malformed *optional* fields degrade to documented defaults with a
// warning recorded on the device instead of failing the load.
TEST(DeviceConfig, OptionalFieldsFallBackWithWarnings) {
  const Device device = device_from_json_text(R"({
    "num_qubits": 3,
    "edges": [[0, 1], [1, 2]],
    "native_two_qubit": "not-a-gate",
    "durations": {"cycle_ns": -5, "two_qubit": 3},
    "frequency_groups": [0, 1],
    "supports_shuttling": "yes"
  })");
  // Defaults held where values were bad...
  EXPECT_EQ(device.native_two_qubit(), GateKind::CZ);
  EXPECT_DOUBLE_EQ(device.durations().cycle_ns, 20.0);
  EXPECT_TRUE(device.frequency_groups().empty());
  EXPECT_FALSE(device.supports_shuttling());
  // ...good values inside a partly bad section still applied...
  EXPECT_EQ(device.durations().two_qubit_cycles, 3);
  // ...and every fallback left a named warning.
  ASSERT_EQ(device.load_warnings().size(), 4u);
  const auto warned = [&device](const std::string& key) {
    for (const std::string& w : device.load_warnings()) {
      if (w.find(key) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(warned("native_two_qubit"));
  EXPECT_TRUE(warned("durations.cycle_ns"));
  EXPECT_TRUE(warned("frequency_groups"));
  EXPECT_TRUE(warned("supports_shuttling"));
}

TEST(DeviceConfig, CleanConfigLoadsWithoutWarnings) {
  const Device device = device_from_json_text(R"({
    "num_qubits": 2,
    "edges": [[0, 1]],
    "durations": {"cycle_ns": 10, "two_qubit": 2}
  })");
  EXPECT_TRUE(device.load_warnings().empty());
  EXPECT_DOUBLE_EQ(device.durations().cycle_ns, 10.0);
}

TEST(DeviceMisc, FrequencyGroupValidation) {
  Device device("d", CouplingGraph(3));
  EXPECT_THROW(device.set_frequency_groups({0, 1}), DeviceError);
  device.set_frequency_groups({0, 1, 2});
  EXPECT_EQ(device.frequency_group(1), 1);
  EXPECT_THROW((void)device.frequency_group(5), DeviceError);
}

TEST(DeviceDraw, LatticeArtShowsEveryQubit) {
  const std::string art = draw_device(devices::surface17());
  for (int q = 0; q < 17; ++q) {
    EXPECT_NE(art.find(std::to_string(q)), std::string::npos) << q;
  }
  // Frequency-group suffix letters appear.
  EXPECT_NE(art.find("a"), std::string::npos);
  EXPECT_NE(art.find("b"), std::string::npos);
  // Diagonal bonds of the rotated lattice.
  EXPECT_NE(art.find('\\'), std::string::npos);
  EXPECT_NE(art.find('/'), std::string::npos);
}

TEST(DeviceDraw, FallsBackToEdgeListWithoutCoordinates) {
  const std::string art = draw_device(devices::ibm_qx4());
  // Edges are stored with a < b; the Q1 -> Q0 coupling prints as "Q0 <- Q1".
  EXPECT_NE(art.find("Q0 <- Q1"), std::string::npos);
  EXPECT_NE(art.find("Q3 -> Q4"), std::string::npos);
}

TEST(DeviceDraw, DotExportShapes) {
  const std::string directed = device_to_dot(devices::ibm_qx4());
  EXPECT_NE(directed.find("digraph"), std::string::npos);
  EXPECT_NE(directed.find("Q1 -> Q0"), std::string::npos);
  EXPECT_EQ(directed.find("--"), std::string::npos);
  const std::string undirected = device_to_dot(devices::surface17());
  EXPECT_EQ(undirected.find("digraph"), std::string::npos);
  EXPECT_NE(undirected.find("Q1 -- Q5"), std::string::npos);
  EXPECT_NE(undirected.find("FL0"), std::string::npos);  // feedline labels
}

TEST(DeviceMisc, SummaryMentionsKeyProperties) {
  const std::string summary = devices::surface17().summary();
  EXPECT_NE(summary.find("17 qubits"), std::string::npos);
  EXPECT_NE(summary.find("cz"), std::string::npos);
  EXPECT_NE(summary.find("frequency groups: 3"), std::string::npos);
  EXPECT_NE(summary.find("feedlines: 3"), std::string::npos);
}

}  // namespace
}  // namespace qmap
