// Pass-pipeline suite (ctest -L pass; rerun under TSan by tier1.sh):
//   - facade-vs-PassManager parity: Compiler::compile must be byte-identical
//     (CompilationResult::fingerprint) to running the same PipelineSpec —
//     round-tripped through JSON text — directly on a PassManager, across
//     every placer x router pairing, three devices, and three seeds;
//   - the Device-owned ArchArtifacts: shared by copies and by every
//     compiler built from the Device, and another device's bundle refused;
//   - PipelineSpec JSON round-trips, canonical forms, and descriptive
//     errors;
//   - custom pipelines (dropped/reordered stages), hook order, cancellation;
//   - concurrent compiles reading one Device's shared artifacts bundle;
//   - the postroute pins: PostRoutePass output, params hashed bitwise,
//     against tests/golden/postroute_fingerprints.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "arch/builtin.hpp"
#include "common/digest.hpp"
#include "core/compiler.hpp"
#include "decompose/decomposer.hpp"
#include "engine/cancel.hpp"
#include "engine/portfolio.hpp"
#include "layout/placers.hpp"
#include "pass/manager.hpp"
#include "pass/passes.hpp"
#include "resilience/resilience.hpp"
#include "route/router.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

Device parity_device(const std::string& name) {
  if (name == "qx4") return devices::ibm_qx4();
  if (name == "qx5") return devices::ibm_qx5();
  if (name == "s17") return devices::surface17();
  throw std::runtime_error("unknown device");
}

// Same strategy gates as the differential fuzzer (verify/fuzzer.cpp): the
// exponential strategies only on small devices, calibration/shuttle
// strategies only where the device supports them.
bool strategy_applies(const Device& device, const std::string& placer,
                      const std::string& router) {
  if (placer == "reliability" && !device.has_noise()) return false;
  if (placer == "exhaustive" && device.num_qubits() > 9) return false;
  if (router == "reliability" && !device.has_noise()) return false;
  if (router == "shuttle" && !device.supports_shuttling()) return false;
  if (router == "exact" && device.num_qubits() > 6) return false;
  return true;
}

struct ParityCase {
  std::string device;
  std::string placer;
  std::string router;
  std::uint64_t seed = 0;
};

std::string parity_name(const testing::TestParamInfo<ParityCase>& info) {
  std::string router = info.param.router;
  for (char& c : router) {
    if (c == '+') c = '_';
  }
  return info.param.device + "_" + info.param.placer + "_" + router + "_s" +
         std::to_string(info.param.seed);
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (const char* device_name : {"qx4", "qx5", "s17"}) {
    const Device device = parity_device(device_name);
    for (const std::string& placer : known_placers()) {
      for (const std::string& router : known_routers()) {
        if (!strategy_applies(device, placer, router)) continue;
        for (const std::uint64_t seed : {std::uint64_t{0xC0FFEE},
                                         std::uint64_t{1},
                                         std::uint64_t{42}}) {
          cases.push_back({device_name, placer, router, seed});
        }
      }
    }
  }
  return cases;
}

class FacadeSpecParity : public testing::TestWithParam<ParityCase> {};

// The tentpole's acceptance bar: the Compiler facade and an explicit
// PassManager run of the JSON-round-tripped spec must agree byte for byte —
// and when one path throws, the other must throw the same error.
TEST_P(FacadeSpecParity, FingerprintsAreByteIdentical) {
  const ParityCase& param = GetParam();
  const Device device = parity_device(param.device);
  const Circuit circuit = workloads::fig1_example();

  CompilerOptions options;
  options.placer = param.placer;
  options.router = param.router;
  options.seed = param.seed;
  const Compiler compiler(device, options);

  std::string facade_fingerprint;
  std::string facade_error;
  try {
    facade_fingerprint = compiler.compile(circuit).fingerprint();
  } catch (const std::exception& e) {
    facade_error = e.what();
  }

  const PipelineSpec spec =
      PipelineSpec::from_json_text(compiler.pipeline().to_json().dump());
  ASSERT_EQ(spec, compiler.pipeline());
  const PassManager manager(spec);
  PipelineRuntime runtime;
  runtime.seed = param.seed;
  runtime.artifacts = compiler.artifacts();

  std::string spec_fingerprint;
  std::string spec_error;
  try {
    spec_fingerprint = manager.run(circuit, device, runtime).fingerprint();
  } catch (const std::exception& e) {
    spec_error = e.what();
  }

  EXPECT_EQ(facade_error, spec_error);
  EXPECT_EQ(facade_fingerprint, spec_fingerprint);
  if (facade_error.empty()) {
    EXPECT_FALSE(facade_fingerprint.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, FacadeSpecParity,
                         testing::ValuesIn(parity_cases()), parity_name);

// --- Device-owned distance tables ------------------------------------------

TEST(ArchArtifacts, ShortestPathsAreValidWalks) {
  const Device device = devices::surface17();
  const auto& artifacts = device.artifacts();
  for (int a = 0; a < device.num_qubits(); ++a) {
    for (int b = 0; b < device.num_qubits(); ++b) {
      const std::vector<int> path = artifacts->shortest_path(a, b);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      EXPECT_EQ(static_cast<int>(path.size()) - 1, artifacts->distance(a, b));
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(device.coupling().connected(path[i], path[i + 1]));
      }
    }
  }
}

TEST(ArchArtifacts, RejectsOutOfRangeQubits) {
  const Device device = devices::ibm_qx4();
  const ArchArtifacts& artifacts = *device.artifacts();
  EXPECT_THROW((void)artifacts.distance(-1, 0), DeviceError);
  EXPECT_THROW((void)artifacts.distance(0, device.num_qubits()), DeviceError);
  EXPECT_THROW((void)artifacts.shortest_path(0, 99), DeviceError);
}

TEST(ArchArtifacts, CopiesAndCompilersShareTheDeviceBundle) {
  const Device device = devices::surface17();
  const ArchArtifacts* bundle = device.artifacts().get();
  ASSERT_NE(bundle, nullptr);
  const Device copy = device;
  EXPECT_EQ(copy.artifacts().get(), bundle);
  Device assigned = devices::ibm_qx4();
  assigned = device;
  EXPECT_EQ(assigned.artifacts().get(), bundle);
  EXPECT_EQ(Compiler(device).artifacts().get(), bundle);
  EXPECT_EQ(PortfolioCompiler(device).device().artifacts().get(), bundle);
  EXPECT_EQ(resilience::ResilientCompiler(device).device().artifacts().get(),
            bundle);
  // A second device of the same shape builds its own tables.
  EXPECT_NE(devices::surface17().artifacts().get(), bundle);
}

TEST(ArchArtifacts, AnotherDevicesBundleIsRejectedBeforeAnyPass) {
  // A 16-qubit QX5 bundle read with Surface-17's 17 qubit numbers would
  // index past its tables; the context refuses it up front.
  const Device s17 = devices::surface17();
  const Circuit circuit = workloads::qft(8);
  const PassManager manager(PipelineSpec::standard());
  int stages = 0;
  PipelineRuntime runtime;
  runtime.stage_hook = [&stages](const char*) { ++stages; };
  runtime.artifacts = devices::ibm_qx5().artifacts();
  EXPECT_THROW((void)manager.run(circuit, s17, runtime), MappingError);
  // Equal tables from another Device object are not this device's bundle.
  runtime.artifacts = devices::surface17().artifacts();
  EXPECT_THROW((void)manager.run(circuit, s17, runtime), MappingError);
  EXPECT_EQ(stages, 0);

  // The device's own bundle, or none, compiles the same bytes.
  runtime.artifacts = s17.artifacts();
  const std::string with_own = manager.run(circuit, s17, runtime).fingerprint();
  runtime.artifacts = nullptr;
  EXPECT_EQ(manager.run(circuit, s17, runtime).fingerprint(), with_own);
}

// --- PipelineSpec as data ---------------------------------------------------

TEST(PipelineSpec, StandardRoundTripsThroughJsonText) {
  const PipelineSpec spec = PipelineSpec::standard("annealing", "astar",
                                                   /*run_scheduler=*/true,
                                                   /*use_control=*/false);
  const PipelineSpec reparsed =
      PipelineSpec::from_json_text(spec.to_json().dump());
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(spec.label(), "annealing+astar");
  EXPECT_EQ(spec.placer_name(), "annealing");
  EXPECT_EQ(spec.router_name(), "astar");
  EXPECT_EQ(spec.size(), 5u);
}

TEST(PipelineSpec, StandardIsTheCanonicalFormOfTheBarePassNames) {
  // The preset's defaults are the registry's: one place writes them.
  const PipelineSpec bare = PipelineSpec::from_json_text(
      R"(["decompose", "placer", "router", "postroute", "schedule"])");
  EXPECT_EQ(PipelineSpec::standard(), bare.canonical());
  EXPECT_EQ(PipelineSpec::standard().canonical(), PipelineSpec::standard());
  EXPECT_EQ(PipelineSpec::standard().to_json().dump(),
            R"({"passes":[{"pass":"decompose"},)"
            R"({"options":{"algorithm":"greedy"},"pass":"placer"},)"
            R"({"options":{"algorithm":"sabre"},"pass":"router"},)"
            R"({"pass":"postroute"},)"
            R"({"options":{"use_control_constraints":true},"pass":"schedule"}]})");
}

TEST(PipelineSpec, AcceptsBareArrayAndStrings) {
  const PipelineSpec spec = PipelineSpec::from_json_text(
      R"(["decompose", {"pass": "placer"}, "router", "postroute", "schedule"])");
  ASSERT_EQ(spec.size(), 5u);
  EXPECT_EQ(spec.passes()[0].pass, "decompose");
  EXPECT_EQ(spec.passes()[1].pass, "placer");
  EXPECT_EQ(spec.passes()[2].pass, "router");
  EXPECT_EQ(spec.passes()[3].pass, "postroute");
  EXPECT_EQ(spec.passes()[4].pass, "schedule");
  // Defaults applied: the spec labels itself like a strategy.
  EXPECT_EQ(spec.label(), "greedy+sabre");
}

TEST(PipelineSpec, UnknownPassNameFailsWithTheValidNames) {
  // Each pass has one name: the former aliases are unknown names too.
  for (const char* name : {"optimize", "lower", "place", "route",
                           "post-route", "scheduler", "token-swap"}) {
    try {
      (void)PipelineSpec::from_json_text(std::string(R"(["decompose", ")") +
                                         name + "\"]");
      FAIL() << "expected MappingError for " << name;
    } catch (const MappingError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("unknown pass: '") + name +
                    "' (valid: decompose, placer, router, "
                    "token_swap_finisher, postroute, schedule)");
    }
  }
}

TEST(PipelineSpec, UnknownOptionKeyFailsWithTheValidKeys) {
  // Every compile lowers to the native set and runs the peephole, so a
  // spec that still sets either is refused like any unknown key.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"([{"pass": "router", "options": {"algorithm": "sabre", "depth": 3}}])",
       "pass 'router': unknown option 'depth' (valid: algorithm)"},
      {R"([{"pass": "decompose", "options": {"lower_to_native": false}}])",
       "pass 'decompose': unknown option 'lower_to_native' (valid: none)"},
      {R"([{"pass": "postroute", "options": {"peephole": true}}])",
       "pass 'postroute': unknown option 'peephole' (valid: none)"},
      {R"([{"pass": "postroute", "options": {"lower_to_native": true}}])",
       "pass 'postroute': unknown option 'lower_to_native' (valid: none)"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)PipelineSpec::from_json_text(text);
      FAIL() << "expected MappingError for " << text;
    } catch (const MappingError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(PipelineSpec, UnknownAlgorithmFailsAtParseTimeNotRunTime) {
  EXPECT_THROW((void)PipelineSpec::from_json_text(
                   R"([{"pass": "placer", "options": {"algorithm": "magic"}}])"),
               MappingError);
}

TEST(PipelineSpec, StrategySpecExpandsToItsPipeline) {
  StrategySpec strategy;
  strategy.placer = "identity";
  strategy.router = "naive";
  const PipelineSpec spec = strategy.pipeline();
  EXPECT_EQ(spec.label(), strategy.label());
  EXPECT_EQ(spec, PipelineSpec::standard("identity", "naive"));
}

// --- Custom pipelines -------------------------------------------------------

TEST(PassManager, DroppingTheSchedulePassSkipsScheduling) {
  const Device device = devices::ibm_qx4();
  const PipelineSpec spec = PipelineSpec::from_json_text(
      R"(["decompose", "placer", "router", "postroute"])");
  const CompilationResult result =
      PassManager(spec).run(workloads::ghz(4), device, PipelineRuntime{});
  EXPECT_EQ(result.scheduled_cycles, 0);
  EXPECT_EQ(result.schedule.size(), 0u);
  EXPECT_GT(result.baseline_cycles, 0);
  EXPECT_TRUE(respects_coupling(result.final_circuit, device));
}

TEST(PassManager, RouterWithoutPlacerFailsWithActionableError) {
  const Device device = devices::ibm_qx4();
  const PipelineSpec spec =
      PipelineSpec::from_json_text(R"(["decompose", "router"])");
  try {
    (void)PassManager(spec).run(workloads::ghz(4), device, PipelineRuntime{});
    FAIL() << "expected MappingError";
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("needs an initial placement"),
              std::string::npos)
        << e.what();
  }
}

TEST(PassManager, StageHookSeesCanonicalNamesInPipelineOrder) {
  const Device device = devices::ibm_qx4();
  std::vector<std::string> stages;
  PipelineRuntime runtime;
  runtime.stage_hook = [&stages](const char* stage) {
    stages.emplace_back(stage);
  };
  const PassManager manager(PipelineSpec::standard());
  (void)manager.run(workloads::fig1_example(), device, runtime);
  // decompose is not a stage boundary (the pre-pass facade never announced
  // it), so the hook sequence is exactly the historical one the resilience
  // fault matrix matches against.
  const std::vector<std::string> expected = {"placer", "router", "postroute",
                                             "schedule"};
  EXPECT_EQ(stages, expected);
}

TEST(PassManager, RecordsPerPassTimingsInPipelineOrder) {
  const Device device = devices::ibm_qx4();
  const Circuit circuit = workloads::fig1_example();
  CompileContext ctx(circuit, device, PipelineRuntime{});
  PassManager(PipelineSpec::standard()).run(ctx);
  ASSERT_EQ(ctx.timings.size(), 5u);
  const char* expected[] = {"decompose", "placer", "router", "postroute",
                            "schedule"};
  for (std::size_t i = 0; i < ctx.timings.size(); ++i) {
    EXPECT_EQ(ctx.timings[i].pass, expected[i]);
    EXPECT_GE(ctx.timings[i].ms, 0.0);
  }
  EXPECT_TRUE(ctx.placed);
  EXPECT_TRUE(ctx.routed);
  EXPECT_TRUE(ctx.postrouted);
}

TEST(PassManager, PreCancelledTokenAbortsAtTheFirstBoundary) {
  const Device device = devices::ibm_qx4();
  CancelToken token;
  token.cancel();
  PipelineRuntime runtime;
  runtime.cancel = &token;
  int hook_calls = 0;
  runtime.stage_hook = [&hook_calls](const char*) { ++hook_calls; };
  const PassManager manager(PipelineSpec::standard());
  EXPECT_THROW(
      (void)manager.run(workloads::fig1_example(), device, runtime),
      CancelledError);
  // The checkpoint fires before the hook announces the stage.
  EXPECT_EQ(hook_calls, 0);
}

TEST(Compiler, ExplicitSpecOverloadMatchesTheFacadePreset) {
  const Device device = devices::surface17();
  const Compiler compiler(device);
  const Circuit circuit = workloads::qft(4);
  EXPECT_EQ(compiler.compile(circuit).fingerprint(),
            compiler.compile(circuit, compiler.pipeline()).fingerprint());
}

// --- Shared-artifact concurrency (the TSan targets) -------------------------

TEST(ArchArtifacts, ConcurrentRunsSharingOneBundleMatchSerial) {
  // Every thread compiles against its own copy of one Device; the copies
  // share the tables the original built, which the threads then only read.
  const Device device = devices::surface17();
  const Circuit circuit = workloads::qft(4);
  const PassManager manager(PipelineSpec::standard());

  const std::string expected =
      manager.run(circuit, device, PipelineRuntime{}).fingerprint();

  constexpr int kThreads = 8;
  std::vector<std::string> fingerprints(kThreads);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        try {
          const Device copy = device;
          if (copy.artifacts() != device.artifacts()) failures.fetch_add(1);
          PipelineRuntime runtime;
          runtime.artifacts = device.artifacts();
          fingerprints[static_cast<std::size_t>(t)] =
              manager.run(circuit, copy, runtime).fingerprint();
        } catch (...) {
          failures.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (const std::string& fingerprint : fingerprints) {
    EXPECT_EQ(fingerprint, expected);
  }
}

// --- token_swap_finisher pass ---

TEST(TokenSwapFinisher, RestoresTheInitialPlacementEndToEnd) {
  for (const char* router : {"sabre", "bridge"}) {
    for (const char* device_name : {"qx4", "qx5", "s17"}) {
      const Device device = parity_device(device_name);
      Rng rng(31);
      const int width = std::min(6, device.num_qubits());
      const Circuit circuit = workloads::random_circuit(width, 40, rng, 0.5);
      PipelineSpec spec;
      spec.append("decompose");
      spec.append("placer");
      Json router_options;
      router_options["algorithm"] = Json(std::string(router));
      spec.append("router", std::move(router_options));
      spec.append("token_swap_finisher");
      spec.append("postroute");
      spec.append("schedule");
      const CompilationResult result =
          PassManager(spec).run(circuit, device, PipelineRuntime{});
      // The finisher's whole contract: every program wire ends where it
      // started, so the mapped circuit computes the bare unitary.
      for (int w = 0; w < result.routing.initial.num_program_qubits(); ++w) {
        EXPECT_EQ(result.routing.final.phys_of_wire(w),
                  result.routing.initial.phys_of_wire(w))
            << router << " on " << device_name << ", wire " << w;
      }
      EXPECT_TRUE(respects_coupling(result.final_circuit, device));
      EXPECT_TRUE(Compiler::verify(result))
          << router << " on " << device_name;
    }
  }
}

TEST(TokenSwapFinisher, RemapsTerminalMeasurementsThroughTheCleanup) {
  // Measured circuits are the sharp edge: the cleanup SWAPs must splice in
  // *before* the trailing measurements (postroute's measurement relocation
  // rejects unitaries after a deferred measure), with the measurement
  // operands rerouted through the cleanup permutation.
  const Device device = devices::ibm_qx5();
  Circuit circuit = workloads::ghz(5);
  circuit.measure_all();
  PipelineSpec spec = PipelineSpec::from_json_text(
      R"(["decompose", "placer",
          {"pass": "router", "options": {"algorithm": "bridge"}},
          "token_swap_finisher", "postroute", "schedule"])");
  const CompilationResult result =
      PassManager(spec).run(circuit, device, PipelineRuntime{});
  for (int w = 0; w < result.routing.initial.num_program_qubits(); ++w) {
    EXPECT_EQ(result.routing.final.phys_of_wire(w),
              result.routing.initial.phys_of_wire(w));
  }
  EXPECT_TRUE(Compiler::verify(result));
  std::size_t measures = 0;
  for (const Gate& gate : result.final_circuit) {
    if (gate.kind == GateKind::Measure) ++measures;
  }
  EXPECT_EQ(measures, 5u);
}

TEST(TokenSwapFinisher, CanonicalNameParses) {
  const PipelineSpec spec = PipelineSpec::from_json_text(
      R"(["decompose", "placer", "router", "token_swap_finisher", "postroute"])");
  const Json canonical = spec.canonical_json();
  EXPECT_NE(canonical.dump().find("token_swap_finisher"), std::string::npos);
}

TEST(TokenSwapFinisher, WithoutARouterFailsWithActionableError) {
  const Device device = devices::ibm_qx4();
  const PipelineSpec spec = PipelineSpec::from_json_text(
      R"(["decompose", "placer", "token_swap_finisher"])");
  try {
    (void)PassManager(spec).run(workloads::ghz(4), device, PipelineRuntime{});
    FAIL() << "expected MappingError";
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("needs a routing result"),
              std::string::npos)
        << e.what();
  }
}

TEST(TokenSwapFinisher, AfterPostrouteFailsWithActionableError) {
  const Device device = devices::ibm_qx4();
  const PipelineSpec spec = PipelineSpec::from_json_text(
      R"(["decompose", "placer", "router", "postroute",
          "token_swap_finisher"])");
  try {
    (void)PassManager(spec).run(workloads::ghz(4), device, PipelineRuntime{});
    FAIL() << "expected MappingError";
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("must run before 'postroute'"),
              std::string::npos)
        << e.what();
  }
}

TEST(TokenSwapFinisher, RejectsUnknownOptions) {
  EXPECT_THROW((void)PipelineSpec::from_json_text(
                   R"([{"pass": "token_swap_finisher",
                        "options": {"rounds": 3}}])"),
               MappingError);
}

}  // namespace
}  // namespace qmap

namespace qmap {
namespace {

// --- Postroute pins --------------------------------------------------------
//
// PostRoutePass (measurement relocation, peephole, SWAP expansion, CNOT
// direction repair, single-qubit fusion and native lowering) pinned byte for
// byte against tests/golden/postroute_fingerprints.txt, across devices with
// directed CX (QX4, QX5), CZ + {Rx, Ry} (Surface-17), an unrestricted
// single-qubit set (trapped ion) and a measurable mask (relocation SWAPs).
// Each id ends in "p1l1" (peephole on, native lowering on), the one
// combination left of an earlier peephole x lower_to_native grid, so the
// rows and digests are unchanged. Regenerate only after an intentional
// output change:
//   QMAP_REGEN_GOLDEN=1 ./build/tests/test_pass --gtest_filter='PostRoutePins.*'

std::string postroute_fingerprint(const CompileContext& ctx) {
  const Circuit& out = ctx.result.final_circuit;
  std::string text = out.name() + "|" + std::to_string(out.num_qubits()) +
                     "|" + std::to_string(out.num_cbits()) + "\n";
  for (const Gate& gate : out) {
    text += gate_info(gate.kind).name;
    for (const int q : gate.qubits) text += " " + std::to_string(q);
    for (const double param : gate.params) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &param, sizeof bits);
      text += " #" + std::to_string(bits);
    }
    text += " ->" + std::to_string(gate.cbit) + "\n";
  }
  for (const int phys : ctx.result.routing.final.wire_to_phys()) {
    text += std::to_string(phys) + ",";
  }
  return content_digest(text);
}

/// A coupled path a - b - c with CX(a, b) and CX(b, c) allowed.
struct PinPath {
  int a = 0;
  int b = 0;
  int c = 0;
};

PinPath pin_path(const Device& device) {
  const CouplingGraph& coupling = device.coupling();
  for (int b = 0; b < device.num_qubits(); ++b) {
    const std::vector<int>& around = coupling.neighbors(b);
    for (const int a : around) {
      for (const int c : around) {
        if (a != c && coupling.orientation_allowed(a, b) &&
            coupling.orientation_allowed(b, c)) {
          return {a, b, c};
        }
      }
    }
  }
  throw std::runtime_error("no pin path on " + device.name());
}

/// A hand-built routed circuit on physical qubits with every pattern the
/// postroute chain rewrites: SWAP next to CX on the same pair (only the
/// second peephole sees the cancelling pair), a CX . Rz(x) . Rz(-x) . CX
/// cascade, three-way rotation sums, Phase/CPhase at 2pi, CRz at 4pi (and
/// a lone CRz at 2pi, which must stay), barriers, and mid-circuit plus
/// terminal measurements. A 20-level cascade outlasts both peepholes'
/// 8-iteration caps, so the cap and the cancel-before-merge order show
/// in the output.
Circuit pin_patterns(const Device& device) {
  const PinPath path = pin_path(device);
  const int a = path.a;
  const int b = path.b;
  const int c = path.c;
  const double pi = 3.14159265358979323846;
  const GateKind native = device.native_two_qubit();
  const auto two = [&](Circuit& circuit, int x, int y) {
    circuit.add(make_gate(native, {x, y}));
  };
  Circuit circuit(device.num_qubits(), "patterns");
  circuit.h(a).t(b);
  two(circuit, a, b);
  circuit.swap(a, b);
  two(circuit, a, b);
  circuit.swap(b, c);
  two(circuit, b, c);
  circuit.x(c);
  two(circuit, a, b);
  circuit.rz(0.3, b).rz(-0.3, b);
  two(circuit, a, b);
  for (int level = 1; level <= 20; ++level) {
    two(circuit, a, b);
    circuit.rz(0.05 * level, b);
  }
  for (int level = 20; level >= 1; --level) {
    circuit.rz(-0.05 * level, b);
    two(circuit, a, b);
  }
  circuit.rz(0.1, a).rz(0.2, a).rz(0.3, a);
  circuit.rx(0.7, c).rx(-0.2, c).rx(1.1, c);
  circuit.ry(0.25, b).ry(0.5, b).ry(-1.5, b);
  circuit.p(pi, a).p(pi, a);
  circuit.cp(pi, a, b).cp(pi, a, b);
  circuit.crz(2.0 * pi, a, b).crz(2.0 * pi, a, b);
  circuit.crz(2.0 * pi, b, c);
  circuit.cp(0.4, b, c).cp(0.5, c, b);
  circuit.barrier({a, b});
  circuit.sx(a).s(b).tdg(c).y(a).sdg(b).sxdg(c);
  circuit.u(0.3, 0.2, 0.1, a).z(a);
  circuit.measure(device.measurable(b) ? b : a, 4);
  circuit.h(device.measurable(b) ? b : a);
  two(circuit, a, b);
  circuit.barrier();
  circuit.rz(0.5, c).h(c).h(c).rz(-0.5, c);
  circuit.measure(a, 0).measure(b, 1).measure(c, 2);
  return circuit;
}

/// A logical workload routed onto `device` the way the default pipeline
/// does it: native lowering with SWAP placeholders, greedy placement, SABRE.
RoutingResult pin_route(const Circuit& circuit, const Device& device) {
  const Circuit lowered = lower_to_device(circuit, device, /*keep_swaps=*/true);
  const Placement initial = GreedyPlacer().place(lowered, device);
  return make_router("sabre")->route(lowered, device, initial);
}

std::map<std::string, std::string> postroute_pins() {
  Device masked = devices::ibm_qx5();
  std::vector<bool> mask(static_cast<std::size_t>(masked.num_qubits()));
  for (std::size_t q = 0; q < mask.size(); ++q) mask[q] = q % 2 == 0;
  masked.set_measurable(std::move(mask));
  const std::vector<std::pair<std::string, Device>> targets = {
      {"qx4", devices::ibm_qx4()},
      {"qx5", devices::ibm_qx5()},
      {"s17", devices::surface17()},
      {"ion5", devices::trapped_ion(5)},
      {"qx5mask", masked},
  };
  std::map<std::string, std::string> pins;
  for (const auto& [device_name, device] : targets) {
    const int m = device.num_qubits();
    std::vector<std::pair<std::string, RoutingResult>> routed;
    RoutingResult patterns;
    patterns.circuit = pin_patterns(device);
    patterns.initial = Placement::identity(m, m);
    patterns.final = patterns.initial;
    routed.emplace_back("patterns", std::move(patterns));
    Circuit qft = workloads::qft(5);
    qft.measure_all();
    routed.emplace_back("qft5", pin_route(qft, device));
    Rng rng(0x9057);
    Circuit random = workloads::random_circuit(5, 80, rng, 0.5);
    random.measure(0, 0).measure(3, 1);
    routed.emplace_back("random5", pin_route(random, device));
    for (const auto& [circuit_name, routing] : routed) {
      const Circuit input(m, circuit_name);
      CompileContext ctx(input, device, PipelineRuntime{});
      ctx.placed = true;
      ctx.routed = true;
      ctx.result.routing = routing;
      PostRoutePass().run(ctx);
      pins[device_name + "/" + circuit_name + "/p1l1"] =
          postroute_fingerprint(ctx);
    }
  }
  return pins;
}

TEST(PostRoutePins, MatchGoldenFingerprints) {
  const std::map<std::string, std::string> actual = postroute_pins();
  const std::string path =
      std::string(QMAP_GOLDEN_DIR) + "/postroute_fingerprints.txt";
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
        << case_id << ": postroute output drifted from the golden pin";
  }
}

}  // namespace
}  // namespace qmap
