// Parallel portfolio engine: thread pool, cancellation, determinism
// across thread counts, winner optimality vs. serial strategies, and the
// factory enumerations the engine builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "arch/builtin.hpp"
#include "common/rng.hpp"
#include "engine/cancel.hpp"
#include "engine/portfolio.hpp"
#include "engine/thread_pool.hpp"
#include "qasm/openqasm.hpp"
#include "route/router.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

// --- CancelToken -----------------------------------------------------------

TEST(CancelToken, ManualCancellation) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check(), CancelledError);
}

TEST(CancelToken, DeadlineFires) {
  CancelToken token;
  token.set_deadline_after_ms(1.0);
  EXPECT_TRUE(token.has_deadline());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!token.cancelled() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelToken, DisarmedDeadlineNeverFires) {
  CancelToken token;
  token.set_deadline_after_ms(0.0);
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, AsyncReturnsValuesAndExceptions) {
  ThreadPool pool(2);
  auto value = pool.async([] { return 6 * 7; });
  auto thrown = pool.async([]() -> int { throw MappingError("boom"); });
  EXPECT_EQ(value.get(), 42);
  EXPECT_THROW(thrown.get(), MappingError);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after draining
  EXPECT_EQ(counter.load(), 50);
}

// --- Factory enumerations (engine satellite) -------------------------------

TEST(StrategyFactories, UnknownNamesListValidOnes) {
  try {
    (void)make_placer("no-such-placer");
    FAIL() << "expected MappingError";
  } catch (const MappingError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-placer"), std::string::npos) << what;
    for (const std::string& name : known_placers()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
  try {
    (void)make_router("no-such-router");
    FAIL() << "expected MappingError";
  } catch (const MappingError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-router"), std::string::npos) << what;
    for (const std::string& name : known_routers()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(StrategyFactories, BridgeIsARegisteredRouter) {
  // The BRIDGE router is first-class: enumerated, constructible, and named
  // in the unknown-router error so users discover it from the message.
  EXPECT_TRUE(std::find(known_routers().begin(), known_routers().end(),
                        "bridge") != known_routers().end());
  const auto router = make_router("bridge");
  ASSERT_NE(router, nullptr);
  EXPECT_EQ(router->name(), "bridge");
  try {
    (void)make_router("no-such-router");
    FAIL() << "expected MappingError";
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("bridge"), std::string::npos)
        << e.what();
  }
}

TEST(StrategyFactories, EveryKnownNameConstructs) {
  for (const std::string& name : known_placers()) {
    EXPECT_NE(make_placer(name), nullptr) << name;
  }
  for (const std::string& name : known_routers()) {
    EXPECT_NE(make_router(name), nullptr) << name;
  }
}

TEST(StrategyFactories, DerivedStreamsAreStableAndDistinct) {
  const std::uint64_t a = Rng::derive_stream(0xC0FFEE, 0);
  EXPECT_EQ(a, Rng::derive_stream(0xC0FFEE, 0));  // pure function
  EXPECT_NE(a, Rng::derive_stream(0xC0FFEE, 1));
  EXPECT_NE(a, Rng::derive_stream(0xC0FFED, 0));
}

// --- Portfolio -------------------------------------------------------------

PortfolioOptions small_portfolio_options(int num_threads) {
  PortfolioOptions options;
  options.num_threads = num_threads;
  options.cost_name = "gates";
  return options;
}

TEST(Portfolio, WinnerMatchesBestSerialStrategyOnQx4) {
  const Device device = devices::ibm_qx4();
  const Circuit circuit = workloads::fig1_example();
  PortfolioOptions options = small_portfolio_options(2);
  const PortfolioCompiler portfolio(device, options);
  const PortfolioResult result = portfolio.compile(circuit);

  ASSERT_GE(result.winner_index, 0);
  EXPECT_TRUE(Compiler::verify(result.best));

  // Re-run every portfolio strategy serially through the plain Compiler
  // with the same derived seed; the portfolio winner must cost no more
  // than any of them.
  const CostFunction cost = make_cost_function("gates");
  double best_serial = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < portfolio.strategies().size(); ++i) {
    const StrategySpec& spec = portfolio.strategies()[i];
    if (spec.max_qubits > 0 && circuit.num_qubits() > spec.max_qubits) {
      continue;
    }
    CompilerOptions compiler_options;
    compiler_options.placer = spec.placer;
    compiler_options.router = spec.router;
    compiler_options.seed = Rng::derive_stream(options.base_seed, i);
    const CompilationResult serial =
        Compiler(device, compiler_options).compile(circuit);
    best_serial = std::min(best_serial, cost(serial, device));
  }
  const double winner_cost =
      cost(result.best, device);
  EXPECT_LE(winner_cost, best_serial);
  EXPECT_DOUBLE_EQ(winner_cost, best_serial);  // ties break by index
}

TEST(Portfolio, WinnerVerifiesOnSurface17) {
  const Device device = devices::surface17();
  const Circuit circuit = workloads::qft(5);
  const PortfolioCompiler portfolio(device, small_portfolio_options(4));
  const PortfolioResult result = portfolio.compile(circuit);

  ASSERT_GE(result.winner_index, 0);
  EXPECT_GE(result.completed_count(), 2u);
  EXPECT_TRUE(Compiler::verify(result.best));
  // Telemetry is complete: one entry per strategy, margins consistent.
  ASSERT_EQ(result.telemetry.size(), portfolio.strategies().size());
  for (const StrategyTelemetry& t : result.telemetry) {
    if (t.status == StrategyTelemetry::Status::Completed) {
      EXPECT_GE(t.margin, 0.0);
      if (t.winner) EXPECT_EQ(t.margin, 0.0);
    }
  }
}

TEST(Portfolio, DeterministicAcrossThreadCounts) {
  const Device device = devices::surface17();
  Rng rng(123);
  const Circuit circuit = workloads::random_circuit(6, 40, rng, 0.5);

  std::string reference;
  for (const int threads : {1, 2, 8}) {
    PortfolioOptions options = small_portfolio_options(threads);
    options.base_seed = 0xDEADBEEF;
    const PortfolioCompiler portfolio(device, options);
    // Repeat each thread count twice: catches timing-dependent selection
    // as well as cross-thread-count divergence.
    for (int repeat = 0; repeat < 2; ++repeat) {
      const std::string fingerprint =
          portfolio.compile(circuit).fingerprint();
      if (reference.empty()) {
        reference = fingerprint;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(fingerprint, reference)
            << "diverged at " << threads << " threads, repeat " << repeat;
      }
    }
  }
}

TEST(Portfolio, SlowExactStrategyIsCancelledAtDeadline) {
  const Device device = devices::surface17();
  // 8 qubits on a 17-qubit device: the exact router's state space is
  // astronomically large, so even its A* search can only end via its
  // deadline; the heuristics finish long before.
  Rng rng(7);
  const Circuit circuit = workloads::random_circuit(8, 60, rng, 0.5);

  PortfolioOptions options;
  options.num_threads = 2;
  options.cost_name = "gates";
  options.strategies = {
      {"greedy", "sabre", 0, 0.0},
      {"greedy", "astar", 0, 0.0},
      {"identity", "exact", 0, /*deadline_ms=*/50.0},
  };
  const PortfolioCompiler portfolio(device, options);
  const PortfolioResult result = portfolio.compile(circuit);

  ASSERT_EQ(result.telemetry.size(), 3u);
  EXPECT_EQ(result.telemetry[2].status, StrategyTelemetry::Status::Cancelled);
  EXPECT_EQ(result.cancelled_count(), 1u);
  // The portfolio still returns a valid, verified result from the others.
  ASSERT_GE(result.winner_index, 0);
  EXPECT_NE(result.winner_index, 2);
  EXPECT_TRUE(Compiler::verify(result.best));
}

TEST(Portfolio, SkipsStrategiesGatedByWidth) {
  const Device device = devices::surface17();
  const Circuit circuit = workloads::ghz(7);  // wider than the exact gates
  const PortfolioCompiler portfolio(device,
                                    small_portfolio_options(2));
  const PortfolioResult result = portfolio.compile(circuit);
  bool saw_skip = false;
  for (const StrategyTelemetry& t : result.telemetry) {
    if (t.spec.max_qubits > 0 && circuit.num_qubits() > t.spec.max_qubits) {
      EXPECT_EQ(t.status, StrategyTelemetry::Status::Skipped);
      saw_skip = true;
    }
  }
  EXPECT_TRUE(saw_skip);
  EXPECT_TRUE(Compiler::verify(result.best));
}

TEST(Portfolio, ThrowsWhenNothingCompletes) {
  const Device device = devices::surface17();
  Rng rng(7);
  const Circuit circuit = workloads::random_circuit(8, 60, rng, 0.5);
  PortfolioOptions options;
  options.num_threads = 2;
  options.strategies = {{"identity", "exact", 0, /*deadline_ms=*/20.0}};
  const PortfolioCompiler portfolio(device, options);
  EXPECT_THROW((void)portfolio.compile(circuit), MappingError);
}

TEST(Portfolio, ForeignExceptionFromStageHookIsContainedPerStrategy) {
  // A stage hook throwing a type not derived from qmap::Error fails every
  // strategy inside its own crash boundary: each records the failure in
  // its telemetry, and try_compile reports an empty race without throwing.
  PortfolioOptions options = small_portfolio_options(2);
  options.stage_hook = [](const char* stage, int) {
    if (std::string(stage) == "router") {
      throw std::runtime_error("planted foreign fault");
    }
  };
  const PortfolioCompiler portfolio(devices::ibm_qx4(), options);
  ThreadPool pool(2);
  // Any exception escaping try_compile fails the test on its own.
  const PortfolioResult result =
      portfolio.try_compile(workloads::ghz(4), pool);
  EXPECT_EQ(result.winner_index, -1);
  ASSERT_EQ(result.telemetry.size(), portfolio.strategies().size());
  for (const StrategyTelemetry& t : result.telemetry) {
    EXPECT_EQ(t.status, StrategyTelemetry::Status::Failed) << t.spec.label();
    EXPECT_EQ(t.error_class, ErrorClass::Permanent) << t.spec.label();
    EXPECT_NE(t.error.find("planted foreign fault"), std::string::npos)
        << t.error;
  }
}

TEST(Portfolio, RejectsMisspelledStrategyAtConstruction) {
  PortfolioOptions options;
  options.strategies = {{"greedy", "sabre-typo", 0, 0.0}};
  EXPECT_THROW(PortfolioCompiler(devices::ibm_qx4(), options), MappingError);
}

TEST(Portfolio, ReportAndJsonCarryTelemetry) {
  const Device device = devices::ibm_qx4();
  const PortfolioCompiler portfolio(device, small_portfolio_options(2));
  const PortfolioResult result =
      portfolio.compile(workloads::fig1_example());

  const std::string report = result.report();
  EXPECT_NE(report.find("winner"), std::string::npos);
  EXPECT_NE(report.find(result.winner_label), std::string::npos);

  const Json json = result.to_json();
  EXPECT_EQ(json.at("winner").at("label").as_string(), result.winner_label);
  EXPECT_EQ(json.at("strategies").size(), result.telemetry.size());
  EXPECT_TRUE(json.at("best").contains("mapped"));
  // Round-trips through the serializer.
  EXPECT_NO_THROW((void)Json::parse(json.dump(2)));
}

TEST(Portfolio, DefaultPortfolioAddsReliabilityOnNoisyDevices) {
  Device noisy = devices::surface17();
  noisy.set_noise(NoiseModel::uniform(noisy.coupling(), 0.001, 0.01, 0.02));
  const auto plain = PortfolioCompiler::default_portfolio(devices::surface17());
  const auto with_noise = PortfolioCompiler::default_portfolio(noisy);
  EXPECT_EQ(with_noise.size(), plain.size() + 1);
  EXPECT_EQ(with_noise.back().router, "reliability");
}

TEST(Portfolio, DefaultPortfolioIsTheLiteralStrategyList) {
  const auto describe = [](const std::vector<StrategySpec>& strategies) {
    std::vector<std::string> out;
    for (const StrategySpec& s : strategies) {
      out.push_back(s.label() + "/" + std::to_string(s.max_qubits) + "/" +
                    std::to_string(s.deadline_ms));
    }
    return out;
  };
  std::vector<std::string> expected = {
      "greedy+sabre/0/0.000000",     "greedy+bridge/0/0.000000",
      "annealing+qmap/0/0.000000",   "greedy+sabre+commute/0/0.000000",
      "exhaustive+astar/5/0.000000", "greedy+exact/6/0.000000"};
  EXPECT_EQ(describe(PortfolioCompiler::default_portfolio(devices::surface17())),
            expected);
  Device noisy = devices::surface17();
  noisy.set_noise(NoiseModel::uniform(noisy.coupling(), 0.001, 0.01, 0.02));
  expected.push_back("reliability+reliability/0/0.000000");
  EXPECT_EQ(describe(PortfolioCompiler::default_portfolio(noisy)), expected);
}

TEST(Portfolio, DefaultPortfolioEntersBridgeInTheRace) {
  const auto strategies =
      PortfolioCompiler::default_portfolio(devices::surface17());
  const bool has_bridge =
      std::any_of(strategies.begin(), strategies.end(),
                  [](const StrategySpec& s) { return s.router == "bridge"; });
  EXPECT_TRUE(has_bridge);
}

// --- Cancellation plumbed through the plain Compiler -----------------------

TEST(CompilerCancellation, PreCancelledTokenAborts) {
  CancelToken token;
  token.cancel();
  CompilerOptions options;
  options.cancel = &token;
  const Compiler compiler(devices::ibm_qx4(), options);
  EXPECT_THROW((void)compiler.compile(workloads::fig1_example()),
               CancelledError);
}

TEST(CompilerCancellation, RouterLoopHonoursDeadline) {
  // Exact routing of a wide random circuit never finishes in 30 ms; the
  // in-loop checkpoint must abort it via CancelledError (not run forever
  // and not report a MappingError).
  CancelToken token;
  token.set_deadline_after_ms(30.0);
  CompilerOptions options;
  options.placer = "identity";
  options.router = "exact";
  options.cancel = &token;
  Rng rng(11);
  const Circuit circuit = workloads::random_circuit(8, 60, rng, 0.5);
  const Compiler compiler(devices::surface17(), options);
  EXPECT_THROW((void)compiler.compile(circuit), CancelledError);
}

}  // namespace
}  // namespace qmap
