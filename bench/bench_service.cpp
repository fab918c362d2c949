// Compile-service cache economics, measured:
//
//   1. Cold compile: a full portfolio-ladder run through the service
//      (cache bypassed) — the price every unique request pays once.
//   2. Warm hit: the identical request answered from the sharded result
//      cache — the price every repeat pays.
//   3. Coalesced fan-in: 8 concurrent identical requests answered by one
//      compile (single-flight).
//   4. Negative hit: a cached admission rejection.
//
// The print section verifies the service's two load-bearing claims and
// exits non-zero if either fails, so the bench doubles as an integration
// check:
//   * a warm hit is >= 100x faster than the cold compile it replays;
//   * the warm answer's fingerprint is byte-identical to the cold one.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.hpp"
#include "qasm/openqasm.hpp"
#include "service/service.hpp"

namespace {

using namespace qmap;
using namespace qmap::bench;

std::string bench_qasm() { return to_openqasm(workloads::qft(5)); }

service::ServiceRequest bench_request(std::uint64_t seed = 0xC0FFEE) {
  service::ServiceRequest request;
  request.op = "compile";
  request.client = "bench";
  request.device = "surface17";
  request.qasm = bench_qasm();
  request.seed = seed;
  return request;
}

double median_ms(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

void print_figure() {
  paper_note(
      "Sec. VII outlook: mapping sits between every algorithm and every "
      "device, and at service scale the same (circuit, device, pipeline, "
      "seed) tuples recur constantly. A content-addressed cache turns that "
      "repetition into near-free answers — if, and only if, a hit replays "
      "exactly what the cold path would have computed.");

  service::CompileService compile_service;

  // Cold compiles (fresh seeds, so none can hit the cache) interleaved
  // with blocks of warm hits on the seed-1 request, so that a stretch of
  // slow host time lands on both medians instead of deciding the ratio.
  constexpr std::uint64_t kColdSamples = 15;
  constexpr int kWarmPerBlock = 150;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  std::string cold_fingerprint;
  for (std::uint64_t seed = 1; seed <= kColdSamples; ++seed) {
    const auto start = std::chrono::steady_clock::now();
    const service::ServiceResponse response =
        compile_service.handle(bench_request(seed));
    cold_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    if (response.status != "ok" || response.cache != "miss") {
      std::cerr << "FATAL: cold compile did not run (status="
                << response.status << ", cache=" << response.cache << ")\n";
      std::exit(1);
    }
    if (seed == 1) cold_fingerprint = response.fingerprint;

    for (int i = 0; i < kWarmPerBlock; ++i) {
      const auto warm_start = std::chrono::steady_clock::now();
      const service::ServiceResponse hit =
          compile_service.handle(bench_request(1));
      warm_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - warm_start)
                            .count());
      if (hit.cache != "hit") {
        std::cerr << "FATAL: warm request missed the cache (cache="
                  << hit.cache << ")\n";
        std::exit(1);
      }
      if (hit.fingerprint != cold_fingerprint) {
        std::cerr << "FATAL: warm hit replayed a different fingerprint than "
                     "the cold compile\n";
        std::exit(1);
      }
    }
  }

  const double cold = median_ms(cold_ms);
  const double warm = median_ms(warm_ms);
  const double ratio = warm > 0.0 ? cold / warm : 1e9;

  section("Warm-hit vs cold-compile latency (surface17 / qft5)");
  TextTable table({"path", "median ms", "speedup"});
  table.add_row({"cold compile (portfolio ladder)", TextTable::num(cold, 3),
                 "1x"});
  table.add_row({"warm cache hit", TextTable::num(warm, 6),
                 TextTable::num(ratio, 0) + "x"});
  std::cout << table.str();
  std::cout << "(gate: the warm/cold ratio must be >= 100x, and warm "
               "fingerprints must be byte-identical to cold)\n";

  if (ratio < 100.0) {
    std::cerr << "FATAL: warm hit only " << ratio
              << "x faster than cold compile (need >= 100x)\n";
    std::exit(1);
  }
}

void BM_ServiceColdCompile(benchmark::State& state) {
  service::CompileService compile_service;
  service::ServiceRequest request = bench_request();
  request.no_cache = true;  // every iteration pays the full ladder
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile_service.handle(request));
  }
  state.SetLabel("cache bypass, full portfolio ladder");
}
BENCHMARK(BM_ServiceColdCompile);

void BM_ServiceWarmHit(benchmark::State& state) {
  service::CompileService compile_service;
  const service::ServiceRequest request = bench_request();
  benchmark::DoNotOptimize(compile_service.handle(request));  // warm it
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile_service.handle(request));
  }
  state.SetLabel("content-addressed cache hit");
}
BENCHMARK(BM_ServiceWarmHit);

void BM_ServiceCoalescedFanIn(benchmark::State& state) {
  service::ServiceConfig config;
  config.num_workers = 8;
  service::CompileService compile_service(std::move(config));
  std::uint64_t seed = 1;  // fresh key per iteration: one compile + 7 joins
  for (auto _ : state) {
    std::vector<std::future<service::ServiceResponse>> futures;
    futures.reserve(8);
    for (int i = 0; i < 8; ++i) {
      futures.push_back(compile_service.submit(bench_request(seed)));
    }
    for (auto& future : futures) {
      benchmark::DoNotOptimize(future.get());
    }
    ++seed;
  }
  state.SetLabel("8 identical concurrent requests, single-flight");
}
BENCHMARK(BM_ServiceCoalescedFanIn);

void BM_ServiceShedDecision(benchmark::State& state) {
  // The overload admission check runs on every submit, shed or not, so it
  // must be invisible next to a compile: the snapshot gates it at < 1% of
  // the cold-compile latency (in practice it is ~5 orders cheaper — three
  // uncontended mutex reads and a multiply).
  service::CompileService compile_service;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile_service.assess_load(5.0));
  }
  state.SetLabel("overload admission verdict (deadline-aware)");
}
BENCHMARK(BM_ServiceShedDecision);

void BM_ServiceDrain(benchmark::State& state) {
  // Graceful-drain latency with compiles in flight: the time a SIGTERM'd
  // daemon needs before it can exit with every accepted request answered.
  std::uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    service::ServiceConfig config;
    config.num_workers = 2;
    auto compile_service =
        std::make_unique<service::CompileService>(std::move(config));
    std::vector<std::future<service::ServiceResponse>> futures;
    for (int i = 0; i < 2; ++i) {
      futures.push_back(compile_service->submit(bench_request(seed++)));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(compile_service->drain(60000.0));
    state.PauseTiming();
    for (auto& future : futures) future.get();
    compile_service.reset();
    state.ResumeTiming();
  }
  state.SetLabel("drain with 2 cold compiles in flight");
}
BENCHMARK(BM_ServiceDrain)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_ServiceNegativeHit(benchmark::State& state) {
  service::CompileService compile_service;
  service::ServiceRequest request = bench_request();
  request.qasm = to_openqasm(workloads::ghz(40));  // wider than surface17
  benchmark::DoNotOptimize(compile_service.handle(request));  // cache it
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile_service.handle(request));
  }
  state.SetLabel("cached admission rejection");
}
BENCHMARK(BM_ServiceNegativeHit);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
