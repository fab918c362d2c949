// Streaming out-of-core compilation: throughput and peak-RSS scaling.
//
// The headline claim of the streaming pipeline is that peak memory is
// O(routing window), not O(circuit): compiling a million-gate circuit
// through PassManager::run_stream must not cost (much) more resident
// memory than compiling ten thousand gates with the same window. Each
// BM_StreamCompile size records the process peak RSS (getrusage) after
// the run as a counter; ru_maxrss is process-global and monotonic, so the
// sizes are registered ascending — a flat profile across 10k -> 1M gates
// is exactly the out-of-core property, and bench_snapshot.sh gates on the
// 1M/10k ratio staying under 2x.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>

#include "bench_util.hpp"
#include "ir/gate_stream.hpp"
#include "pass/manager.hpp"
#include "workloads/stream_workloads.hpp"

namespace qmap {
namespace {

double peak_rss_mb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// The fully streamable pipeline: chunk-wise decompose, identity placement,
// windowed sabre routing, token-swap cleanup at end-of-stream. No
// postroute/schedule tail — those materialize, which is exactly what this
// bench must not do.
PipelineSpec streaming_spec() {
  PipelineSpec spec;
  spec.append("decompose");
  Json placer_options;
  placer_options["algorithm"] = Json(std::string("identity"));
  spec.append("placer", std::move(placer_options));
  Json router_options;
  router_options["algorithm"] = Json(std::string("sabre"));
  spec.append("router", std::move(router_options));
  spec.append("token_swap_finisher");
  return spec;
}

void BM_StreamCompile(benchmark::State& state) {
  const std::size_t target = static_cast<std::size_t>(state.range(0));
  const Device device = devices::ibm_qx5();
  const PassManager manager(streaming_spec());
  const PipelineRuntime runtime;
  StreamPipelineOptions options;  // fixed window regardless of size

  std::size_t gates_in = 0;
  std::size_t gates_out = 0;
  std::size_t window_peak = 0;
  double gates_per_sec = 0.0;
  for (auto _ : state) {
    // 6-bit Cuccaro adder blocks (14 qubits) repeated to `target` gates;
    // the generator holds one block, so RSS measures the pipeline.
    workloads::RepeatedBlockSource source =
        workloads::cuccaro_stream(6, target);
    CountingSink sink;
    const auto start = std::chrono::steady_clock::now();
    const StreamReport report =
        manager.run_stream(source, device, sink, runtime, options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (!report.stream.streamed_route ||
        !report.stream.materialized_passes.empty()) {
      state.SkipWithError("pipeline did not stream");
      return;
    }
    gates_in = report.stream.gates_in;
    gates_out = report.stream.gates_out;
    window_peak = report.stream.window_peak_gates;
    if (seconds > 0) {
      gates_per_sec = static_cast<double>(gates_in) / seconds;
    }
  }
  state.counters["gates_in"] = static_cast<double>(gates_in);
  state.counters["gates_out"] = static_cast<double>(gates_out);
  state.counters["window_peak_gates"] = static_cast<double>(window_peak);
  state.counters["gates_per_sec"] = gates_per_sec;
  state.counters["peak_rss_mb"] = peak_rss_mb();
  state.SetLabel("cuccaro6@ibm_qx5 window=" +
                 std::to_string(options.chunk_gates));
}
// Ascending registration order is load-bearing: ru_maxrss never decreases,
// so each size's counter reflects the high-water mark up to and including
// that size.
BENCHMARK(BM_StreamCompile)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void print_figure() {
  bench::section("Streaming out-of-core compilation (DESIGN.md Sec. 12)");
  bench::paper_note(
      "Devices impose tight memory envelopes on control software; the "
      "windowed pipeline compiles circuits far larger than memory by "
      "keeping only the routing window resident.");
  std::cout << "BM_StreamCompile/<gates>: chunk-wise decompose + windowed "
               "sabre + token-swap cleanup, counters carry gates/sec and "
               "process peak RSS; flat peak_rss_mb from 10k to 1M gates is "
               "the out-of-core property.\n";
}

}  // namespace
}  // namespace qmap

int main(int argc, char** argv) {
  qmap::print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
