// compile_s17: one caller compiles a seeded pool of 10-17-qubit circuits on
// Surface-17 with the default Compiler (greedy+sabre, control-constrained
// scheduler), in a closed loop. No portfolio, no cache, no exact tier.
//
// The pool is stratified so its cost barely depends on the seed: 26 random
// Clifford circuits (widths 10..17 in turn, 24 gates per qubit), one
// 13-qubit QFT and one 12-qubit Cuccaro adder. The seed draws the Clifford
// gates, relabels the QFT/Cuccaro qubits and shuffles the order. Many items
// keep the latency distribution smooth, so its median does not jump between
// two items.
//
// Set-up builds the Compiler and the pool and compiles every item once (the
// warm-up); those results are the reference every later compile of the same
// item must repeat exactly (the determinism guard).
//
// Every fourth compile is preceded by one Calibration sample; the timing
// metrics (set-up included) are reported calibrated.
//
// Traced run: each step compiles one item twice, once through
// Compiler::compile and once by running each pass of Compiler::pipeline()
// by hand on one CompileContext with a span around every call. The two
// results must have the same fingerprint; the difference in time is the
// tracing overhead.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "arch/builtin.hpp"
#include "bench.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "pass/pass.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

/// Copy of `circuit` with program qubits relabeled by a seeded random
/// permutation (same gates, different interaction graph).
qmap::Circuit relabel(const qmap::Circuit& circuit, std::uint64_t seed) {
  std::vector<int> perm(static_cast<std::size_t>(circuit.num_qubits()));
  std::iota(perm.begin(), perm.end(), 0);
  qmap::Rng rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng.engine());
  qmap::Circuit out(circuit.num_qubits(), circuit.name());
  out.declare_cbits(circuit.num_cbits());
  for (qmap::Gate gate : circuit) {
    for (int& q : gate.qubits) q = perm[static_cast<std::size_t>(q)];
    out.add(std::move(gate));
  }
  return out;
}

std::vector<qmap::Circuit> make_pool(std::uint64_t seed) {
  namespace wl = qmap::workloads;
  std::vector<qmap::Circuit> pool;
  qmap::Rng rng(qmap::Rng::derive_stream(seed, 0xC17));
  for (int k = 0; k < 26; ++k) {
    const int width = 10 + k % 8;
    pool.push_back(wl::random_clifford_circuit(width, 24 * width, rng));
  }
  const std::uint64_t relabel_seed = qmap::Rng::derive_stream(seed, 0x4E1);
  pool.push_back(relabel(wl::qft(13), relabel_seed + 1));
  pool.push_back(relabel(wl::cuccaro_adder(5), relabel_seed + 2));
  std::shuffle(pool.begin(), pool.end(), rng.engine());
  return pool;
}

struct Setup {
  qmap::Device device;
  std::unique_ptr<qmap::Compiler> compiler;
  std::vector<qmap::Circuit> pool;
  /// Warm-up result of each pool item: the determinism reference.
  std::vector<qmap::CompilationResult> reference;
};

Setup build(std::uint64_t seed) {
  Setup setup{qmap::devices::surface17(), nullptr, make_pool(seed), {}};
  setup.compiler = std::make_unique<qmap::Compiler>(setup.device);
  for (const qmap::Circuit& circuit : setup.pool) {
    setup.reference.push_back(setup.compiler->compile(circuit));
  }
  return setup;
}

/// Per-compile output figures that must repeat exactly for the same input.
bool same_output(const qmap::CompilationResult& a,
                 const qmap::CompilationResult& b) {
  return a.final_metrics.two_qubit_gates == b.final_metrics.two_qubit_gates &&
         a.scheduled_cycles == b.scheduled_cycles &&
         a.final_circuit.size() == b.final_circuit.size();
}

std::string digest(const qmap::CompilationResult& result) {
  return qmap::content_digest(result.fingerprint());
}

/// The passes of Compiler::pipeline(), run by hand on one CompileContext
/// with a span around each call.
class TracedCompiler {
 public:
  TracedCompiler(const qmap::Compiler& compiler, Trace& trace)
      : device_(&compiler.device()),
        passes_(compiler.pipeline().build()),
        trace_(&trace) {
    runtime_.seed = compiler.options().seed;
    runtime_.artifacts = compiler.artifacts();
  }

  qmap::CompilationResult compile(const qmap::Circuit& circuit) {
    const int root = trace_->open("compile", ++op_);
    std::optional<qmap::CompileContext> ctx;
    {
      Scope span(trace_, "context", op_);
      ctx.emplace(circuit, *device_, runtime_);
    }
    double in_passes = 0.0;
    for (const std::unique_ptr<qmap::Pass>& pass : passes_) {
      const std::string name = pass->name();
      const int span = trace_->open(name, op_);
      pass->run(*ctx);
      trace_->close(span);
      const double ms = trace_->spans()[static_cast<std::size_t>(span)].ms();
      layer_ms_[name] += ms;
      in_passes += ms;
      if (name == "decompose") {
        lowered_ += static_cast<double>(ctx->result.lowered.size());
      }
    }
    qmap::CompilationResult result = std::move(ctx->result);
    ctx.reset();
    trace_->close(root);
    const double total = trace_->spans()[static_cast<std::size_t>(root)].ms();
    total_ms_.push_back(total);
    unattributed_ms_.push_back(total - in_passes);
    routed_ += static_cast<double>(result.routing.circuit.size());
    swaps_ += static_cast<double>(result.routing.added_swaps);
    final_ += static_cast<double>(result.final_circuit.size());
    return result;
  }

  /// Per-layer means per compile; fails the result when the layer spans
  /// plus the unattributed time do not add up to the compile span.
  void report(Result& out) const {
    const double n = static_cast<double>(total_ms_.size());
    const double traced = mean(total_ms_);
    const double unattributed = mean(unattributed_ms_);
    double sum = unattributed;
    for (const auto& [name, ms] : layer_ms_) sum += ms / n;
    if (*std::min_element(unattributed_ms_.begin(), unattributed_ms_.end()) <
            0.0 ||
        std::abs(sum - traced) > 1e-6 * traced) {
      out.fail("attribution: layer spans + unattributed != compile span");
    }
    for (const char* name :
         {"decompose", "placer", "router", "postroute", "schedule"}) {
      const auto it = layer_ms_.find(name);
      out.add(std::string(name) + ".ms",
              it == layer_ms_.end() ? 0.0 : it->second / n, "ms");
    }
    out.add("compile.unattributed_ms", unattributed, "ms");
    out.add("compile.traced_ms", traced, "ms");
    out.add("decompose.gates_out", lowered_ / n, "count");
    out.add("router.gates_out", routed_ / n, "count");
    out.add("router.swaps_added", swaps_ / n, "count");
    out.add("postroute.gates_out", final_ / n, "count");
  }

  [[nodiscard]] std::size_t compiles() const { return total_ms_.size(); }
  [[nodiscard]] double mean_ms() const { return mean(total_ms_); }

 private:
  const qmap::Device* device_;
  std::vector<std::unique_ptr<qmap::Pass>> passes_;
  qmap::PipelineRuntime runtime_;
  Trace* trace_;
  std::uint64_t op_ = 0;
  std::map<std::string, double> layer_ms_;
  std::vector<double> total_ms_;
  std::vector<double> unattributed_ms_;
  double lowered_ = 0.0, routed_ = 0.0, swaps_ = 0.0, final_ = 0.0;
};

}  // namespace

Result run_compile_s17(const Args& args) {
  Result out;
  Setup setup;
  Calibration calibration;
  const SetupTime setup_time =
      timed_setup(5, calibration, [&] { setup = build(args.seed); });
  const qmap::Compiler& compiler = *setup.compiler;
  const std::vector<qmap::Circuit>& pool = setup.pool;

  Trace trace;
  std::optional<TracedCompiler> traced;
  if (args.trace) traced.emplace(compiler, trace);

  // The closed loop: round-robin over the pool until the time is up.
  std::vector<Interval> ops;
  std::size_t input_gates = 0;
  Interval loop{Clock::now(), {}};
  const auto until = loop.start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(args.seconds));
  for (std::size_t step = 0; Clock::now() < until; ++step) {
    const std::size_t index = step % pool.size();
    const qmap::Circuit& circuit = pool[index];
    if (step % 4 == 0) calibration.sample();
    ++out.attempted;
    try {
      const auto t0 = Clock::now();
      const qmap::CompilationResult result = compiler.compile(circuit);
      ops.push_back({t0, Clock::now()});
      input_gates += circuit.size();
      if (!same_output(result, setup.reference[index])) {
        out.fail("determinism guard: " + circuit.name() + " changed");
      }
      if (traced) {
        ++out.attempted;
        const qmap::CompilationResult by_hand = traced->compile(circuit);
        if (digest(by_hand) != digest(result)) {
          out.fail("traced fingerprint of " + circuit.name() +
                   " differs from Compiler::compile");
        }
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.notes.push_back("compile of " + circuit.name() + " threw: " +
                          e.what());
    }
  }
  loop.end = Clock::now();

  // Oracle, once per distinct output, outside the timed loop.
  std::size_t final_2q = 0;
  long cycles = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const qmap::CompilationResult& result = setup.reference[i];
    final_2q += result.final_metrics.two_qubit_gates;
    cycles += result.scheduled_cycles;
    ++out.attempted;
    const std::string why =
        oracle_check(result, setup.device, args.seed, args.trace ? &trace : nullptr);
    if (!why.empty()) {
      ++out.failed;
      out.fail("oracle: " + pool[i].name() + ": " + why);
    }
  }
  const int caught = oracle_self_test(args.seed);
  if (caught != 2) {
    out.fail("oracle self-test caught " + std::to_string(caught) +
             " of 2 planted faults");
  }
  out.notes.push_back("oracle self-test: caught " + std::to_string(caught) +
                      " of 2 planted faults (DropLastSwap, FlipLastCx)");

  if (!args.trace) {
    out.notes.push_back("compiles: " + std::to_string(ops.size()) + " over " +
                        std::to_string(pool.size()) +
                        " distinct circuits; latency_ms_tail is p98 (" +
                        std::to_string(ops.size() / 50) +
                        " samples beyond it)");
    add_calibrated_timings(out, calibration, setup_time, ops, 0.98, loop,
                           input_gates);
    out.add("final_2q_gates", static_cast<double>(final_2q), "count");
    out.add("scheduled_cycles", static_cast<double>(cycles), "count");
    return out;
  }

  if (!args.trace_file.empty() && !trace.write(args.trace_file)) {
    out.fail("cannot write trace file " + args.trace_file);
  }
  out.notes.push_back("traced compiles: " +
                      std::to_string(traced->compiles()) +
                      ", each paired with an untraced one; layer times are "
                      "means per compile");
  traced->report(out);
  out.add("calibration.ref_ms", calibration.ref_ms(), "ms");
  out.add("verify.ms", mean(trace.durations_ms("verify")), "ms");
  std::vector<double> untraced_ms;
  for (const Interval& op : ops) untraced_ms.push_back(op.ms());
  out.add("trace.overhead_ms", traced->mean_ms() - mean(untraced_ms), "ms");
  return out;
}

}  // namespace perfbench
