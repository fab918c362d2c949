// stream_qx5: a seeded OpenQASM text (a 16-qubit random Clifford circuit of
// 30,000 gates, generated during set-up) is parsed by QasmStreamSource, run
// through PassManager::run_stream with decompose -> identity -> sabre ->
// token_swap_finisher -> postroute on IBM QX5, and written by
// QasmStreamSink into a stream that only hashes the bytes. Each operation
// is one whole streamed compile; they repeat back to back.
//
// There is no schedule pass, so a scheduler change should move nothing
// here; postroute falls back to a materialized circuit, which is what peak
// memory measures.
//
// Output checks: every compile must emit the same bytes (the determinism
// guard). One extra compile outside the timed loop keeps its text, which
// is parsed back and checked by the oracle (ValidityChecker and the exact
// tableau, the input being Clifford); its hash must equal the timed ones.
// final_2q_gates counts the two-qubit gates of that text and
// scheduled_cycles is its dependency-only ASAP latency in QX5 cycles.
//
// Each compile is followed by four Calibration samples; the timing metrics
// (set-up included) are reported calibrated.
//
// Traced run: traced and untraced compiles alternate; a traced one wraps
// the source's pull() and the sink's put calls in spans.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "arch/builtin.hpp"
#include "bench.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "pass/manager.hpp"
#include "qasm/openqasm.hpp"
#include "qasm/stream.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

constexpr int kStreamGates = 30000;

/// An output stream that keeps only the FNV-1a hash of its bytes.
class HashStream : public std::ostream {
 public:
  HashStream() : std::ostream(&buf_) {}
  [[nodiscard]] std::uint64_t hash() const { return buf_.hash; }

 private:
  struct Buf : std::streambuf {
    std::uint64_t hash = qmap::fnv1a64("");
    int_type overflow(int_type ch) override {
      if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        const char c = traits_type::to_char_type(ch);
        hash = qmap::fnv1a64(std::string_view(&c, 1), hash);
      }
      return ch;
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      hash = qmap::fnv1a64(
          std::string_view(s, static_cast<std::size_t>(n)), hash);
      return n;
    }
  };
  Buf buf_;
};

/// Times every pull() of the wrapped source as a "parse" span.
class TimedSource final : public qmap::GateSource {
 public:
  TimedSource(qmap::GateSource& inner, Trace& trace, std::uint64_t op)
      : inner_(&inner), trace_(&trace), op_(op) {}
  [[nodiscard]] int num_qubits() const override { return inner_->num_qubits(); }
  [[nodiscard]] int num_cbits() const override { return inner_->num_cbits(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  std::size_t pull(std::vector<qmap::Gate>& out, std::size_t max) override {
    Scope span(trace_, "parse", op_);
    return inner_->pull(out, max);
  }

 private:
  qmap::GateSource* inner_;
  Trace* trace_;
  std::uint64_t op_;
};

/// Times every put/put_chunk/flush of the wrapped sink as an "emit" span.
class TimedSink final : public qmap::GateSink {
 public:
  TimedSink(qmap::GateSink& inner, Trace& trace, std::uint64_t op)
      : inner_(&inner), trace_(&trace), op_(op) {}
  void put(qmap::Gate gate) override {
    Scope span(trace_, "emit", op_);
    inner_->put(std::move(gate));
  }
  void put_chunk(std::vector<qmap::Gate>& gates) override {
    Scope span(trace_, "emit", op_);
    inner_->put_chunk(gates);
  }
  void flush() override {
    Scope span(trace_, "emit", op_);
    inner_->flush();
  }

 private:
  qmap::GateSink* inner_;
  Trace* trace_;
  std::uint64_t op_;
};

qmap::PipelineSpec stream_spec() {
  qmap::PipelineSpec spec;
  spec.append("decompose");
  qmap::Json placer;
  placer["algorithm"] = qmap::Json(std::string("identity"));
  spec.append("placer", std::move(placer));
  qmap::Json router;
  router["algorithm"] = qmap::Json(std::string("sabre"));
  spec.append("router", std::move(router));
  spec.append("token_swap_finisher");
  spec.append("postroute");
  return spec;
}

struct Setup {
  qmap::Device device;
  std::string text;
  std::unique_ptr<qmap::PassManager> manager;
};

Setup build(std::uint64_t seed) {
  qmap::Rng rng(qmap::Rng::derive_stream(seed, 0x57E));
  Setup setup{qmap::devices::ibm_qx5(),
              qmap::to_openqasm(qmap::workloads::random_clifford_circuit(
                  16, kStreamGates, rng)),
              std::make_unique<qmap::PassManager>(stream_spec())};
  return setup;
}

/// One streamed compile of the setup's text into `out`; with a trace, the
/// source and sink calls are wrapped in spans and the whole compile is a
/// "pipeline" span.
qmap::StreamReport compile_once(const Setup& setup, std::ostream& out,
                                Trace* trace, std::uint64_t op) {
  std::istringstream in(setup.text);
  qmap::QasmStreamSource source(in, "stream");
  qmap::QasmStreamSink sink(out, setup.device.num_qubits(), source.num_cbits());
  const qmap::PipelineRuntime runtime;
  if (trace == nullptr) {
    return setup.manager->run_stream(source, setup.device, sink, runtime);
  }
  TimedSource timed_source(source, *trace, op);
  TimedSink timed_sink(sink, *trace, op);
  Scope span(trace, "pipeline", op);
  return setup.manager->run_stream(timed_source, setup.device, timed_sink,
                                   runtime);
}

/// Dependency-only ASAP latency of `circuit` in device cycles.
long asap_cycles(const qmap::Circuit& circuit, const qmap::Device& device) {
  std::vector<long> available(static_cast<std::size_t>(circuit.num_qubits()),
                              0);
  long total = 0;
  for (const qmap::Gate& gate : circuit) {
    long start = 0;
    for (const int q : gate.qubits) {
      start = std::max(start, available[static_cast<std::size_t>(q)]);
    }
    const long end = start + device.cycles_for(gate);
    for (const int q : gate.qubits) available[static_cast<std::size_t>(q)] = end;
    total = std::max(total, end);
  }
  return total;
}

/// Sum of the durations of the named spans of one op, averaged over ops.
double per_op_ms(const Trace& trace, const std::string& name,
                 std::size_t ops) {
  double total = 0.0;
  for (const double ms : trace.durations_ms(name)) total += ms;
  return ops > 0 ? total / static_cast<double>(ops) : 0.0;
}

}  // namespace

Result run_stream_qx5(const Args& args) {
  Result out;
  Setup setup;
  Calibration calibration;
  const SetupTime setup_time =
      timed_setup(5, calibration, [&] { setup = build(args.seed); });

  Trace trace;
  std::vector<Interval> ops;
  std::vector<double> traced_ms;
  std::size_t input_gates = 0;
  std::optional<std::uint64_t> first_hash;
  qmap::StreamStats stats;
  Interval loop{Clock::now(), {}};
  const auto until = loop.start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(args.seconds));
  for (std::uint64_t op = 0; Clock::now() < until; ++op) {
    const bool traced = args.trace && op % 2 == 1;
    ++out.attempted;
    try {
      HashStream hashed;
      const auto t0 = Clock::now();
      const qmap::StreamReport report =
          compile_once(setup, hashed, traced ? &trace : nullptr, op);
      if (traced) {
        traced_ms.push_back(ms_between(t0, Clock::now()));
      } else {
        ops.push_back({t0, Clock::now()});
      }
      input_gates += report.stream.gates_in;
      stats = report.stream;
      if (!first_hash) first_hash = hashed.hash();
      if (hashed.hash() != *first_hash) {
        out.fail("determinism guard: streamed output bytes changed");
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.notes.push_back(std::string("streamed compile threw: ") + e.what());
    }
    for (int i = 0; i < 4; ++i) calibration.sample();
  }
  loop.end = Clock::now();

  // Oracle: one more compile, keeping the text this time.
  ++out.attempted;
  std::ostringstream text;
  const qmap::StreamReport report =
      compile_once(setup, text, nullptr, 0);
  if (first_hash && qmap::fnv1a64(text.str()) != *first_hash) {
    out.fail("oracle compile emitted different bytes than the timed loop");
  }
  qmap::CompilationResult result;
  result.original = qmap::parse_openqasm(setup.text);
  result.final_circuit = qmap::parse_openqasm(text.str());
  result.routing.initial = report.result.routing.initial;
  result.routing.final = report.result.routing.final;
  const std::string why = oracle_check(result, setup.device, args.seed,
                                       args.trace ? &trace : nullptr);
  if (!why.empty()) {
    ++out.failed;
    out.fail("oracle: streamed output: " + why);
  }
  std::size_t final_2q = 0;
  for (const qmap::Gate& gate : result.final_circuit) {
    if (gate.is_two_qubit()) ++final_2q;
  }
  const int caught = oracle_self_test(args.seed);
  if (caught != 2) {
    out.fail("oracle self-test caught " + std::to_string(caught) +
             " of 2 planted faults");
  }

  if (!args.trace) {
    out.notes.push_back(
        "streamed compiles: " + std::to_string(ops.size()) + " of " +
        std::to_string(stats.gates_in) +
        " input gates; latency_ms_tail is p90 (too few compiles for ten "
        "samples beyond any percentile)");
    add_calibrated_timings(out, calibration, setup_time, ops, 0.9, loop,
                           input_gates);
    out.add("final_2q_gates", static_cast<double>(final_2q), "count");
    out.add("scheduled_cycles",
            static_cast<double>(asap_cycles(result.final_circuit, setup.device)),
            "count");
    return out;
  }

  const std::size_t traced_ops = traced_ms.size();
  out.notes.push_back("traced compiles: " + std::to_string(traced_ops) +
                      ", untraced: " + std::to_string(ops.size()));
  out.add("qasm.parse_ms", per_op_ms(trace, "parse", traced_ops), "ms");
  out.add("qasm.emit_ms", per_op_ms(trace, "emit", traced_ops), "ms");
  out.add("stream.pipeline_ms", per_op_ms(trace, "pipeline", traced_ops), "ms");
  out.add("stream.window_peak_gates",
          static_cast<double>(stats.window_peak_gates), "count");
  out.add("stream.materialized_passes",
          static_cast<double>(stats.materialized_passes.size()), "count");
  out.add("verify.ms", mean(trace.durations_ms("verify")), "ms");
  std::vector<double> untraced_ms;
  for (const Interval& op : ops) untraced_ms.push_back(op.ms());
  out.add("trace.overhead_ms", mean(traced_ms) - mean(untraced_ms), "ms");
  out.add("calibration.ref_ms", calibration.ref_ms(), "ms");
  if (!args.trace_file.empty() && !trace.write(args.trace_file)) {
    out.fail("cannot write trace file " + args.trace_file);
  }
  return out;
}

}  // namespace perfbench
