// serve_mixed: one generator thread keeps at most four requests outstanding
// to an in-process CompileService (two dispatcher threads, two compile
// threads), in a closed loop, from sixteen client ids. Requests come in
// cycles of twenty, shuffled by the seed:
//
//   12  a fresh 5- or 6-qubit random Clifford circuit on Surface-17 asking for
//       the full portfolio race, with deadline_ms = 300;
//    3  a fresh 10-16-qubit random Clifford circuit pinned to the default
//       pipeline, alternating Surface-17 and IBM QX5;
//    5  a repeat of an earlier request, answered from the cache (or
//       coalesced onto the compile still in flight).
//
// The median and the tail request are portfolio races, whose length the
// deadline and the exact tier set; the timing metrics are therefore
// reported as measured, not calibrated (only setup_s is, from samples
// taken while the service is idle).
//
// Output checks: every response must be status "ok" and validated by the
// service, and every hit must replay the fingerprint of the compile it
// repeats. After the timed window, 24 fixed pinned reference requests
// are answered verbosely; each is reproduced with a ResilientCompiler under
// the same policy, its fingerprint must equal the service's, and the
// reproduced result goes through the oracle. final_2q_gates and
// scheduled_cycles are summed over these references only: portfolio
// answers depend on timing through the deadline.
//
// Traced run: every other request is verbose; the engine and service
// per-layer figures are parsed from those responses.
#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arch/builtin.hpp"
#include "bench.hpp"
#include "common/digest.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "qasm/openqasm.hpp"
#include "resilience/resilience.hpp"
#include "service/service.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

namespace svc = qmap::service;

constexpr double kPortfolioDeadlineMs = 300.0;
constexpr int kMaxOutstanding = 2;
constexpr int kClients = 16;
constexpr std::size_t kPregenerated = 400;
constexpr std::size_t kReferences = 24;
// One cycle of the request sequence: 'p'ortfolio, pi'n'ned, 'r'epeat.
constexpr char kCycle[] = "ppppppppppppnnnrrrrr";

struct Item {
  svc::ServiceRequest request;
  std::size_t input_gates = 0;
};

Item portfolio_item(std::uint64_t seed, std::size_t index) {
  qmap::Rng rng(qmap::Rng::derive_stream(seed, 0x50000 + index));
  const int width = 5 + static_cast<int>(index % 2);
  const qmap::Circuit circuit =
      qmap::workloads::random_clifford_circuit(width, 8 * width, rng);
  Item item;
  item.request.device = "surface17";
  item.request.qasm = qmap::to_openqasm(circuit);
  item.request.deadline_ms = kPortfolioDeadlineMs;
  item.input_gates = circuit.size();
  return item;
}

Item pinned_item(std::uint64_t seed, std::size_t index) {
  qmap::Rng rng(qmap::Rng::derive_stream(seed, 0x90000 + index));
  const int width = 10 + static_cast<int>(index % 7);
  const qmap::Circuit circuit =
      qmap::workloads::random_clifford_circuit(width, 20 * width, rng);
  Item item;
  item.request.device = index % 2 == 0 ? "surface17" : "ibm_qx5";
  item.request.qasm = qmap::to_openqasm(circuit);
  item.request.pipeline = qmap::PipelineSpec::standard();
  item.input_gates = circuit.size();
  return item;
}

/// Fresh items by index: pre-generated during set-up, generated on demand
/// past the end (same function, so the sequence never depends on speed).
class ItemPool {
 public:
  using Make = Item (*)(std::uint64_t, std::size_t);
  ItemPool(std::uint64_t seed, Make make) : seed_(seed), make_(make) {
    for (std::size_t i = 0; i < kPregenerated; ++i) {
      items_.push_back(make_(seed_, i));
    }
  }
  const Item& at(std::size_t index) {
    while (items_.size() <= index) items_.push_back(make_(seed_, items_.size()));
    return items_[index];
  }

 private:
  std::uint64_t seed_;
  Make make_;
  std::vector<Item> items_;
};

struct Setup {
  std::unique_ptr<svc::CompileService> service;
  std::unique_ptr<ItemPool> portfolio;
  std::unique_ptr<ItemPool> pinned;
};

svc::ServiceConfig service_config() {
  svc::ServiceConfig config;
  config.num_workers = 2;
  config.num_compile_threads = 2;
  return config;
}

Setup build(std::uint64_t seed) {
  Setup setup;
  setup.service = std::make_unique<svc::CompileService>(service_config());
  setup.portfolio = std::make_unique<ItemPool>(seed, portfolio_item);
  setup.pinned = std::make_unique<ItemPool>(seed, pinned_item);
  return setup;
}

struct Completion {
  std::size_t key = 0;  // index of the cold request this one asks for
  bool verbose = false;
  Clock::time_point submitted;
  Clock::time_point answered;
  svc::ServiceResponse response;
};

/// Engine and service figures parsed from verbose responses.
void report_layers(const std::vector<Completion>& done,
                   const std::vector<Item>& keys, Trace& trace, Result& out) {
  std::vector<double> race_ms, queue_ms, miss_ms, verbose_ms, plain_ms;
  double strategy_ms = 0, exact_ms = 0, winner_ms = 0;
  double strategies = 0, cancelled = 0, hits = 0, coalesced = 0;
  for (const Completion& c : done) {
    const double client_ms = ms_between(c.submitted, c.answered);
    trace.record("request", c.submitted, c.answered, c.key);
    queue_ms.push_back(client_ms - c.response.wall_ms);
    (c.verbose ? verbose_ms : plain_ms).push_back(client_ms);
    if (c.response.cache == "hit") ++hits;
    if (c.response.cache == "coalesced") ++coalesced;
    if (c.response.cache != "miss") continue;
    miss_ms.push_back(client_ms);
    if (!c.verbose || c.response.payload.is_null()) continue;
    for (const qmap::Json& rung : c.response.payload.at("rungs").as_array()) {
      if (rung.at("rung").as_int() != 0 || rung.at("skipped").as_bool()) {
        continue;
      }
      const qmap::JsonArray& attempts = rung.at("attempts").as_array();
      if (!attempts.empty()) {
        race_ms.push_back(attempts.back().at("wall_ms").as_number());
      }
      const qmap::Json* list = rung.find("strategies");
      if (list == nullptr) continue;
      for (const qmap::Json& s : list->as_array()) {
        if (s.at("status").as_string() == "skipped") continue;
        const double ms = s.at("wall_ms").as_number();
        ++strategies;
        strategy_ms += ms;
        if (s.at("router").as_string() == "exact") exact_ms += ms;
        if (s.at("winner").as_bool()) winner_ms += ms;
        if (s.at("status").as_string() == "cancelled") ++cancelled;
      }
    }
  }
  // Canonicalization: every request parses and re-serializes its text to
  // form the cache key; timed here on each distinct text.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Scope span(&trace, "canonicalize", i);
    const std::string text =
        qmap::to_openqasm(qmap::parse_openqasm(keys[i].request.qasm));
    if (text.empty()) out.fail("canonical text is empty");
  }
  const double n = static_cast<double>(done.size());
  out.add("engine.race_ms_p50", quantile(race_ms, 0.5), "ms");
  out.add("engine.exact_ms_share", strategy_ms > 0 ? exact_ms / strategy_ms : 0,
          "share");
  out.add("engine.cancelled_share",
          strategies > 0 ? cancelled / strategies : 0, "share");
  out.add("engine.useful_share",
          strategy_ms > 0 ? winner_ms / strategy_ms : 0, "share");
  out.add("service.queue_wait_ms_p50", quantile(queue_ms, 0.5), "ms");
  out.add("service.miss_ms_p50", quantile(miss_ms, 0.5), "ms");
  out.add("service.hit_share", hits / n, "share");
  out.add("service.coalesced_share", coalesced / n, "share");
  out.add("qasm.canonicalize_ms", mean(trace.durations_ms("canonicalize")),
          "ms");
  out.add("trace.overhead_ms", mean(verbose_ms) - mean(plain_ms), "ms");
  out.notes.push_back("traced requests: " + std::to_string(done.size()) +
                      " (" + std::to_string(verbose_ms.size()) +
                      " verbose), portfolio races parsed: " +
                      std::to_string(race_ms.size()));
}

}  // namespace

Result run_serve_mixed(const Args& args) {
  Result out;
  Setup setup;
  Calibration calibration;
  const SetupTime setup_time =
      timed_setup(5, calibration, [&] { setup = build(args.seed); });
  svc::CompileService& service = *setup.service;

  std::mutex mutex;
  std::condition_variable changed;
  int outstanding = 0;
  std::vector<Completion> done;

  // keys[k]: the k-th cold request issued; repeats re-send one of them.
  std::vector<Item> keys;
  std::size_t next_portfolio = 0, next_pinned = 0;
  qmap::Rng sequence(qmap::Rng::derive_stream(args.seed, 0x5E0));
  std::string cycle = kCycle;

  const auto start = Clock::now();
  const auto until = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(args.seconds));
  for (std::size_t i = 0; Clock::now() < until; ++i) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      changed.wait(lock, [&] { return outstanding < kMaxOutstanding; });
      ++outstanding;
    }
    if (i % cycle.size() == 0) {
      std::shuffle(cycle.begin(), cycle.end(), sequence.engine());
    }
    const char kind = cycle[i % cycle.size()];
    std::size_t key = 0;
    if (kind == 'r' && !keys.empty()) {
      key = sequence.index(keys.size());
    } else {
      keys.push_back(kind == 'n' ? setup.pinned->at(next_pinned++)
                                 : setup.portfolio->at(next_portfolio++));
      key = keys.size() - 1;
    }
    Completion completion;
    completion.key = key;
    completion.verbose = args.trace && i % 2 == 1;
    svc::ServiceRequest request = keys[key].request;
    request.id = std::to_string(i);
    request.client = "client-" + std::to_string(i % kClients);
    request.verbose = completion.verbose;
    completion.submitted = Clock::now();
    service.submit(std::move(request),
                   [&, completion](svc::ServiceResponse response) mutable {
                     completion.answered = Clock::now();
                     completion.response = std::move(response);
                     std::lock_guard<std::mutex> lock(mutex);
                     done.push_back(std::move(completion));
                     --outstanding;
                     changed.notify_all();
                   });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return outstanding == 0; });
  }
  const double wall_s = ms_between(start, Clock::now()) / 1000.0;

  // Every response: ok, validated, and a repeat replays its key's answer.
  std::vector<double> latency_ms;
  std::size_t input_gates = 0;
  std::map<std::size_t, std::string> fingerprint_of;
  out.attempted = done.size();
  for (const Completion& c : done) {
    const svc::ServiceResponse& r = c.response;
    latency_ms.push_back(ms_between(c.submitted, c.answered));
    if (r.status != "ok" || !r.validated) {
      ++out.failed;
      out.notes.push_back("request " + r.id + ": status " + r.status + " " +
                          r.error);
      continue;
    }
    input_gates += keys[c.key].input_gates;
    const auto [it, inserted] = fingerprint_of.emplace(c.key, r.fingerprint);
    if (!inserted && it->second != r.fingerprint) {
      ++out.failed;
      out.fail("request " + r.id + " replayed a different fingerprint");
    }
  }

  // Reference requests: fixed pinned items, answered verbosely, reproduced
  // and checked by the oracle.
  Trace trace;
  std::size_t final_2q = 0;
  long cycles = 0;
  for (std::size_t i = 0; i < kReferences; ++i) {
    ++out.attempted;
    svc::ServiceRequest request = pinned_item(args.seed, i).request;
    request.client = "reference";
    request.verbose = true;
    const svc::ServiceResponse response = service.handle(request);
    if (response.status != "ok" || response.payload.is_null()) {
      ++out.failed;
      out.fail("reference " + std::to_string(i) + ": status " +
               response.status);
      continue;
    }
    const qmap::Json& mapped = response.payload.at("result");
    final_2q += static_cast<std::size_t>(
        mapped.at("mapped").at("two_qubit_gates").as_number());
    cycles += mapped.at("scheduled_cycles").as_int();

    qmap::resilience::Policy policy = service.config().policy;
    policy.seed = request.seed;
    policy.rung1_pipeline = request.pipeline->canonical();
    policy.first_rung = 1;
    const qmap::Circuit circuit = qmap::parse_openqasm(request.qasm);
    qmap::Device device = qmap::devices::surface17();
    if (request.device == "ibm_qx5") device = qmap::devices::ibm_qx5();
    const qmap::resilience::CompileOutcome outcome =
        qmap::resilience::ResilientCompiler(device, policy).compile(circuit);
    if (qmap::content_digest(outcome.fingerprint()) != response.fingerprint) {
      out.fail("reference " + std::to_string(i) +
               ": reproduced fingerprint differs from the service's");
    }
    const std::string why = oracle_check(outcome.result, device, args.seed,
                                         args.trace ? &trace : nullptr);
    if (!why.empty()) {
      ++out.failed;
      out.fail("oracle: reference " + std::to_string(i) + ": " + why);
    }
  }
  const int caught = oracle_self_test(args.seed);
  if (caught != 2) {
    out.fail("oracle self-test caught " + std::to_string(caught) +
             " of 2 planted faults");
  }

  if (!args.trace) {
    const std::size_t n = latency_ms.size();
    out.notes.push_back("requests: " + std::to_string(n) + " (" +
                        std::to_string(keys.size()) +
                        " distinct); latency_ms_tail is p95 (" +
                        std::to_string(n / 20) + " samples beyond it)");
    out.notes.push_back("calibration: reference kernel " +
                        std::to_string(calibration.ref_ms()) +
                        " ms; raw setup_s " +
                        std::to_string(setup_time.raw_s));
    out.add("setup_s", setup_time.calibrated_s, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("latency_ms_p50", quantile(latency_ms, 0.5), "ms");
    out.add("latency_ms_tail", quantile(latency_ms, 0.95), "ms");
    out.add("ops_per_s", static_cast<double>(n) / wall_s, "1/s");
    out.add("input_gates_per_s", static_cast<double>(input_gates) / wall_s,
            "1/s");
    out.add("final_2q_gates", static_cast<double>(final_2q), "count");
    out.add("scheduled_cycles", static_cast<double>(cycles), "count");
    return out;
  }
  report_layers(done, keys, trace, out);
  out.add("calibration.ref_ms", calibration.ref_ms(), "ms");
  out.add("verify.ms", mean(trace.durations_ms("verify")), "ms");
  if (!args.trace_file.empty() && !trace.write(args.trace_file)) {
    out.fail("cannot write trace file " + args.trace_file);
  }
  return out;
}

}  // namespace perfbench
