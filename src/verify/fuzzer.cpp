#include "verify/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "decompose/decomposer.hpp"
#include "sim/equivalence.hpp"
#include "sim/stabilizer.hpp"
#include "verify/reproducer.hpp"
#include "workloads/workloads.hpp"

namespace qmap::verify {

std::string failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::None: return "none";
    case FailureKind::Validity: return "validity";
    case FailureKind::Equivalence: return "equivalence";
    case FailureKind::Exception: return "exception";
  }
  return "none";
}

RunOutcome run_strategy(const Circuit& circuit, const Device& device,
                        const FuzzStrategy& strategy, std::uint64_t seed,
                        int trials, FaultInjection fault,
                        int max_statevector_qubits) {
  RunOutcome outcome;
  try {
    CompilerOptions options;
    options.placer = strategy.placer;
    options.router = strategy.router;
    options.seed = seed;
    const Compiler compiler(device, options);
    CompilationResult result;
    if (strategy.finisher) {
      // The facade preset with token_swap_finisher spliced in between
      // router and postroute (all other options at their defaults, which
      // is what the facade uses too).
      PipelineSpec spec;
      spec.append("decompose");
      Json placer_options;
      placer_options["algorithm"] = Json(strategy.placer);
      spec.append("placer", std::move(placer_options));
      Json router_options;
      router_options["algorithm"] = Json(strategy.router);
      spec.append("router", std::move(router_options));
      spec.append("token_swap_finisher");
      spec.append("postroute");
      spec.append("schedule");
      result = compiler.compile(circuit, spec);
    } else {
      result = compiler.compile(circuit);
    }
    inject_fault(result, device, fault);
    outcome.final_gates = result.final_circuit.size();
    outcome.added_swaps = result.routing.added_swaps;

    const ValidityReport validity =
        ValidityChecker(device).check_result(result);
    if (!validity.ok()) {
      outcome.kind = FailureKind::Validity;
      outcome.message = validity.to_string();
      return outcome;
    }

    // Equivalence oracle: exact tableau for Clifford circuits (any
    // width), randomized state-vector otherwise (width-capped).
    if (is_clifford_circuit(result.original) &&
        is_clifford_circuit(result.final_circuit)) {
      outcome.equivalence_checked = true;
      if (!clifford_mapping_equivalent(
              result.original, result.final_circuit,
              result.routing.initial.wire_to_phys(),
              result.routing.final.wire_to_phys())) {
        outcome.kind = FailureKind::Equivalence;
        outcome.message = "Clifford tableau mismatch under the reported "
                          "placements";
      }
    } else if (device.num_qubits() <= max_statevector_qubits) {
      outcome.equivalence_checked = true;
      Rng rng(Rng::derive_stream(seed, 0x5EED));
      if (!mapping_equivalent(result.original, result.final_circuit,
                              result.routing.initial.wire_to_phys(),
                              result.routing.final.wire_to_phys(), rng,
                              trials)) {
        outcome.kind = FailureKind::Equivalence;
        outcome.message = "state-vector mismatch under the reported "
                          "placements (" + std::to_string(trials) +
                          " trials)";
      }
    }
  } catch (const std::exception& e) {
    outcome.kind = FailureKind::Exception;
    outcome.message = e.what();
  }
  return outcome;
}

std::string FuzzFailure::to_string() const {
  return "circuit #" + std::to_string(circuit_index) + " on " + device +
         " via " + strategy.label() + ": " + failure_kind_name(kind) +
         " (" + std::to_string(circuit.size()) + " gates, shrunk to " +
         std::to_string(shrunk.size()) + ")\n  " + message;
}

DifferentialFuzzer::DifferentialFuzzer(std::vector<Device> devices,
                                       FuzzOptions options)
    : devices_(std::move(devices)), options_(std::move(options)) {
  if (devices_.empty()) {
    throw MappingError("DifferentialFuzzer: need at least one device");
  }
  // Fail fast on misspelled strategy names (the factory error lists the
  // valid ones).
  for (const std::string& placer : options_.placers) (void)make_placer(placer);
  for (const std::string& router : options_.routers) (void)make_router(router);
}

std::vector<FuzzStrategy> DifferentialFuzzer::strategies_for(
    const Device& device) const {
  const std::vector<std::string>& placers =
      options_.placers.empty() ? known_placers() : options_.placers;
  const std::vector<std::string>& routers =
      options_.routers.empty() ? known_routers() : options_.routers;
  std::vector<FuzzStrategy> strategies;
  for (const std::string& placer : placers) {
    if (placer == "reliability" && !device.has_noise()) continue;
    if (placer == "exhaustive" &&
        device.num_qubits() > options_.exhaustive_placer_max_device) {
      continue;
    }
    for (const std::string& router : routers) {
      if (router == "reliability" && !device.has_noise()) continue;
      if (router == "shuttle" && !device.supports_shuttling()) continue;
      if (router == "exact" &&
          device.num_qubits() > options_.exact_router_max_device) {
        continue;
      }
      strategies.push_back(FuzzStrategy{placer, router});
      if (std::find(options_.finisher_routers.begin(),
                    options_.finisher_routers.end(),
                    router) != options_.finisher_routers.end()) {
        strategies.push_back(FuzzStrategy{placer, router, /*finisher=*/true});
      }
    }
  }
  return strategies;
}

namespace {

/// One run's identity + outcome, recorded per circuit so the report can
/// be assembled in deterministic (circuit, device, strategy) order no
/// matter which worker ran what.
struct RunRecord {
  std::size_t device_index = 0;
  FuzzStrategy strategy;
  std::uint64_t seed = 0;
  RunOutcome outcome;
};

struct CircuitRecord {
  Circuit circuit;
  std::vector<RunRecord> runs;
};

}  // namespace

FuzzReport DifferentialFuzzer::run() const {
  ThreadPool pool(options_.num_threads);
  return run(pool);
}

FuzzReport DifferentialFuzzer::run(ThreadPool& pool) const {
  const auto t0 = std::chrono::steady_clock::now();
  obs::Observer* const obs = options_.obs;
  obs::Span campaign_span(obs, "fuzz_campaign", "verify");
  if (campaign_span.active()) {
    campaign_span.arg("circuits", std::to_string(options_.num_circuits));
  }
  const std::uint64_t campaign_seq = campaign_span.seq();
  // Strategy sets are device-dependent but circuit-independent; compute
  // once so every worker agrees on the run enumeration (and the derived
  // seeds) without re-deriving it.
  std::vector<std::vector<FuzzStrategy>> per_device;
  per_device.reserve(devices_.size());
  for (const Device& device : devices_) {
    per_device.push_back(strategies_for(device));
  }

  std::vector<CircuitRecord> records(
      static_cast<std::size_t>(options_.num_circuits));
  std::vector<std::future<void>> pending;
  pending.reserve(records.size());
  for (int k = 0; k < options_.num_circuits; ++k) {
    pending.push_back(pool.async([this, &per_device, &records, k, obs,
                                  campaign_seq] {
      // Explicit parent: this pool worker's span stack does not contain
      // the campaign span.
      obs::Span case_span(obs, "fuzz_case", "verify", campaign_seq);
      if (case_span.active()) case_span.arg("index", std::to_string(k));
      const auto case_start = std::chrono::steady_clock::now();
      CircuitRecord& record = records[static_cast<std::size_t>(k)];
      const std::uint64_t circuit_seed =
          Rng::derive_stream(options_.base_seed, static_cast<std::uint64_t>(k));
      Rng rng(circuit_seed);
      const int width = rng.integer(options_.min_qubits, options_.max_qubits);
      const int gates = rng.integer(options_.min_gates, options_.max_gates);
      record.circuit =
          options_.clifford_only
              ? workloads::random_clifford_circuit(
                    width, gates, rng, options_.two_qubit_fraction)
              : workloads::random_circuit(width, gates, rng,
                                          options_.two_qubit_fraction);
      record.circuit.set_name("fuzz" + std::to_string(k));
      std::uint64_t ordinal = 0;
      for (std::size_t d = 0; d < devices_.size(); ++d) {
        for (const FuzzStrategy& strategy : per_device[d]) {
          ++ordinal;  // advance even when skipped: seeds stay aligned
          if (width > devices_[d].num_qubits()) continue;
          RunRecord run;
          run.device_index = d;
          run.strategy = strategy;
          run.seed = Rng::derive_stream(circuit_seed, ordinal);
          run.outcome = run_strategy(record.circuit, devices_[d], strategy,
                                     run.seed, options_.trials,
                                     options_.fault,
                                     options_.max_statevector_qubits);
          record.runs.push_back(std::move(run));
        }
      }
      // Timing histogram: "_ms" names are excluded from fingerprints, so
      // wall-clock jitter here never breaks metrics determinism.
      obs::observe(obs, "fuzz.case_ms",
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - case_start)
                       .count());
    }));
  }
  for (std::future<void>& future : pending) future.get();

  // Deterministic aggregation in (circuit, device, strategy) order.
  FuzzReport report;
  report.circuits = options_.num_circuits;
  report.num_threads = pool.size();
  std::vector<StrategyTally> tallies;
  const auto tally_for = [&tallies](const FuzzStrategy& s) -> StrategyTally& {
    for (StrategyTally& t : tallies) {
      if (t.strategy.placer == s.placer && t.strategy.router == s.router) {
        return t;
      }
    }
    tallies.push_back(StrategyTally{s, 0, 0, 0, 0});
    return tallies.back();
  };
  for (int k = 0; k < options_.num_circuits; ++k) {
    const CircuitRecord& record = records[static_cast<std::size_t>(k)];
    for (const RunRecord& run : record.runs) {
      ++report.runs;
      StrategyTally& tally = tally_for(run.strategy);
      ++tally.runs;
      tally.total_added_swaps += run.outcome.added_swaps;
      if (!run.outcome.equivalence_checked &&
          run.outcome.kind == FailureKind::None) {
        ++tally.equivalence_skipped;
      }
      if (run.outcome.kind == FailureKind::None) continue;
      ++tally.failures;
      FuzzFailure failure;
      failure.circuit_index = k;
      failure.seed = run.seed;
      failure.device = devices_[run.device_index].name();
      failure.strategy = run.strategy;
      failure.kind = run.outcome.kind;
      failure.message = run.outcome.message;
      failure.circuit = record.circuit;
      failure.shrunk = record.circuit;
      if (options_.shrink_failures) {
        const Device& device = devices_[run.device_index];
        const auto still_fails = [&](const Circuit& candidate) {
          return run_strategy(candidate, device, run.strategy, run.seed,
                              options_.trials, options_.fault,
                              options_.max_statevector_qubits)
                     .kind != FailureKind::None;
        };
        const Shrinker::Result shrunk =
            Shrinker().shrink(record.circuit, still_fails);
        failure.shrunk = shrunk.circuit;
        failure.shrink_tests = shrunk.tests;
        // Re-derive the failure the *minimized* circuit exhibits — ddmin
        // accepts any failure kind, so it may differ from the original.
        const RunOutcome final_outcome =
            run_strategy(failure.shrunk, device, run.strategy, run.seed,
                         options_.trials, options_.fault,
                         options_.max_statevector_qubits);
        failure.kind = final_outcome.kind;
        failure.message = final_outcome.message;
      }
      if (!options_.reproducer_dir.empty()) {
        Reproducer repro;
        repro.circuit = failure.shrunk;
        repro.device = failure.device;
        repro.strategy = failure.strategy;
        repro.seed = failure.seed;
        repro.trials = options_.trials;
        repro.fault = options_.fault;
        repro.kind = failure_kind_name(failure.kind);
        repro.message = failure.message;
        const std::string stem =
            "repro_c" + std::to_string(k) + "_" + failure.device + "_" +
            failure.strategy.placer + "_" + failure.strategy.router;
        failure.reproducer_path =
            save_reproducer(repro, options_.reproducer_dir, stem);
      }
      report.failures.push_back(std::move(failure));
    }
  }
  report.tallies = std::move(tallies);
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  // Deterministic post-join aggregation (same totals for any pool size).
  obs::add(obs, "fuzz.campaigns");
  obs::add(obs, "fuzz.circuits", static_cast<std::uint64_t>(report.circuits));
  obs::add(obs, "fuzz.runs", report.runs);
  obs::add(obs, "fuzz.failures", report.failures.size());
  obs::set_gauge(obs, "fuzz.last_wall_ms", report.wall_ms);
  return report;
}

namespace {

Json report_json(const FuzzReport& report, bool include_timing) {
  Json out;
  out["circuits"] = Json(report.circuits);
  out["runs"] = Json(report.runs);
  if (include_timing) {
    out["wall_ms"] = Json(report.wall_ms);
    out["num_threads"] = Json(report.num_threads);
  }
  JsonArray tallies;
  for (const StrategyTally& t : report.tallies) {
    Json entry;
    entry["placer"] = Json(t.strategy.placer);
    entry["router"] = Json(t.strategy.router);
    entry["runs"] = Json(t.runs);
    entry["failures"] = Json(t.failures);
    entry["equivalence_skipped"] = Json(t.equivalence_skipped);
    entry["added_swaps"] = Json(t.total_added_swaps);
    tallies.push_back(std::move(entry));
  }
  out["strategies"] = Json(std::move(tallies));
  JsonArray failures;
  for (const FuzzFailure& f : report.failures) {
    Json entry;
    entry["circuit_index"] = Json(f.circuit_index);
    entry["seed"] = Json(std::to_string(f.seed));
    entry["device"] = Json(f.device);
    entry["placer"] = Json(f.strategy.placer);
    entry["router"] = Json(f.strategy.router);
    entry["kind"] = Json(failure_kind_name(f.kind));
    entry["message"] = Json(f.message);
    entry["gates"] = Json(f.circuit.size());
    entry["shrunk_gates"] = Json(f.shrunk.size());
    if (!f.reproducer_path.empty()) {
      entry["reproducer"] = Json(f.reproducer_path);
    }
    failures.push_back(std::move(entry));
  }
  out["failures"] = Json(std::move(failures));
  return out;
}

}  // namespace

Json FuzzReport::to_json() const { return report_json(*this, true); }

std::string FuzzReport::fingerprint() const {
  return report_json(*this, false).dump();
}

std::string FuzzReport::report() const {
  char buffer[192];
  std::string out;
  std::snprintf(buffer, sizeof(buffer),
                "fuzz: %d circuits, %zu runs, %zu failures, %.1f ms on %d "
                "threads\n",
                circuits, runs, failures.size(), wall_ms, num_threads);
  out += buffer;
  for (const StrategyTally& t : tallies) {
    std::snprintf(buffer, sizeof(buffer),
                  "  %-28s runs %5zu  failures %4zu  eq-skipped %4zu  "
                  "swaps %6zu\n",
                  t.strategy.label().c_str(), t.runs, t.failures,
                  t.equivalence_skipped, t.total_added_swaps);
    out += buffer;
  }
  for (const FuzzFailure& failure : failures) {
    out += "  FAIL " + failure.to_string() + "\n";
  }
  return out;
}

}  // namespace qmap::verify
