#include "resilience/resilience.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "engine/cancel.hpp"
#include "qasm/openqasm.hpp"
#include "verify/validity.hpp"

namespace qmap::resilience {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string format_ms(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", ms);
  return buffer;
}

// Distinct stream tags so no two consumers of the policy seed collide.
constexpr std::uint64_t kFaultStream = 0xFA170000;
constexpr std::uint64_t kBackoffStream = 0xB0FF0000;
constexpr std::uint64_t kRungStream = 0x1A000000;

}  // namespace

Json AttemptReport::to_json() const {
  Json out;
  out["attempt"] = Json(attempt);
  out["ok"] = Json(ok);
  if (!ok) {
    out["error_class"] = Json(std::string(error_class_name(error_class)));
    out["error"] = Json(error);
  }
  out["backoff_ms"] = Json(backoff_ms);
  out["wall_ms"] = Json(wall_ms);
  if (!injected_faults.empty()) {
    JsonArray faults;
    for (const std::string& f : injected_faults) faults.push_back(Json(f));
    out["injected_faults"] = Json(std::move(faults));
  }
  return out;
}

Json RungReport::to_json() const {
  Json out;
  out["rung"] = Json(rung);
  out["label"] = Json(label);
  out["ok"] = Json(ok);
  out["skipped"] = Json(skipped);
  JsonArray attempt_list;
  for (const AttemptReport& a : attempts) attempt_list.push_back(a.to_json());
  out["attempts"] = Json(std::move(attempt_list));
  if (!strategies.empty()) {
    JsonArray strategy_list;
    for (const StrategyTelemetry& t : strategies) {
      strategy_list.push_back(t.to_json());
    }
    out["strategies"] = Json(std::move(strategy_list));
  }
  return out;
}

std::string CompileOutcome::report() const {
  std::string out = "admission: " + admission.to_string() + "\n";
  for (const RungReport& rr : rungs) {
    out += "rung " + std::to_string(rr.rung) + " (" + rr.label + "): ";
    if (rr.skipped) {
      out += "skipped\n";
      continue;
    }
    out += rr.ok ? "ok" : "failed";
    out += "\n";
    for (const AttemptReport& a : rr.attempts) {
      out += "  attempt " + std::to_string(a.attempt);
      if (a.backoff_ms > 0.0) {
        out += " (after " + format_ms(a.backoff_ms) + " ms backoff)";
      }
      out += ": ";
      out += a.ok ? "ok" : (std::string(error_class_name(a.error_class)) +
                            " — " + a.error);
      out += " [" + format_ms(a.wall_ms) + " ms]";
      if (!a.injected_faults.empty()) {
        out += " faults: " + join(a.injected_faults, ", ");
      }
      out += "\n";
    }
  }
  if (ok) {
    out += "result: rung " + std::to_string(rung) + ", " + winner_label +
           (degraded() ? " (degraded)" : "") +
           (validated ? ", validated" : ", not re-validated") + ", " +
           std::to_string(total_retries) + " retries\n";
  } else {
    out += "result: FAILED — " + error + "\n";
  }
  return out;
}

Json CompileOutcome::to_json() const {
  Json out;
  out["ok"] = Json(ok);
  out["admission"] = admission.to_json();
  out["rung"] = Json(rung);
  out["winner"] = Json(winner_label);
  out["degraded"] = Json(degraded());
  out["total_retries"] = Json(total_retries);
  out["validated"] = Json(validated);
  JsonArray faults;
  for (const std::string& f : injected_faults) faults.push_back(Json(f));
  out["injected_faults"] = Json(std::move(faults));
  JsonArray rung_list;
  for (const RungReport& rr : rungs) rung_list.push_back(rr.to_json());
  out["rungs"] = Json(std::move(rung_list));
  out["wall_ms"] = Json(wall_ms);
  if (!ok) out["error"] = Json(error);
  if (ok) out["result"] = result.to_json();
  return out;
}

std::string CompileOutcome::fingerprint() const {
  // Everything decision-shaped, nothing clock-shaped: wall times and
  // backoff delays are excluded, attempt/fault/rung structure is included.
  std::string out;
  out += "admission " + admission_verdict_name(admission.verdict) + "\n";
  out += "ok " + std::to_string(ok ? 1 : 0) + "\n";
  out += "rung " + std::to_string(rung) + " " + winner_label + "\n";
  out += "retries " + std::to_string(total_retries) + "\n";
  out += "validated " + std::to_string(validated ? 1 : 0) + "\n";
  out += "faults " + join(injected_faults, ",") + "\n";
  for (const RungReport& rr : rungs) {
    out += "r" + std::to_string(rr.rung);
    if (rr.skipped) {
      out += " skipped\n";
      continue;
    }
    for (const AttemptReport& a : rr.attempts) {
      out += " ";
      out += a.ok ? "ok" : error_class_name(a.error_class);
      if (!a.injected_faults.empty()) {
        out += "[" + join(a.injected_faults, ",") + "]";
      }
    }
    out += "\n";
  }
  if (ok) {
    out += "scheduled_cycles " + std::to_string(result.scheduled_cycles) +
           "\ninitial";
    for (const int p : result.routing.initial.wire_to_phys()) {
      out += " " + std::to_string(p);
    }
    out += "\nfinal";
    for (const int p : result.routing.final.wire_to_phys()) {
      out += " " + std::to_string(p);
    }
    out += "\n" + to_openqasm(result.final_circuit);
  }
  return out;
}

ResilientCompiler::ResilientCompiler(Device device, Policy policy)
    : device_(std::move(device)),
      policy_(std::move(policy)),
      num_strategies_(policy_.portfolio.empty()
                          ? PortfolioCompiler::default_portfolio(device_).size()
                          : policy_.portfolio.size()),
      guard_(device_, policy_.budget),
      rung1_(policy_.rung1_pipeline.value_or(PipelineSpec::standard())),
      rung2_(PipelineSpec::standard("identity", "naive")) {
  // Fail on nonsense now, not three rungs deep into a compile. Building
  // rung1_ above already validated the rung-1 pipeline.
  for (const StrategySpec& spec : policy_.portfolio) {
    (void)make_placer(spec.placer);
    (void)make_router(spec.router);
  }
  (void)FaultInjector(policy_.faults);  // validates fault-point names
  if (policy_.max_retries_per_rung < 0) {
    throw MappingError("resilience policy: max_retries_per_rung < 0");
  }
  if (policy_.first_rung < 0 || policy_.first_rung > 2) {
    throw MappingError("resilience policy: first_rung must be 0, 1, or 2");
  }
}

AdmissionReport ResilientCompiler::assess(const Circuit& circuit) const {
  return guard_.assess(circuit, num_strategies_, policy_.deadline_ms);
}

CompileOutcome ResilientCompiler::compile(const Circuit& circuit) const {
  ThreadPool pool(policy_.num_threads);
  return compile_(circuit, pool, policy_.seed);
}

CompileOutcome ResilientCompiler::compile(const Circuit& circuit,
                                          ThreadPool& pool) const {
  return compile_(circuit, pool, policy_.seed);
}

std::vector<CompileOutcome> ResilientCompiler::compile_batch(
    const std::vector<Circuit>& circuits) const {
  ThreadPool pool(policy_.num_threads);
  std::vector<CompileOutcome> outcomes;
  outcomes.reserve(circuits.size());
  for (std::size_t k = 0; k < circuits.size(); ++k) {
    // compile_ contains failures by design; the catch is the batch-level
    // belt over those suspenders so a poisoned item can never sink its
    // siblings even if the supervisor itself misbehaves.
    try {
      outcomes.push_back(
          compile_(circuits[k], pool, Rng::derive_stream(policy_.seed, k)));
    } catch (const std::exception& e) {
      CompileOutcome failed;
      failed.error = e.what();
      outcomes.push_back(std::move(failed));
    } catch (...) {
      CompileOutcome failed;
      failed.error = "unknown exception";
      outcomes.push_back(std::move(failed));
    }
  }
  return outcomes;
}

CompileOutcome ResilientCompiler::compile_(const Circuit& circuit,
                                           ThreadPool& pool,
                                           std::uint64_t seed) const {
  const Clock::time_point start = Clock::now();
  CompileOutcome outcome;

  obs::Observer* const obs = policy_.obs;
  obs::Span root_span(obs, "resilient_compile", "resilience");
  if (root_span.active()) root_span.arg("circuit", circuit.name());
  obs::add(obs, "resilience.compiles");

  const CancelToken* const client_cancel = policy_.cancel;
  const auto client_cancelled = [client_cancel] {
    return client_cancel != nullptr && client_cancel->cancelled();
  };
  if (client_cancelled()) {
    outcome.error = "cancelled by caller before admission";
    outcome.wall_ms = ms_since(start);
    obs::add(obs, "resilience.cancelled");
    return outcome;
  }

  outcome.admission = assess(circuit);
  if (!outcome.admission.admitted()) {
    outcome.error =
        "rejected at admission: " + join(outcome.admission.reasons, "; ");
    outcome.wall_ms = ms_since(start);
    obs::add(obs, "resilience.admission_rejections");
    return outcome;
  }
  const int first_rung = std::max(
      policy_.first_rung,
      outcome.admission.verdict == AdmissionVerdict::DownTier ? 1 : 0);

  const FaultInjector injector(policy_.faults,
                               Rng::derive_stream(seed, kFaultStream));
  Backoff backoff(policy_.backoff, Rng::derive_stream(seed, kBackoffStream));
  const verify::ValidityChecker checker(device_);

  const bool has_deadline = policy_.deadline_ms > 0.0;
  const auto remaining_ms = [&] {
    return policy_.deadline_ms - ms_since(start);
  };

  for (int rung = 0; rung < 3; ++rung) {
    RungReport rr;
    rr.rung = rung;
    const PassManager& pipeline = rung == 1 ? rung1_ : rung2_;
    rr.label = rung == 0 ? "portfolio" : pipeline.spec().label();
    const bool shielded = rung == 2 && policy_.shield_last_rung;
    // Explicit caller cancellation stops the ladder even ahead of the
    // shielded rung: it is a request, not a failure, so the never-fails
    // guarantee is not owed to a caller who hung up.
    const bool cancelled_now = !outcome.ok && client_cancelled();
    if (cancelled_now && outcome.error.empty()) {
      outcome.error = "cancelled by caller";
      obs::add(obs, "resilience.cancelled");
    }
    if (outcome.ok || cancelled_now || rung < first_rung ||
        (rung < 2 && has_deadline && remaining_ms() <= 0.0)) {
      rr.skipped = true;
      outcome.rungs.push_back(std::move(rr));
      continue;
    }

    obs::Span rung_span(obs, "rung" + std::to_string(rung), "resilience");
    if (rung_span.active()) rung_span.arg("label", rr.label);

    for (int attempt = 0; attempt <= policy_.max_retries_per_rung;
         ++attempt) {
      if (client_cancelled()) {
        if (outcome.error.empty()) {
          outcome.error = "cancelled by caller";
          obs::add(obs, "resilience.cancelled");
        }
        break;
      }
      AttemptReport ar;
      ar.attempt = attempt;
      obs::Span attempt_span(obs, "attempt", "resilience");
      if (attempt_span.active()) {
        attempt_span.arg("rung", std::to_string(rung));
        attempt_span.arg("attempt", std::to_string(attempt));
      }
      if (attempt > 0) {
        double delay = backoff.next_ms();
        if (has_deadline) delay = std::min(delay, std::max(0.0, remaining_ms()));
        if (delay > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay));
        }
        ar.backoff_ms = delay;
        ++outcome.total_retries;
      }
      const Clock::time_point attempt_start = Clock::now();

      // Corruption + validation shared by every rung's success path. On a
      // failed audit the attempt is recorded Permanent: re-running the
      // same deterministic pipeline reproduces the corruption, so the
      // ladder falls back instead of retrying.
      const auto accept = [&](CompilationResult candidate, int strategy,
                              std::string label) {
        if (!shielded) {
          (void)injector.corrupt(candidate, device_, rung, strategy, attempt);
        }
        const verify::ValidityReport audit = checker.check_result(candidate);
        if (!audit.ok()) {
          ar.ok = false;
          ar.error_class = ErrorClass::Permanent;
          ar.error = "result failed post-validation: " +
                     audit.violations.front().to_string() +
                     (audit.violations.size() > 1
                          ? " (+" +
                                std::to_string(audit.violations.size() - 1) +
                                " more)"
                          : "");
          return;
        }
        ar.ok = true;
        outcome.ok = true;
        outcome.rung = rung;
        outcome.winner_label = std::move(label);
        outcome.validated = true;
        outcome.result = std::move(candidate);
      };

      try {
        if (rung == 0) {
          PortfolioOptions popt;
          popt.strategies = policy_.portfolio;
          popt.num_threads = policy_.num_threads;
          popt.base_seed = Rng::derive_stream(
              seed, kRungStream + static_cast<std::uint64_t>(attempt));
          popt.obs = obs;
          popt.cancel = client_cancel;
          if (has_deadline) {
            popt.portfolio_deadline_ms =
                std::min(policy_.deadline_ms * kRung0DeadlineFraction,
                         std::max(0.0, remaining_ms()));
          }
          if (!injector.empty()) {
            const FaultInjector* inj = &injector;
            popt.stage_hook = [inj, rung, attempt](const char* stage,
                                                   int strategy) {
              inj->at_stage(stage, rung, strategy, attempt);
            };
          }
          const PortfolioCompiler racer(device_, popt);
          PortfolioResult pr = racer.try_compile(circuit, pool);
          rr.strategies = pr.telemetry;
          if (pr.winner_index >= 0) {
            accept(std::move(pr.best), pr.winner_index,
                   std::move(pr.winner_label));
          } else {
            // Classify the whole race from the per-strategy evidence: any
            // transient loss means a retry could win; otherwise resource
            // exhaustion dominates permanence.
            ar.ok = false;
            ar.error_class = ErrorClass::Permanent;
            bool any_resource = false;
            for (const StrategyTelemetry& t : pr.telemetry) {
              if (t.status == StrategyTelemetry::Status::Completed ||
                  t.status == StrategyTelemetry::Status::Skipped) {
                continue;
              }
              if (t.error_class == ErrorClass::Transient) {
                ar.error_class = ErrorClass::Transient;
                break;
              }
              any_resource =
                  any_resource || t.error_class == ErrorClass::ResourceExhausted;
            }
            if (ar.error_class != ErrorClass::Transient && any_resource) {
              ar.error_class = ErrorClass::ResourceExhausted;
            }
            ar.error = "no strategy completed (" +
                       std::to_string(pr.cancelled_count()) + " cancelled, " +
                       std::to_string(pr.telemetry.size() -
                                      pr.cancelled_count() -
                                      pr.completed_count()) +
                       " failed/skipped)";
          }
        } else {
          PipelineRuntime runtime;
          runtime.seed = Rng::derive_stream(
              seed, kRungStream + (static_cast<std::uint64_t>(rung) << 8) +
                        static_cast<std::uint64_t>(attempt));
          runtime.obs = obs;
          CancelToken token;
          if (rung == 1 && has_deadline) {
            token.set_deadline_after_ms(std::max(0.0, remaining_ms()) *
                                        kRung1DeadlineFraction);
            runtime.cancel = &token;
          }
          // Rung 2 stays uncancellable mid-run: the shield's never-fails
          // guarantee holds once the last rung has started; disconnects
          // are honoured at the attempt/rung checkpoints above instead.
          if (rung == 1 && client_cancel != nullptr) {
            token.link_parent(client_cancel);
            runtime.cancel = &token;
          }
          if (!injector.empty() && !shielded) {
            const FaultInjector* inj = &injector;
            runtime.stage_hook = [inj, rung, attempt](const char* stage) {
              inj->at_stage(stage, rung, 0, attempt);
            };
          }
          accept(pipeline.run(circuit, device_, runtime), 0, rr.label);
        }
      } catch (const CancelledError& e) {
        ar.ok = false;
        ar.error_class = ErrorClass::Transient;
        ar.error = e.what();
      } catch (const std::exception& e) {
        ar.ok = false;
        ar.error_class = classify_exception(e);
        ar.error = e.what();
      } catch (...) {
        ar.ok = false;
        ar.error_class = ErrorClass::Permanent;
        ar.error = "unknown exception";
      }

      ar.wall_ms = ms_since(attempt_start);
      ar.injected_faults = injector.drain_fired();
      for (const std::string& f : ar.injected_faults) {
        outcome.injected_faults.push_back(f);
        // Marker events nest under the still-open attempt span.
        obs::instant(obs, "fault:" + f, "fault");
        obs::add(obs, "resilience.faults_fired");
      }
      obs::add(obs, "resilience.attempts");
      if (attempt > 0) obs::add(obs, "resilience.retries");
      if (attempt_span.active()) {
        attempt_span.arg("ok", ar.ok ? "true" : "false");
      }
      const bool succeeded = ar.ok;
      const bool transient = ar.error_class == ErrorClass::Transient;
      rr.attempts.push_back(std::move(ar));
      if (succeeded) {
        rr.ok = true;
        break;
      }
      // Transient failures retry (budget permitting); Permanent and
      // ResourceExhausted fall through to the next, cheaper rung.
      if (!transient) break;
      if (has_deadline && remaining_ms() <= 0.0 && rung < 2) break;
    }
    outcome.rungs.push_back(std::move(rr));
  }

  std::sort(outcome.injected_faults.begin(), outcome.injected_faults.end());
  outcome.injected_faults.erase(std::unique(outcome.injected_faults.begin(),
                                            outcome.injected_faults.end()),
                                outcome.injected_faults.end());
  if (!outcome.ok && outcome.error.empty()) {
    outcome.error =
        "every rung exhausted (shield_last_rung off or device unroutable)";
  }
  outcome.wall_ms = ms_since(start);
  if (outcome.ok) {
    obs::add(obs, "resilience.ok");
    obs::add(obs, "resilience.rung_used." + std::to_string(outcome.rung));
    if (outcome.degraded()) obs::add(obs, "resilience.degraded");
  } else {
    obs::add(obs, "resilience.exhausted");
  }
  return outcome;
}

CompileOutcome compile(const Circuit& circuit, const Device& device,
                       const Policy& policy) {
  return ResilientCompiler(device, policy).compile(circuit);
}

}  // namespace qmap::resilience
