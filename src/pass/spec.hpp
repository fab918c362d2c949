// PipelineSpec: a pipeline as data — an ordered list of pass names plus
// per-pass options, JSON-round-trippable.
//
// This is what turns strategies and resilience rungs into configuration:
// the portfolio engine expands each StrategySpec into a PipelineSpec, the
// fallback ladder's rungs are PipelineSpecs, and a user can reorder or
// drop stages from a JSON file without touching code (see the README
// "Building a custom pipeline" quickstart).
//
// JSON shape (to_json emits the object form; from_json also accepts a bare
// array, and a bare string wherever a pass object is expected):
//
//   {"passes": [
//     {"pass": "decompose"},
//     {"pass": "placer", "options": {"algorithm": "greedy"}},
//     {"pass": "router", "options": {"algorithm": "sabre"}},
//     "postroute",
//     {"pass": "schedule", "options": {"use_control_constraints": true}}
//   ]}
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "pass/pass.hpp"

namespace qmap {

/// One pipeline entry: a canonical pass name plus its options (null =
/// defaults). Constructed through PipelineSpec so names/options are always
/// validated.
struct PassSpec {
  std::string pass;
  Json options;

  [[nodiscard]] Json to_json() const;

  friend bool operator==(const PassSpec& a, const PassSpec& b) {
    return a.pass == b.pass && a.options == b.options;
  }
  friend bool operator!=(const PassSpec& a, const PassSpec& b) {
    return !(a == b);
  }
};

class PipelineSpec {
 public:
  PipelineSpec() = default;

  /// The classic Fig. 2 preset: decompose, placer, router, postroute, and
  /// (when `run_scheduler`) schedule — with the placer, router and
  /// schedule options spelled out so the JSON form is self-describing.
  /// Every compile lowers to the device's native set and runs the
  /// peephole; decompose and postroute take no options. With no arguments
  /// it equals the canonical form of the bare pass names (pinned in
  /// tests/test_pass.cpp). Compiler::pipeline() builds this from its
  /// CompilerOptions.
  [[nodiscard]] static PipelineSpec standard(
      const std::string& placer = "greedy",
      const std::string& router = "sabre", bool run_scheduler = true,
      bool use_control_constraints = true);

  /// Parses {"passes": [...]} or a bare array. Validates every name and
  /// every option key; throws
  /// MappingError with the offending name/key and the valid choices.
  [[nodiscard]] static PipelineSpec from_json(const Json& json);
  [[nodiscard]] static PipelineSpec from_json_text(std::string_view text);
  /// Emits object keys in sorted order (JsonObject is an ordered map), so
  /// the key order of the *source* JSON can never leak into the output —
  /// two parses of the same spec with shuffled keys dump byte-identically.
  /// Contract pinned by tests/test_pass.cpp; the service cache key relies
  /// on it.
  [[nodiscard]] Json to_json() const;

  /// The normal form: every pass carries its complete option object, with
  /// elided options materialized to the defaults make_pass() would use
  /// (registry resolve_pass_options()). Two semantically equal specs —
  /// one spelling out {"algorithm": "sabre"}, one omitting it — have equal
  /// canonical forms, so a content-addressed cache keyed on
  /// canonical_json().dump() cannot be split by option elision or source
  /// key order.
  [[nodiscard]] PipelineSpec canonical() const;
  /// to_json() of canonical(): the serialization a cache key must use.
  [[nodiscard]] Json canonical_json() const;

  [[nodiscard]] const std::vector<PassSpec>& passes() const noexcept {
    return passes_;
  }
  [[nodiscard]] bool empty() const noexcept { return passes_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return passes_.size(); }

  /// Appends one entry; validates the name and options by constructing
  /// the pass once.
  void append(const std::string& pass, Json options = Json());

  /// "placer_algorithm+router_algorithm" when both stages are present
  /// (e.g. "greedy+sabre", matching StrategySpec::label()); otherwise the
  /// pass names joined with '+'.
  [[nodiscard]] std::string label() const;

  /// Algorithm of the first placer/router pass; "" when that stage is
  /// absent. Used for compile-span args and strategy labels.
  [[nodiscard]] std::string placer_name() const;
  [[nodiscard]] std::string router_name() const;

  /// Instantiates the pipeline in order.
  [[nodiscard]] std::vector<std::unique_ptr<Pass>> build() const;

  friend bool operator==(const PipelineSpec& a, const PipelineSpec& b) {
    return a.passes_ == b.passes_;
  }
  friend bool operator!=(const PipelineSpec& a, const PipelineSpec& b) {
    return !(a == b);
  }

 private:
  [[nodiscard]] std::string algorithm_of(const std::string& pass) const;

  std::vector<PassSpec> passes_;
};

}  // namespace qmap
