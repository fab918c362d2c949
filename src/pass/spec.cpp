#include "pass/spec.hpp"

#include "common/error.hpp"
#include "pass/registry.hpp"

namespace qmap {

Json PassSpec::to_json() const {
  Json out;
  out["pass"] = Json(pass);
  if (!options.is_null()) out["options"] = options;
  return out;
}

void PipelineSpec::append(const std::string& pass, Json options) {
  PassSpec spec;
  spec.pass = canonical_pass_name(pass);
  spec.options = std::move(options);
  // Construct once to validate the option keys/values eagerly.
  (void)make_pass(spec.pass, spec.options);
  passes_.push_back(std::move(spec));
}

PipelineSpec PipelineSpec::standard(const std::string& placer,
                                    const std::string& router,
                                    bool run_scheduler,
                                    bool use_control_constraints) {
  PipelineSpec spec;
  spec.append("decompose");
  Json placer_options;
  placer_options["algorithm"] = Json(placer);
  spec.append("placer", std::move(placer_options));
  Json router_options;
  router_options["algorithm"] = Json(router);
  spec.append("router", std::move(router_options));
  spec.append("postroute");
  if (run_scheduler) {
    Json schedule_options;
    schedule_options["use_control_constraints"] =
        Json(use_control_constraints);
    spec.append("schedule", std::move(schedule_options));
  }
  return spec;
}

PipelineSpec PipelineSpec::from_json(const Json& json) {
  const Json* passes = nullptr;
  if (json.is_array()) {
    passes = &json;
  } else if (json.is_object()) {
    passes = json.find("passes");
    if (passes == nullptr) {
      throw MappingError(
          "pipeline spec: expected a \"passes\" array (or a bare array of "
          "passes)");
    }
  } else {
    throw MappingError(
        "pipeline spec: expected a JSON object with a \"passes\" array");
  }
  if (!passes->is_array()) {
    throw MappingError("pipeline spec: \"passes\" must be an array");
  }
  PipelineSpec spec;
  for (const Json& entry : passes->as_array()) {
    if (entry.is_string()) {
      spec.append(entry.as_string());
      continue;
    }
    if (!entry.is_object()) {
      throw MappingError(
          "pipeline spec: each pass must be a name string or an object "
          "{\"pass\": name, \"options\": {...}}");
    }
    const Json* name = entry.find("pass");
    if (name == nullptr || !name->is_string()) {
      throw MappingError(
          "pipeline spec: pass entry is missing its \"pass\" name");
    }
    const Json* options = entry.find("options");
    spec.append(name->as_string(), options ? *options : Json());
  }
  return spec;
}

PipelineSpec PipelineSpec::from_json_text(std::string_view text) {
  return from_json(Json::parse(text));
}

PipelineSpec PipelineSpec::canonical() const {
  PipelineSpec out;
  for (const PassSpec& spec : passes_) {
    out.append(spec.pass, resolve_pass_options(spec.pass, spec.options));
  }
  return out;
}

Json PipelineSpec::canonical_json() const { return canonical().to_json(); }

Json PipelineSpec::to_json() const {
  JsonArray array;
  array.reserve(passes_.size());
  for (const PassSpec& spec : passes_) array.push_back(spec.to_json());
  Json out;
  out["passes"] = Json(std::move(array));
  return out;
}

std::string PipelineSpec::algorithm_of(const std::string& pass) const {
  for (const PassSpec& spec : passes_) {
    if (spec.pass != pass) continue;
    return resolve_pass_options(pass, spec.options)
        .at("algorithm")
        .as_string();
  }
  return "";
}

std::string PipelineSpec::placer_name() const { return algorithm_of("placer"); }

std::string PipelineSpec::router_name() const { return algorithm_of("router"); }

std::string PipelineSpec::label() const {
  const std::string placer = placer_name();
  const std::string router = router_name();
  if (!placer.empty() && !router.empty()) return placer + "+" + router;
  std::string out;
  for (const PassSpec& spec : passes_) {
    if (!out.empty()) out += '+';
    out += spec.pass;
  }
  return out;
}

std::vector<std::unique_ptr<Pass>> PipelineSpec::build() const {
  std::vector<std::unique_ptr<Pass>> passes;
  passes.reserve(passes_.size());
  for (const PassSpec& spec : passes_) {
    passes.push_back(make_pass(spec.pass, spec.options));
  }
  return passes;
}

}  // namespace qmap
