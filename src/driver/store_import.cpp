#include "driver/store_import.hpp"

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "driver/hardware_knobs.hpp"
#include "exp/results.hpp"
#include "store/fingerprint.hpp"
#include "util/json.hpp"

namespace maco::driver {
namespace {

struct ColumnInfo {
  std::string unit;
  bool higher_is_better = true;
};

// One row of the sweep JSON -> one CampaignRecord, re-bound through the
// current schemas. Returns an empty optional-style flag via record.error
// only for rows the FILE marked as failed; schema/rule violations throw.
store::CampaignRecord import_row(
    const Scenario& scenario, std::uint64_t schema_hash,
    const std::map<std::string, ColumnInfo>& columns,
    const util::JsonValue& row) {
  const util::JsonValue* params = row.find("params");
  if (params == nullptr) {
    throw std::runtime_error("row has no \"params\" object");
  }
  std::map<std::string, std::string> scenario_raw;
  std::map<std::string, std::string> hardware_raw;
  for (const auto& [key, value] : params->as_object()) {
    if (scenario.schema.has(key)) {
      scenario_raw[key] = value.as_string();
    } else if (hardware_schema().has(key)) {
      hardware_raw[key] = value.as_string();
    } else {
      throw std::invalid_argument(
          "scenario '" + scenario.name + "' has no parameter '" + key +
          "' and it is not a hardware knob (schema drift since this "
          "trajectory was recorded?)");
    }
  }
  const exp::ParamSet hardware_params = hardware_schema().bind(hardware_raw);
  const exp::ParamSet scenario_params = scenario.schema.bind(scenario_raw);
  check_cross_rules(scenario, scenario_params, hardware_params);

  store::CampaignRecord record;
  record.scenario = scenario.name;
  record.schema_hash = schema_hash;
  store::canonical_params(scenario_params, record.params,
                          record.explicit_params);
  store::canonical_params(hardware_params, record.params,
                          record.explicit_params);
  record.fingerprint = record.computed_fingerprint();
  record.fidelity = scenario_params.has("fidelity")
                        ? scenario_params.str("fidelity")
                        : "analytic";

  if (const util::JsonValue* metrics = row.find("metrics")) {
    for (const auto& [name, value] : metrics->as_object()) {
      // Non-finite metric values serialize as null; there is no value to
      // import for them.
      if (value.is_null()) continue;
      exp::Metric metric;
      metric.name = name;
      metric.value = value.as_number();
      const auto info = columns.find(name);
      if (info != columns.end()) {
        metric.unit = info->second.unit;
        metric.higher_is_better = info->second.higher_is_better;
      } else {
        // No column metadata (hand-written or truncated JSON): fall back
        // to the same name-based inference ScenarioResult::add uses, so
        // an imported latency_p95_ms still gates as lower-is-better.
        metric.higher_is_better =
            !exp::lower_is_better_metric_name(name);
      }
      record.metrics.push_back(std::move(metric));
    }
  }
  if (const util::JsonValue* error = row.find("error")) {
    record.error = error->as_string();
  }
  return record;
}

}  // namespace

ImportSummary import_sweep_json(const ScenarioRegistry& registry,
                                const std::string& json_text,
                                store::CampaignStore& store) {
  const util::JsonValue doc = util::parse_json(json_text);
  const util::JsonValue* scenario_name = doc.find("scenario");
  if (scenario_name == nullptr || !scenario_name->is_string()) {
    throw std::runtime_error("sweep JSON has no \"scenario\" string");
  }
  const Scenario* scenario = registry.find(scenario_name->as_string());
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario '" +
                                scenario_name->as_string() +
                                "' in sweep JSON");
  }

  // Unit/direction metadata rides in the "columns" array; a metric not
  // described there imports as dimensionless with its direction inferred
  // from the name (percentile/latency names are lower-is-better, the
  // rest higher — exp::lower_is_better_metric_name).
  std::map<std::string, ColumnInfo> columns;
  if (const util::JsonValue* cols = doc.find("columns")) {
    for (const util::JsonValue& col : cols->as_array()) {
      const util::JsonValue* name = col.find("name");
      if (name == nullptr) continue;
      ColumnInfo info;
      if (const util::JsonValue* unit = col.find("unit")) {
        info.unit = unit->as_string();
      }
      if (const util::JsonValue* dir = col.find("higher_is_better")) {
        info.higher_is_better = dir->as_bool();
      }
      columns[name->as_string()] = info;
    }
  }

  const util::JsonValue* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    throw std::runtime_error("sweep JSON has no \"rows\" array");
  }

  // The same resume key a live sweep of this scenario would use, computed
  // from the schemas as they are NOW.
  const std::uint64_t schema_hash = store::schema_digest(
      hardware_schema(), store::schema_digest(scenario->schema));

  ImportSummary summary;
  std::size_t index = 0;
  for (const util::JsonValue& row : rows->as_array()) {
    store::CampaignRecord record;
    try {
      record = import_row(*scenario, schema_hash, columns, row);
    } catch (const std::exception& error) {
      throw std::runtime_error("sweep JSON row " + std::to_string(index) +
                               ": " + error.what());
    }
    ++index;
    if (!record.ok()) {
      ++summary.errored;
      continue;
    }
    if (store.contains(record.fingerprint, record.schema_hash)) {
      ++summary.skipped;
      continue;
    }
    store.append(record);
    ++summary.imported;
  }
  return summary;
}

}  // namespace maco::driver
