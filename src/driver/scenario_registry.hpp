// Scenario registry of the `macosim` driver.
//
// A scenario is one named, parameterized experiment: every workload
// (src/workloads/), baseline comparison (src/baselines/) and paper
// figure/table is registered here, the one home of that logic, so one CLI
// can run and sweep all of them. Each scenario declares a typed
// exp::ParamSchema (the single parser for its knobs) and consumes a
// fully-validated exp::ParamSet; scenarios that execute the MACO machine
// do so through an exp::ExecutionBackend selected by the `fidelity`
// parameter, so the same experiment can run against the analytic timing
// model or the detailed flit-level system.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "exp/backend.hpp"
#include "exp/param_schema.hpp"
#include "exp/results.hpp"

namespace maco::driver {

using exp::ScenarioResult;

// One fully-validated run: the hardware config (knobs already applied) and
// the scenario's typed parameters (defaults filled by the schema).
struct ScenarioRequest {
  core::SystemConfig config = core::SystemConfig::maco_default();
  exp::ParamSet params;

  // Ask the scenario to record execution spans and return them as
  // ScenarioResult::trace_json (driver --trace-out). Only scenarios that
  // run a detailed machine or the serve loop produce spans; others ignore
  // the flag and leave trace_json empty.
  bool collect_trace = false;

  // The `fidelity` parameter when the scenario declares one (analytic
  // otherwise), and the matching execution backend over `config`.
  exp::Fidelity fidelity() const;
  std::unique_ptr<exp::ExecutionBackend> backend() const;
};

// A declarative constraint ACROSS the two schemas of a sweep point: the
// scenario's parameters and the hardware knobs are bound separately, so a
// rule relating them (e.g. `nodes <= node_count`) cannot live on either
// ParamSchema alone. Scenarios do not write these by hand: cross_rules()
// derives them from what each scenario declares.
struct CrossRule {
  std::string rule;  // e.g. "nodes <= node_count"
  std::function<bool(const exp::ParamSet& scenario,
                     const exp::ParamSet& hardware)>
      satisfied;
};

// The backend hardware knobs (dram, icnt, exec, profile) that a scenario
// WITHOUT a `fidelity` parameter honours; the others must keep their
// defaults, and `reason` says why in the derived rule. A scenario that
// declares `fidelity` leaves this alone: its fidelity choices decide.
struct HonouredKnobs {
  std::vector<std::string> knobs;
  std::string reason = "scenario has no detailed machine";
};

struct Scenario {
  std::string name;
  std::string description;
  exp::ParamSchema schema;
  HonouredKnobs honours;  // fixed-backend scenarios only
  std::function<ScenarioResult(const ScenarioRequest&)> run;
  // A serial scenario never runs on more than one sweep worker at a time
  // (e.g. wall-clock micro-benches, whose numbers concurrency would skew).
  bool serial = false;

  bool has_param(std::string_view key) const noexcept {
    return schema.has(key);
  }
};

// The fidelities a scenario accepts, as "analytic|detailed|..." from its
// declared `fidelity` choices — "analytic (fixed)" for scenarios without
// the parameter (no detailed machine). Printed by --list-scenarios.
std::string fidelity_summary(const Scenario& scenario);

// The scenario-vs-hardware rules, derived from the declarations:
//  - a declared `nodes` gives `nodes <= node_count` (explicit nodes only);
//  - a declared `fidelity` keeps dram/icnt/exec at their defaults under
//    fidelity=analytic and profile=counters to fidelity=detailed;
//  - otherwise every backend knob outside `honours` keeps its default.
// --list-scenarios prints them next to the schema's own constraints.
std::vector<CrossRule> cross_rules(const Scenario& scenario);

// Throws std::invalid_argument naming the first cross rule that a bound
// sweep point violates. The sweep runner and store import both call it
// before a point runs or is fingerprinted.
void check_cross_rules(const Scenario& scenario,
                       const exp::ParamSet& params,
                       const exp::ParamSet& hardware);

class ScenarioRegistry {
 public:
  // Returns false (and leaves the registry unchanged) on a duplicate name.
  bool add(Scenario scenario);

  // nullptr when unknown.
  const Scenario* find(std::string_view name) const noexcept;

  std::vector<std::string> names() const;
  const std::vector<Scenario>& scenarios() const noexcept {
    return scenarios_;
  }

  // A registry pre-populated with every built-in scenario.
  static ScenarioRegistry builtin();

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace maco::driver
