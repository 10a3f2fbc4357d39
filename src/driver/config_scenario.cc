#include "driver/config_scenario.h"

#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/config_fields.h"
#include "util/strings.h"
#include "workload/app_checkpoint.h"
#include "workload/synthetic.h"

namespace iosched::driver {

namespace {

/// Overrides `value` with `key` when present; throws naming the key when
/// the value is not a number, or (`positive`) not a positive one.
void Override(const util::Config& config, const std::string& key,
              double& value, bool positive = false) {
  if (!config.Has(key)) return;
  value = config.RequireDouble(key);
  if (positive && value <= 0) {
    throw std::runtime_error("config: '" + key + "' must be positive");
  }
}

/// Keys read here rather than through the field table: the machine preset,
/// the workload generator, and the [app_checkpoint] workload transform.
const std::set<std::string> kScenarioKeys = {
    "machine.preset", "workload.month", "workload.days", "workload.seed",
    "workload.expansion_factor", "workload.jobs_per_day",
    "workload.checkpoint_period_seconds", "workload.io_efficiency_lo",
    "workload.io_efficiency_hi", "workload.restart_read_probability",
    "app_checkpoint.mtbf_seconds", "app_checkpoint.min_interval_seconds",
    "app_checkpoint.min_compute_seconds", "app_checkpoint.seed"};

/// Sets every table field whose INI key is present, or (`checking`) checks
/// the rule of each such field once all are set, so that a rule that looks
/// at a sibling sees the configured sibling.
struct IniVisitor : util::FieldVisitor {
  const util::Config& ini;
  std::set<std::string> known = kScenarioKeys;
  bool checking = false;

  explicit IniVisitor(const util::Config& config) : ini(config) {}

  template <class T>
  void operator()(T& value, const util::Field& field,
                  const util::RowExtra& extra = {}) {
    if (field.ini_key == nullptr) return;
    const std::string key = field.ini_key;
    known.insert(key);
    std::optional<std::string> text = ini.GetString(key);
    if (!text) return;
    std::string problem;
    if (checking) {
      problem = util::RowIssue(value, field, extra);
    } else if constexpr (util::kHasText<T>) {
      using util::ParseValue;  // enums parse through their own overload
      if (!ParseValue(*text, value)) problem = "has invalid value " + *text;
    }
    if (!problem.empty()) {
      throw std::runtime_error("config: '" + key + "' " + problem);
    }
  }
};

}  // namespace

Scenario ScenarioFromConfig(const util::Config& config) {
  Scenario scenario;

  // The machine preset first: [machine] keys in the table override it.
  std::string preset =
      util::ToLower(config.GetStringOr("machine.preset", "mira"));
  if (preset == "mira") {
    scenario.config.machine = machine::MachineConfig::Mira();
  } else if (preset == "intrepid") {
    scenario.config.machine = machine::MachineConfig::Intrepid();
  } else if (preset == "small") {
    scenario.config.machine = machine::MachineConfig::Small();
  } else {
    throw std::runtime_error("config: unknown machine.preset '" + preset +
                             "'");
  }
  // Every table key, then a misspelt key fails instead of being ignored.
  IniVisitor ini(config);
  core::VisitFields(scenario.config, ini);
  for (const std::string& key : config.Keys()) {
    if (ini.known.count(key) == 0) {
      throw std::runtime_error("config: unknown key '" + key + "'");
    }
  }
  ini.checking = true;
  core::VisitFields(scenario.config, ini);

  // Workload.
  int month = static_cast<int>(config.GetIntOr("workload.month", 1));
  workload::SyntheticConfig wl = workload::EvaluationMonthConfig(month);
  wl.node_bandwidth_gbps = scenario.config.machine.node_bandwidth_gbps;
  Override(config, "workload.days", wl.duration_days, /*positive=*/true);
  Override(config, "workload.jobs_per_day", wl.jobs_per_day, true);
  Override(config, "workload.checkpoint_period_seconds",
           wl.checkpoint_period_seconds, true);
  Override(config, "workload.io_efficiency_lo", wl.io_efficiency_lo);
  Override(config, "workload.io_efficiency_hi", wl.io_efficiency_hi);
  Override(config, "workload.restart_read_probability",
           wl.restart_read_probability);
  // Drop size classes the configured machine cannot host (a small-machine
  // config with the Mira month presets would otherwise generate unplaceable
  // jobs).
  {
    std::vector<int> menu;
    std::vector<double> weights;
    for (std::size_t i = 0; i < wl.size_menu.size(); ++i) {
      if (wl.size_menu[i] <= scenario.config.machine.total_nodes()) {
        menu.push_back(wl.size_menu[i]);
        weights.push_back(wl.size_weights[i]);
      }
    }
    if (menu.empty()) {
      throw std::runtime_error(
          "config: machine too small for every workload size class");
    }
    wl.size_menu = std::move(menu);
    wl.size_weights = std::move(weights);
  }
  auto seed =
      static_cast<std::uint64_t>(config.GetIntOr("workload.seed", 101));
  scenario.jobs = workload::GenerateWorkload(wl, seed);
  scenario.name = "month" + std::to_string(month) + "/seed" +
                  std::to_string(seed);

  double factor = config.GetDoubleOr("workload.expansion_factor", 1.0);
  if (factor != 1.0) {
    if (factor < 0) {
      throw std::runtime_error("config: negative workload.expansion_factor");
    }
    workload::ApplyExpansionFactor(scenario.jobs, factor);
    scenario.name += "/ef" + std::to_string(factor);
  }

  // Checkpoint-traffic transform, last so Young/Daly intervals see the
  // final (expansion-scaled) compute durations.
  if (scenario.config.app_checkpoint.enabled) {
    workload::AppCheckpointConfig ac;
    ac.enabled = true;
    Override(config, "app_checkpoint.mtbf_seconds", ac.mtbf_seconds);
    Override(config, "app_checkpoint.min_interval_seconds",
             ac.min_interval_seconds);
    Override(config, "app_checkpoint.min_compute_seconds",
             ac.min_compute_seconds);
    ac.seed = static_cast<std::uint64_t>(config.GetIntOr(
        "app_checkpoint.seed", static_cast<long long>(ac.seed)));
    workload::ApplyCheckpointTraffic(
        scenario.jobs, ac, scenario.config.machine.node_bandwidth_gbps);
    scenario.name += "/ckpt";
  }
  return scenario;
}

Scenario ScenarioFromConfigFile(const std::string& path) {
  return ScenarioFromConfig(util::Config::FromFile(path));
}

}  // namespace iosched::driver
