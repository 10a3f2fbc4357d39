#include "driver/cli_flags.h"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/config_fields.h"
#include "driver/config_scenario.h"
#include "workload/app_checkpoint.h"
#include "workload/iotrace.h"
#include "workload/swf.h"

namespace iosched::driver {

void AddScenarioFlags(util::CliParser& cli) {
  cli.AddFlag("workload", "1", "built-in evaluation month (1..3)");
  cli.AddFlag("config", "", "INI scenario file (overrides workload flags)");
  cli.AddFlag("days", "30", "trace duration in days");
  cli.AddFlag("swf", "", "SWF job trace to load");
  cli.AddFlag("io", "", "Darshan-lite I/O trace paired with --swf");
  cli.AddFlag("bwmax", "250", "storage bandwidth cap BWmax in GB/s");
  cli.AddFlag("factor", "1.0", "I/O expansion factor applied to the workload");
}

namespace {

/// Declares into `declare`, or applies from `apply`, the single-field flags
/// of the table section `only`: a declared flag's help is the row's doc and
/// its default the member initializer. Values are not range-checked here;
/// SimulationConfig::Validate applies the same rows' rules.
struct FlagVisitor : util::FieldVisitor {
  std::string_view only;
  util::CliParser* declare;
  const util::CliParser* apply;

  template <class T>
  void operator()(T& value, const util::Field& field,
                  const util::RowExtra& = {}) {
    if constexpr (util::kHasText<T>) {
      if (field.flag == nullptr || prefix != only) return;
      if (declare != nullptr) {
        declare->AddFlag(field.flag, util::FormatValue(value), field.doc);
      }
      using util::ParseValue;  // enums parse through their own overload
      if (apply != nullptr && apply->Provided(field.flag) &&
          !ParseValue(apply->GetString(field.flag), value)) {
        throw std::runtime_error("flag --" + std::string(field.flag) +
                                 " has an invalid value: " +
                                 apply->GetString(field.flag));
      }
    }
  }
};

void AddFieldFlags(util::CliParser& cli, std::string_view section) {
  core::SimulationConfig defaults;
  FlagVisitor visitor{{}, section, &cli, nullptr};
  core::VisitFields(defaults, visitor);
}

}  // namespace

void AddBurstBufferFlags(util::CliParser& cli) {
  AddFieldFlags(cli, "burst_buffer.");
  cli.AddFlag("bb-drain", "25",
              "PFS bandwidth reserved for the burst-buffer drain in GB/s");
}

void AddAppCheckpointFlags(util::CliParser& cli) {
  cli.AddFlag("app-ckpt-mtbf", "0",
              "application MTBF in seconds; a positive value enables "
              "checkpoint traffic (Young/Daly flushes), the MTBF failure "
              "process, and restart-from-checkpoint semantics");
  cli.AddFlag("app-ckpt-defer", "600",
              "maximum seconds a checkpoint flush may be deferred under "
              "congestion (0 = flushes are never deferred)");
  cli.AddFlag("app-ckpt-min-interval", "120",
              "lower clamp on the Young/Daly checkpoint interval in seconds");
  cli.AddFlag("app-ckpt-seed", "1",
              "seed for the per-job application-class draws");
}

std::optional<int> ParseStandardFlags(util::CliParser& cli, int argc,
                                      const char* const* argv) {
  cli.AddBoolFlag("help", "show usage");
  if (!cli.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", cli.error().c_str(), cli.Help().c_str());
    return 1;
  }
  if (cli.GetBool("help")) {
    std::fputs(cli.Help().c_str(), stdout);
    return 0;
  }
  return std::nullopt;
}

Scenario ScenarioFromFlags(const util::CliParser& cli) {
  Scenario scenario;
  if (cli.Provided("config")) {
    scenario = ScenarioFromConfigFile(cli.GetString("config"));
    if (cli.Provided("bwmax")) {
      scenario.config.storage.max_bandwidth_gbps = cli.GetDouble("bwmax");
    }
    return scenario;
  }
  scenario.config.machine = machine::MachineConfig::Mira();
  scenario.config.storage.max_bandwidth_gbps = cli.GetDouble("bwmax");
  if (cli.Provided("swf")) {
    workload::SwfTrace swf = workload::ReadSwfFile(cli.GetString("swf"));
    workload::IoTrace io;
    if (cli.Provided("io")) {
      io = workload::ReadIoTraceFile(cli.GetString("io"));
    }
    workload::PairingOptions opts;
    opts.node_bandwidth_gbps = scenario.config.machine.node_bandwidth_gbps;
    scenario.jobs = workload::PairTraces(swf, io, opts);
    scenario.name = cli.GetString("swf");
  } else {
    int index = static_cast<int>(cli.GetInt("workload"));
    scenario = MakeEvaluationScenario(index, cli.GetDouble("days"));
    scenario.config.storage.max_bandwidth_gbps = cli.GetDouble("bwmax");
  }
  double factor = cli.GetDouble("factor");
  if (factor != 1.0) {
    scenario = WithExpansionFactor(scenario, factor);
  }
  return scenario;
}

void ApplyBurstBufferFlags(const util::CliParser& cli,
                           core::SimulationConfig& config) {
  FlagVisitor flags{{}, "burst_buffer.", nullptr, &cli};
  core::VisitFields(config, flags);
  storage::BurstBufferConfig& bb = config.burst_buffer;
  if (cli.Provided("bb-drain")) {
    bb.drain_gbps = cli.GetDouble("bb-drain");
  } else if (cli.Provided("bb-capacity") && bb.capacity_gb > 0 &&
             bb.drain_gbps <= 0) {
    // A capacity without a drain rate is never a valid tier, so enabling
    // the buffer from the command line pulls in the drain default too.
    bb.drain_gbps = cli.GetDouble("bb-drain");
  }
}

void ApplyAppCheckpointFlags(const util::CliParser& cli, Scenario& scenario) {
  double mtbf = cli.GetDouble("app-ckpt-mtbf");
  if (mtbf <= 0) return;
  workload::AppCheckpointConfig ac;
  ac.enabled = true;
  ac.mtbf_seconds = mtbf;
  if (cli.Provided("app-ckpt-min-interval")) {
    ac.min_interval_seconds = cli.GetDouble("app-ckpt-min-interval");
  }
  if (cli.Provided("app-ckpt-seed")) {
    ac.seed = static_cast<std::uint64_t>(cli.GetInt("app-ckpt-seed"));
  }
  workload::ApplyCheckpointTraffic(
      scenario.jobs, ac, scenario.config.machine.node_bandwidth_gbps);
  scenario.config.app_checkpoint.enabled = true;
  scenario.config.app_checkpoint.max_defer_seconds =
      cli.GetDouble("app-ckpt-defer");
  scenario.config.faults.plan_config.enabled = true;
  scenario.config.faults.plan_config.job_mtbf_seconds = mtbf;
  scenario.config.faults.restart_mode =
      faults::RestartMode::kRestartFromAppCheckpoint;
}

}  // namespace iosched::driver
