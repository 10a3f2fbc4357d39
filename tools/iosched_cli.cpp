// iosched — command-line front end to the I/O-aware scheduling framework.
//
// Subcommands:
//   generate     synthesize a Mira-like month and write SWF + I/O traces
//   simulate     run one policy over a trace pair (or a built-in workload)
//   sweep        compare all policies on a workload (Fig. 8/9/10 content)
//   sensitivity  expansion-factor sweep (Fig. 11 content)
//   bbsweep      burst-buffer capacity sensitivity sweep
//   chaos        seeded chaos soak: randomized fault schedules under every
//                policy with the invariant checker on
//
// Examples (an indented line continues the command above it):
//   iosched generate --workload 1 --days 30 --out /tmp/wl1
//   iosched simulate --swf /tmp/wl1.swf --io /tmp/wl1_io.csv --policy ADAPTIVE
//   iosched simulate --workload 2 --days 14 --policy MIN_AGGR_SLD
//   iosched simulate --workload 1 --days 30 --bb-capacity 4000  # with a BB
//   iosched sweep --workload 1 --days 30 --csv
//   iosched sensitivity --workload 1 --factors 0.3,0.7,1.5
//   iosched bbsweep --workload 1 --days 30 --bb-capacities 0,2000,8000
//   iosched simulate --workload 1 --days 365 --checkpoint-dir /tmp/ck
//       --checkpoint-every-wall 60 --watchdog 300   # crash-safe long run
//   iosched simulate --workload 1 --days 365 --checkpoint-dir /tmp/ck
//       --resume                                    # continue after a crash
//   iosched sweep --workload 1 --days 30 --state-dir /tmp/sweep  # resumable
//   iosched chaos --chaos-schedules 50 --chaos-out /tmp/chaos.csv
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/event_log.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "driver/chaos.h"
#include "driver/cli_flags.h"
#include "driver/experiment.h"
#include "driver/replication.h"
#include "driver/resumable.h"
#include "driver/scenario.h"
#include "driver/sweep.h"
#include "driver/watchdog.h"
#include "metrics/breakdown.h"
#include "metrics/timeline.h"
#include "metrics/report.h"
#include "obs/hub.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/units.h"
#include "workload/iotrace.h"
#include "workload/swf.h"
#include "workload/synthetic.h"

namespace {

using namespace iosched;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int CmdGenerate(const util::CliParser& cli) {
  int index = static_cast<int>(cli.GetInt("workload"));
  workload::SyntheticConfig cfg = workload::EvaluationMonthConfig(index);
  cfg.duration_days = cli.GetDouble("days");
  workload::Workload jobs =
      workload::GenerateWorkload(cfg, static_cast<std::uint64_t>(
                                          cli.GetInt("seed")));
  std::string stem = cli.GetString("out");
  workload::WriteSwfFile(stem + ".swf",
                         workload::ToSwf(jobs, cfg.node_bandwidth_gbps));
  workload::WriteIoTraceFile(
      stem + "_io.csv", workload::ToIoTrace(jobs, cfg.node_bandwidth_gbps));
  std::printf("wrote %zu jobs to %s.swf and %s_io.csv\n", jobs.size(),
              stem.c_str(), stem.c_str());
  return 0;
}

int CmdSimulate(const util::CliParser& cli) {
  driver::Scenario scenario = driver::ScenarioFromFlags(cli);
  driver::ApplyAppCheckpointFlags(cli, scenario);
  core::SimulationConfig config = scenario.config;
  if (cli.Provided("policy") || !cli.Provided("config")) {
    config.policy = cli.GetString("policy");
  }
  if (cli.Provided("walltime-kill")) {
    config.enforce_walltime = cli.GetBool("walltime-kill");
  }
  driver::ApplyBurstBufferFlags(cli, config);

  config.keep_bandwidth_samples = cli.GetBool("timeline");
  core::EventLog log;
  core::EventLog* log_ptr =
      cli.Provided("event-log") ? &log : nullptr;

  // Observability: the config's [obs] switch or any obs output flag turns
  // the hub on for this run.
  if (cli.Provided("trace-out") || cli.Provided("stats-out")) {
    config.obs.enabled = true;
  }
  if (cli.Provided("sample-dt")) {
    config.obs.sample_dt_seconds = cli.GetDouble("sample-dt");
  }
  std::optional<obs::Hub> hub;
  if (config.obs.enabled) hub.emplace(config.obs);

  // Checkpoint / resume wiring.
  if (cli.Provided("checkpoint-dir")) {
    config.checkpoint.directory = cli.GetString("checkpoint-dir");
  }
  if (cli.Provided("checkpoint-every")) {
    long long every = cli.GetInt("checkpoint-every");
    if (every < 0) return Fail("--checkpoint-every must be >= 0");
    config.checkpoint.every_events = static_cast<std::uint64_t>(every);
  }
  if (cli.Provided("checkpoint-every-sim")) {
    config.checkpoint.every_sim_seconds = cli.GetDouble("checkpoint-every-sim");
  }
  if (cli.Provided("checkpoint-every-wall")) {
    config.checkpoint.every_wall_seconds =
        cli.GetDouble("checkpoint-every-wall");
  }
  if (cli.Provided("checkpoint-keep")) {
    config.checkpoint.keep_last = static_cast<int>(cli.GetInt("checkpoint-keep"));
  }
  if (cli.GetBool("resume")) config.checkpoint.resume_latest = true;
  if (cli.Provided("resume-from")) {
    config.checkpoint.resume_from = cli.GetString("resume-from");
  }
  if ((config.checkpoint.resume_latest ||
       config.checkpoint.SavingEnabled()) &&
      config.checkpoint.directory.empty()) {
    return Fail("--resume/--checkpoint-every need --checkpoint-dir (or a "
                "[checkpoint] directory in --config)");
  }

  // Watchdog: abort (with an emergency checkpoint when a checkpoint dir is
  // configured) if the run stops making event progress.
  core::RunControl control;
  std::optional<driver::Watchdog> watchdog;
  double watchdog_seconds = cli.GetDouble("watchdog");
  if (watchdog_seconds > 0) {
    config.control = &control;
    driver::Watchdog::Options wopt;
    wopt.no_progress_seconds = watchdog_seconds;
    wopt.poll_interval_seconds = std::min(1.0, watchdog_seconds / 4.0);
    watchdog.emplace(control, wopt);
  }

  core::SimulationResult result;
  try {
    result = core::RunSimulation(config, scenario.jobs, log_ptr,
                                 hub ? &*hub : nullptr);
  } catch (const core::SimulationAborted& e) {
    if (watchdog) {
      watchdog->Stop();
      if (watchdog->fired()) {
        std::fprintf(stderr, "%s\n", watchdog->diagnostic().c_str());
      }
    }
    return Fail(e.what());
  }
  if (watchdog) watchdog->Stop();

  const metrics::Report& r = result.report;
  std::printf("%s under %s: %zu jobs\n", scenario.name.c_str(),
              result.policy_name.c_str(), r.job_count);
  if (!result.resumed_from.empty()) {
    std::printf("  resumed from   %s\n", result.resumed_from.c_str());
  }
  if (result.checkpoints_written > 0) {
    std::printf("  checkpoints    %llu written to %s\n",
                static_cast<unsigned long long>(result.checkpoints_written),
                config.checkpoint.directory.c_str());
  }
  std::printf("  avg wait       %.1f min\n",
              util::SecondsToMinutes(r.avg_wait_seconds));
  std::printf("  avg response   %.1f min\n",
              util::SecondsToMinutes(r.avg_response_seconds));
  std::printf("  utilization    %.1f%%\n", r.utilization * 100.0);
  std::printf("  io slowdown    %.3fx | runtime stretch %.3fx\n",
              r.avg_io_slowdown, r.avg_runtime_expansion);
  std::printf("  storage        congested %.1f%% of time, %zu episodes, "
              "%.1f GB/s wasted on average\n",
              result.bandwidth.congested_fraction * 100.0,
              result.bandwidth.episode_count,
              result.bandwidth.mean_wasted_gbps);
  if (!result.faults.Empty()) {
    std::printf("  faults         degraded %.1f h (min factor %.2f), "
                "%zu kills -> %zu requeued / %zu abandoned, "
                "%.0f node-hours lost\n",
                result.faults.degraded_seconds / util::kSecondsPerHour,
                result.faults.min_bandwidth_factor, result.faults.fault_kills,
                result.faults.requeues, result.faults.abandoned_jobs,
                r.lost_node_seconds / util::kSecondsPerHour);
  }
  if (r.total_flushes > 0 || r.rework_node_seconds > 0) {
    std::printf("  checkpoints    %llu flushes (%llu deferred, %llu forced "
                "releases), rework ratio %.3f, goodput %.3f\n",
                static_cast<unsigned long long>(r.total_flushes),
                static_cast<unsigned long long>(result.flush_deferrals),
                static_cast<unsigned long long>(result.forced_flush_releases),
                r.rework_ratio, r.goodput);
  }

  if (cli.GetBool("timeline")) {
    const double bucket = 2.0 * util::kSecondsPerHour;
    metrics::TimelineSeries occupancy = metrics::OccupancyTimeline(
        result.records, config.machine.total_nodes(), bucket);
    std::printf("\nmachine occupancy (2h buckets)\n%s",
                metrics::RenderTimeline(occupancy, 8, 1.0, 0.9).c_str());
    metrics::BandwidthTracker tracker(config.storage.max_bandwidth_gbps);
    for (const metrics::BandwidthSample& sample : result.bandwidth_samples) {
      tracker.Record(sample);
    }
    metrics::TimelineSeries demand = metrics::DemandTimeline(tracker, bucket);
    std::printf("\nstorage demand / BWmax (dashes at 1.0)\n%s",
                metrics::RenderTimeline(demand, 8, 2.0, 1.0).c_str());
  }
  if (cli.GetBool("breakdown")) {
    std::printf("\nper-size breakdown\n%s",
                metrics::BreakdownTable(
                    metrics::BreakdownBySize(result.records))
                    .ToString()
                    .c_str());
  }
  if (cli.Provided("records")) {
    util::AtomicFileWriter out(cli.GetString("records"));
    metrics::WriteRecordsCsv(out.stream(), result.records);
    out.Commit();
    std::printf("wrote per-job records to %s\n",
                cli.GetString("records").c_str());
  }
  if (log_ptr != nullptr) {
    util::AtomicFileWriter out(cli.GetString("event-log"));
    log.WriteCsv(out.stream());
    out.Commit();
    std::printf("wrote %zu scheduling events to %s\n", log.size(),
                cli.GetString("event-log").c_str());
  }
  if (hub) {
    std::ostringstream stats;
    hub->registry().WriteText(stats);
    std::printf("\ncounters\n%s", stats.str().c_str());
    if (hub->tracer().dropped() > 0) {
      std::printf("trace ring dropped %llu records (raise obs.trace_capacity)\n",
                  static_cast<unsigned long long>(hub->tracer().dropped()));
    }
    if (cli.Provided("trace-out")) {
      util::AtomicFileWriter out(cli.GetString("trace-out"));
      hub->tracer().WriteChromeTrace(out.stream());
      out.Commit();
      std::printf("wrote %zu trace records to %s (load in Perfetto or "
                  "chrome://tracing)\n",
                  hub->tracer().size(), cli.GetString("trace-out").c_str());
    }
    if (cli.Provided("stats-out")) {
      util::AtomicFileWriter out(cli.GetString("stats-out"));
      hub->sampler().WriteCsv(out.stream());
      out.Commit();
      std::printf("wrote %zu time-series samples to %s\n",
                  hub->sampler().samples().size(),
                  cli.GetString("stats-out").c_str());
    }
  }
  return 0;
}

int CmdSweep(const util::CliParser& cli) {
  driver::Scenario scenario = driver::ScenarioFromFlags(cli);
  driver::ApplyAppCheckpointFlags(cli, scenario);
  driver::ApplyBurstBufferFlags(cli, scenario.config);
  std::vector<std::string> policies = core::AllPolicyNames();
  if (cli.Provided("policies")) {
    policies = util::Split(cli.GetString("policies"), ',');
  }
  driver::SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = policies;
  util::ThreadPool pool;
  if (cli.Provided("state-dir")) {
    // Crash-safe sweep: completed cells are skipped on re-invocation, the
    // interrupted cell resumes from its newest valid checkpoint, and a
    // stalled run is aborted (resumably) by the watchdog.
    driver::ResumableRunner::Options opt;
    opt.root_directory = cli.GetString("state-dir");
    opt.checkpoint_every_wall_seconds = 30.0;
    opt.watchdog_no_progress_seconds = cli.GetDouble("watchdog");
    spec.resumable = opt;
  } else {
    spec.pool = &pool;
  }
  std::vector<driver::PolicyRun> runs = driver::RunSweep(spec).runs;
  if (cli.GetBool("csv")) {
    std::fputs(driver::RunsToCsv(runs).c_str(), stdout);
    return 0;
  }
  std::printf("%s\n", driver::WaitTimeTable(runs).ToString().c_str());
  std::printf("%s\n", driver::ResponseTimeTable(runs).ToString().c_str());
  std::printf("%s\n", driver::UtilizationTable(runs).ToString().c_str());
  return 0;
}

int CmdSensitivity(const util::CliParser& cli) {
  driver::Scenario scenario = driver::ScenarioFromFlags(cli);
  std::vector<double> factors;
  for (const std::string& f : util::Split(cli.GetString("factors"), ',')) {
    auto v = util::ParseDouble(f);
    if (!v || *v <= 0) return Fail("bad factor: " + f);
    factors.push_back(*v);
  }
  std::vector<std::string> policies = core::AllPolicyNames();
  if (cli.Provided("policies")) {
    policies = util::Split(cli.GetString("policies"), ',');
  }
  util::ThreadPool pool;
  driver::SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = policies;
  spec.expansion_factors = factors;
  spec.pool = &pool;
  auto runs = driver::RunSweep(spec).runs;
  if (cli.GetBool("csv")) {
    std::fputs(driver::RunsToCsv(runs).c_str(), stdout);
    return 0;
  }
  std::printf("%s\n",
              driver::SensitivityTable(runs, factors, policies)
                  .ToString()
                  .c_str());
  return 0;
}

int CmdBbSweep(const util::CliParser& cli) {
  driver::Scenario scenario = driver::ScenarioFromFlags(cli);
  driver::SweepSpec spec;
  spec.scenario = &scenario;
  spec.policies = core::AllPolicyNames();
  if (cli.Provided("policies")) {
    spec.policies = util::Split(cli.GetString("policies"), ',');
  }
  for (const std::string& c : util::Split(cli.GetString("bb-capacities"),
                                          ',')) {
    auto v = util::ParseDouble(c);
    if (!v || *v < 0) return Fail("bad BB capacity: " + c);
    spec.bb_capacities_gb.push_back(*v);
  }
  spec.bb_drain_gbps = cli.GetDouble("bb-drain");
  spec.bb_absorb_gbps = cli.GetDouble("bb-absorb");
  spec.bb_per_job_quota_gb = cli.GetDouble("bb-quota");
  spec.bb_congestion_watermark = cli.GetDouble("bb-watermark");
  util::ThreadPool pool;
  if (cli.Provided("state-dir")) {
    driver::ResumableRunner::Options opt;
    opt.root_directory = cli.GetString("state-dir");
    opt.checkpoint_every_wall_seconds = 30.0;
    opt.watchdog_no_progress_seconds = cli.GetDouble("watchdog");
    spec.resumable = opt;
  } else {
    spec.pool = &pool;
  }
  driver::SweepResult result = driver::RunSweep(spec);
  if (cli.GetBool("csv")) {
    std::fputs(driver::RunsToCsv(result.runs).c_str(), stdout);
    return 0;
  }
  std::printf("avg wait (min) by burst-buffer capacity, absorbed-request "
              "share in parentheses\n%s\n",
              driver::BbCapacityTable(result).ToString().c_str());
  return 0;
}

int CmdReplications(const util::CliParser& cli) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& s : util::Split(cli.GetString("seeds"), ',')) {
    auto v = util::ParseInt(s);
    if (!v || *v < 0) return Fail("bad seed: " + s);
    seeds.push_back(static_cast<std::uint64_t>(*v));
  }
  std::vector<std::string> policies = core::AllPolicyNames();
  if (cli.Provided("policies")) {
    policies = util::Split(cli.GetString("policies"), ',');
  }
  util::ThreadPool pool;
  auto runs = driver::RunReplications(
      driver::EvaluationMonthFactory(
          static_cast<int>(cli.GetInt("workload")), cli.GetDouble("days")),
      seeds, policies, &pool);
  std::printf("%s\n", driver::ReplicationTable(runs).ToString().c_str());
  return 0;
}

int CmdChaos(const util::CliParser& cli) {
  driver::ChaosOptions options;
  options.base_seed = static_cast<std::uint64_t>(cli.GetInt("chaos-seed"));
  options.schedules = static_cast<int>(cli.GetInt("chaos-schedules"));
  options.duration_days = cli.GetDouble("chaos-days");
  if (cli.Provided("policies")) {
    options.policies = util::Split(cli.GetString("policies"), ',');
  }
  options.verify_reproducible = !cli.GetBool("no-repro-check");
  double watchdog_seconds = cli.GetDouble("watchdog");
  if (watchdog_seconds > 0) options.watchdog_seconds = watchdog_seconds;

  driver::ChaosSummary summary = driver::RunChaos(options);
  std::string csv_path = cli.GetString("chaos-out");
  if (!csv_path.empty()) {
    util::WriteFileAtomic(csv_path, driver::ChaosCsv(summary));
    std::printf("wrote %zu cells to %s\n", summary.cells.size(),
                csv_path.c_str());
  }
  for (const driver::ChaosCell& cell : summary.cells) {
    if (cell.ok()) continue;
    std::fprintf(stderr, "FAIL schedule=%d seed=%llu policy=%s: %s\n",
                 cell.schedule,
                 static_cast<unsigned long long>(cell.seed),
                 cell.policy.c_str(),
                 cell.reproducible ? cell.error.c_str()
                                   : "non-reproducible digest");
  }
  std::printf("chaos soak: %zu cells, %d failure(s)\n", summary.cells.size(),
              summary.failures);
  return summary.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "iosched <generate|simulate|sweep|sensitivity|bbsweep|replications|"
      "chaos> [flags]\n"
      "I/O-aware batch scheduling framework (CLUSTER'15 reproduction)");
  driver::AddScenarioFlags(cli);
  driver::AddBurstBufferFlags(cli);
  driver::AddAppCheckpointFlags(cli);
  cli.AddFlag("seed", "101", "generator seed (generate)");
  cli.AddFlag("out", "workload", "output path stem (generate)");
  cli.AddFlag("policy", "ADAPTIVE",
              "I/O policy (simulate): " + core::PolicyNamesHelp());
  cli.AddFlag("policies", "", "comma list of policies (sweep/sensitivity)");
  cli.AddFlag("factors", "0.3,0.5,0.7,0.9,1.2,1.5",
              "expansion factors (sensitivity)");
  cli.AddFlag("bb-capacities", "0,1000,2000,4000,8000",
              "comma list of BB capacities in GB (bbsweep; 0 = tier off)");
  cli.AddFlag("seeds", "101,202,303", "seeds (replications)");
  cli.AddFlag("records", "", "write per-job records CSV here (simulate)");
  cli.AddFlag("event-log", "", "write scheduling-event CSV here (simulate)");
  cli.AddFlag("trace-out", "",
              "write Chrome trace-event JSON here (simulate; enables obs)");
  cli.AddFlag("stats-out", "",
              "write time-series CSV here (simulate; enables obs)");
  cli.AddFlag("sample-dt", "600",
              "time-series sampling period in simulated seconds (simulate)");
  cli.AddFlag("checkpoint-dir", "",
              "directory for periodic state checkpoints (simulate)");
  cli.AddFlag("checkpoint-every", "0",
              "checkpoint every N processed events (simulate; 0 = off)");
  cli.AddFlag("checkpoint-every-sim", "0",
              "checkpoint every N simulated seconds (simulate; 0 = off)");
  cli.AddFlag("checkpoint-every-wall", "0",
              "checkpoint every N wall-clock seconds (simulate; 0 = off)");
  cli.AddFlag("checkpoint-keep", "3",
              "keep the newest N checkpoints (simulate; <= 0 keeps all)");
  cli.AddFlag("resume-from", "",
              "restore this checkpoint file before running (simulate)");
  cli.AddFlag("watchdog", "0",
              "abort after N wall seconds without event progress "
              "(simulate/sweep; 0 = off)");
  cli.AddFlag("state-dir", "",
              "crash-safe sweep state root: skip finished cells, resume the "
              "interrupted one (sweep)");
  cli.AddBoolFlag("resume",
                  "resume from the newest valid checkpoint in "
                  "--checkpoint-dir (simulate)");
  cli.AddBoolFlag("walltime-kill", "kill jobs at their requested walltime");
  cli.AddBoolFlag("breakdown", "print per-size-class metrics (simulate)");
  cli.AddBoolFlag("timeline", "print occupancy/demand strip charts (simulate)");
  cli.AddBoolFlag("csv",
                  "emit CSV instead of tables (sweep/sensitivity/bbsweep)");
  cli.AddFlag("chaos-seed", "1", "base seed for fault schedules (chaos)");
  cli.AddFlag("chaos-schedules", "50",
              "number of randomized fault schedules (chaos)");
  cli.AddFlag("chaos-days", "0.25",
              "simulated days per chaos schedule (chaos)");
  cli.AddFlag("chaos-out", "", "write per-cell summary CSV here (chaos)");
  cli.AddBoolFlag("no-repro-check",
                  "skip the same-seed re-run digest comparison (chaos)");

  if (auto exit_code = driver::ParseStandardFlags(cli, argc - 1, argv + 1)) {
    return *exit_code;
  }
  if (cli.positional().empty()) {
    std::fputs(cli.Help().c_str(), stdout);
    return 1;
  }
  const std::string& command = cli.positional().front();
  try {
    if (command == "generate") return CmdGenerate(cli);
    if (command == "simulate") return CmdSimulate(cli);
    if (command == "sweep") return CmdSweep(cli);
    if (command == "sensitivity") return CmdSensitivity(cli);
    if (command == "bbsweep") return CmdBbSweep(cli);
    if (command == "replications") return CmdReplications(cli);
    if (command == "chaos") return CmdChaos(cli);
  } catch (const std::exception& e) {
    return Fail(e.what());
  }
  return Fail("unknown command: " + command);
}
