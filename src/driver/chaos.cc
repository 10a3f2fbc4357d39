#include "driver/chaos.h"

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ckpt/checkpoint.h"
#include "core/invariants.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "driver/scenario.h"
#include "driver/watchdog.h"
#include "metrics/digest.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/app_checkpoint.h"

namespace iosched::driver {
namespace {

/// RNG stream for chaos-schedule randomization (17/23/29/31/37 are taken by
/// the engine; see util::Rng usage notes in the respective subsystems).
constexpr std::uint64_t kChaosStream = 41;
/// Separate stream for picking the checkpoint a cell resumes from, so the
/// pick never shifts the fault-schedule draws above.
constexpr std::uint64_t kChaosResumeStream = 43;
/// Checkpoints the saving run takes across the submission window.
constexpr double kChaosCheckpointsPerRun = 6.0;

/// Draw one randomized fault schedule for seed `seed`. Every knob the fault
/// model exposes is exercised somewhere across the soak: storage
/// degradations, midplane outages, mid-run kills, lossy and lossless BB
/// capacity faults, drain degradations, and transfer stragglers.
faults::FaultPlanConfig DrawPlanConfig(std::uint64_t seed) {
  util::Rng rng(seed, kChaosStream);
  faults::FaultPlanConfig fp;
  fp.enabled = true;
  fp.seed = seed;
  fp.degraded_fraction = rng.Uniform(0.0, 0.3);
  fp.degradation_factor = rng.Uniform(0.3, 1.0);
  fp.degraded_window_seconds = 1800.0;
  fp.midplane_outages = static_cast<int>(rng.UniformInt(0, 2));
  fp.midplane_outage_seconds = rng.Uniform(600.0, 7200.0);
  fp.job_kill_probability = rng.Uniform(0.0, 0.05);
  fp.bb_faults = static_cast<int>(rng.UniformInt(0, 2));
  fp.bb_fault_seconds = rng.Uniform(600.0, 3600.0);
  fp.bb_fault_lose_data = rng.Bernoulli(0.5);
  fp.drain_degraded_fraction = rng.Uniform(0.0, 0.3);
  fp.drain_degradation_factor = rng.Uniform(0.3, 1.0);
  fp.drain_window_seconds = 3600.0;
  fp.straggler_probability = rng.Uniform(0.0, 0.3);
  fp.straggler_factor = rng.Uniform(0.1, 0.6);
  return fp;
}

/// The common scenario for schedule `seed`: reduced-scale workload plus a
/// burst buffer, transfer timeouts, jittered scheduler backoff, and the
/// invariant checker — i.e. every robustness path armed at once.
Scenario MakeChaosScenario(std::uint64_t seed, const ChaosOptions& options) {
  Scenario scenario =
      MakeTestScenario(seed, options.duration_days, options.jobs_per_day);
  scenario.name = "chaos-" + std::to_string(seed);
  // Sized against MakeTestScenario's workload (phases of a few hundred GB):
  // the capacity fits a handful of phases so absorbs and capacity spills
  // both happen, and the slow absorb tier stretches absorptions to minutes
  // — long enough for straggler draws to blow the 900 s deadline (spill to
  // the direct path) and for lossy BB faults to catch absorbs in flight
  // (re-flush).
  scenario.config.burst_buffer = {.capacity_gb = 4000.0,
                                  .drain_gbps = 5.0,
                                  .absorb_gbps = 2.0,
                                  .per_job_quota_gb = 0.0,
                                  .congestion_watermark = 0.8};
  scenario.config.faults.plan_config = DrawPlanConfig(seed);
  scenario.config.transfer_retry = {.timeout_seconds = 900.0,
                                    .max_retries = 3,
                                    .backoff_base_seconds = 30.0,
                                    .backoff_max_seconds = 600.0,
                                    .backoff_jitter_fraction = 0.2,
                                    .jitter_seed = seed};
  scenario.config.batch.backoff_jitter_fraction = 0.1;
  scenario.config.batch.backoff_jitter_seed = seed;
  scenario.config.check_invariants = true;
  scenario.config.invariant_check_every_events =
      options.invariant_check_every_events;
  // Every fourth schedule additionally arms the application-resilience
  // stack: Young/Daly checkpoint traffic rewritten into the workload, the
  // MTBF failure process, restart-from-checkpoint semantics, and deferrable
  // flushes — so flush parking/forced release, durable-marker settling, and
  // rework accounting all soak against the same fault schedules as the base
  // cells. The short MTBF keeps flush phases and failures frequent inside
  // the reduced-duration run.
  if (seed % 4 == 3) {
    workload::AppCheckpointConfig ac;
    ac.enabled = true;
    ac.mtbf_seconds = 1800.0;
    ac.min_interval_seconds = 60.0;
    ac.min_compute_seconds = 120.0;
    ac.seed = seed;
    workload::ApplyCheckpointTraffic(
        scenario.jobs, ac, scenario.config.machine.node_bandwidth_gbps);
    scenario.config.app_checkpoint.enabled = true;
    scenario.config.app_checkpoint.max_defer_seconds = 300.0;
    scenario.config.faults.plan_config.job_mtbf_seconds = 1800.0;
    scenario.config.faults.restart_mode =
        faults::RestartMode::kRestartFromAppCheckpoint;
  }
  return scenario;
}

struct CellRun {
  std::uint64_t digest = 0;
  core::SimulationResult result;
  std::string error;
};

/// Execute one cell run under an optional watchdog, translating every
/// failure mode into an error string instead of propagating. `checkpoint`
/// turns on saving or resuming.
CellRun ExecuteOnce(const Scenario& scenario, const std::string& policy,
                    const ChaosOptions& options,
                    const ckpt::Options& checkpoint = {}) {
  CellRun run;
  core::SimulationConfig config = scenario.config;
  config.policy = policy;
  config.checkpoint = checkpoint;
  core::RunControl control;
  config.control = &control;
  try {
    std::unique_ptr<Watchdog> watchdog;
    if (options.watchdog_seconds > 0) {
      watchdog = std::make_unique<Watchdog>(
          control, Watchdog::Options{
                       .no_progress_seconds = options.watchdog_seconds,
                       .poll_interval_seconds = 0.25,
                   });
    }
    run.result = core::RunSimulation(config, scenario.jobs);
    if (watchdog != nullptr) watchdog->Stop();
    run.digest = metrics::DigestRecords(run.result.records);
  } catch (const core::InvariantViolation& e) {
    run.error = std::string("invariant violation: ") + e.what();
  } catch (const core::SimulationAborted& e) {
    run.error = std::string("stuck run: ") + e.what();
  } catch (const std::exception& e) {
    run.error = std::string("engine error: ") + e.what();
  }
  return run;
}

/// A fresh private directory for one cell's checkpoints; removed on scope
/// exit.
class ScratchDir {
 public:
  ScratchDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "iosched-chaos-XXXXXX")
            .string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("RunChaos: cannot create a checkpoint "
                               "directory under " + pattern);
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Resume `first`'s run from one of the checkpoints it saved (with
/// `saving`), picked by the cell's seed, and require the same record digest
/// and bandwidth summary. The resumed run saves at the same cadence into a
/// second directory; its first checkpoint must be byte-identical to the
/// first run's next one. Records the pick in `cell` and returns "" or the
/// failure.
std::string CheckResume(const Scenario& scenario, const ChaosOptions& options,
                        const CellRun& first, const ckpt::Options& saving,
                        ChaosCell& cell) {
  auto checkpoints = ckpt::ListCheckpoints(saving.directory);
  if (checkpoints.empty()) return "";
  util::Rng rng(cell.seed, kChaosResumeStream);
  const std::size_t pick = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(checkpoints.size()) - 1));
  const auto& [sequence, path] = checkpoints[pick];
  cell.resume_checkpoint = sequence;
  ScratchDir resaved;
  ckpt::Options resume = saving;
  resume.directory = resaved.path();
  resume.resume_from = path;
  CellRun resumed = ExecuteOnce(scenario, cell.policy, options, resume);
  std::string where = "resume from checkpoint " + std::to_string(sequence);
  if (!resumed.error.empty()) return where + " failed: " + resumed.error;
  auto resaved_files = ckpt::ListCheckpoints(resaved.path());
  if (pick + 1 < checkpoints.size() &&
      (resaved_files.empty() ||
       ReadBytes(resaved_files.front().second) !=
           ReadBytes(checkpoints[pick + 1].second))) {
    return where + ": its first checkpoint differs from checkpoint " +
           std::to_string(checkpoints[pick + 1].first);
  }
  if (resumed.digest != first.digest) {
    return where + ": record digest differs";
  }
  if (metrics::DigestBandwidth(resumed.result.bandwidth) !=
      metrics::DigestBandwidth(first.result.bandwidth)) {
    return where + ": bandwidth summary differs";
  }
  return "";
}

}  // namespace

ChaosSummary RunChaos(const ChaosOptions& options) {
  if (options.schedules <= 0) {
    throw std::invalid_argument("RunChaos: schedules must be positive");
  }
  std::vector<std::string> policies = options.policies;
  if (policies.empty()) policies = core::AllPolicyNames();
  for (const std::string& policy : policies) {
    core::MakePolicy(policy);  // throws on unknown names before any run
  }

  ChaosSummary summary;
  summary.cells.reserve(
      static_cast<std::size_t>(options.schedules) * policies.size());
  for (int s = 0; s < options.schedules; ++s) {
    const std::uint64_t seed = options.base_seed + static_cast<std::uint64_t>(s);
    Scenario scenario = MakeChaosScenario(seed, options);
    for (const std::string& policy : policies) {
      ChaosCell cell;
      cell.schedule = s;
      cell.seed = seed;
      cell.policy = policy;
      // The first run saves checkpoints when reproducibility is verified;
      // the from-scratch re-run below then also proves saving left the
      // schedule alone.
      std::unique_ptr<ScratchDir> dir;
      ckpt::Options saving;
      if (options.verify_reproducible) {
        dir = std::make_unique<ScratchDir>();
        saving.directory = dir->path();
        saving.every_sim_seconds = options.duration_days *
                                   util::kSecondsPerDay /
                                   kChaosCheckpointsPerRun;
        saving.keep_last = 0;
      }
      CellRun first = ExecuteOnce(scenario, policy, options, saving);
      cell.error = first.error;
      if (first.error.empty()) {
        cell.digest = first.digest;
        cell.jobs = first.result.records.size();
        cell.events = first.result.events_processed;
        cell.invariant_checks = first.result.invariant_checks;
        cell.fault_kills = first.result.faults.fault_kills;
        cell.transfer_timeouts = first.result.transfer_timeouts;
        cell.transfer_retries = first.result.transfer_retries;
        cell.straggler_spills = first.result.straggler_spills;
        cell.bb_reflushed_requests = first.result.bb_reflushed_requests;
        cell.flushes = first.result.report.total_flushes;
        cell.flush_deferrals = first.result.flush_deferrals;
        cell.forced_flush_releases = first.result.forced_flush_releases;
        if (options.verify_reproducible) {
          CellRun second = ExecuteOnce(scenario, policy, options);
          if (!second.error.empty()) {
            cell.error = "re-run failed: " + second.error;
          } else if (second.digest != first.digest) {
            cell.reproducible = false;
          } else {
            cell.error = CheckResume(scenario, options, first, saving, cell);
          }
        }
      }
      if (!cell.ok()) ++summary.failures;
      summary.cells.push_back(std::move(cell));
    }
  }
  return summary;
}

std::string ChaosCsv(const ChaosSummary& summary) {
  std::ostringstream out;
  out << "schedule,seed,policy,ok,digest,jobs,events,invariant_checks,"
         "fault_kills,transfer_timeouts,transfer_retries,straggler_spills,"
         "bb_reflushed_requests,flushes,flush_deferrals,"
         "forced_flush_releases,reproducible,resume_checkpoint,error\n";
  for (const ChaosCell& cell : summary.cells) {
    std::string error = cell.error;
    for (char& c : error) {
      if (c == ',' || c == '\n' || c == '\r') c = ';';
    }
    out << cell.schedule << ',' << cell.seed << ',' << cell.policy << ','
        << (cell.ok() ? 1 : 0) << ',' << metrics::HexDigest(cell.digest)
        << ',' << cell.jobs << ',' << cell.events << ','
        << cell.invariant_checks << ',' << cell.fault_kills << ','
        << cell.transfer_timeouts << ',' << cell.transfer_retries << ','
        << cell.straggler_spills << ',' << cell.bb_reflushed_requests << ','
        << cell.flushes << ',' << cell.flush_deferrals << ','
        << cell.forced_flush_releases << ','
        << (cell.reproducible ? 1 : 0) << ',' << cell.resume_checkpoint
        << ',' << error << '\n';
  }
  return out.str();
}

}  // namespace iosched::driver
