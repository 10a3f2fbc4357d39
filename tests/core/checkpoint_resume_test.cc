// Resume-equivalence: the correctness bar of the checkpoint subsystem. A
// run restored from ANY checkpoint must produce per-job records, bandwidth
// summary and report bit-identical (FNV-1a digest equality) to the
// uninterrupted run — for every policy family and with fault injection on
// or off. Also covers the failure modes: config mismatch, corrupted
// checkpoints, a missing bandwidth series, and the abort/emergency-
// checkpoint path used by the watchdog.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/event_log.h"
#include "core/simulation.h"
#include "driver/scenario.h"
#include "metrics/digest.h"
#include "obs/hub.h"
#include "workload/app_checkpoint.h"

namespace iosched {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& leaf) {
  fs::path dir = fs::path(testing::TempDir()) / ("ckpt_resume_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct Case {
  const char* policy;
  bool faults;
  bool burst_buffer = false;
  /// Storage-tier fault kinds: lossy BB capacity faults, drain
  /// degradations, transfer stragglers with timeout/retry armed. Implies
  /// burst_buffer.
  bool bb_faults = false;
  /// Application checkpoint traffic: Young/Daly flush phases, the MTBF
  /// failure process, restart from the last durable flush, and deferrable
  /// flushes. With ADAPTIVE and a burst buffer, flushes submitted between
  /// grant cycles are parked on the previous cycle's tier snapshot, which
  /// must therefore survive the round trip.
  bool app_ckpt = false;
  /// Tied and out-of-order submits (MixArrivals), with the sampler tick
  /// on: arrivals are armed one at a time from a cursor in (submit_time,
  /// index) order, and a resume must re-arm the right one beside the
  /// restored tick.
  bool mixed_arrivals = false;
};

std::string CaseSlug(const Case& c) {
  return std::string(c.policy) + (c.faults ? "_faulted" : "_clean") +
         (c.burst_buffer ? "_bb" : "") + (c.bb_faults ? "_bbfaults" : "") +
         (c.app_ckpt ? "_appckpt" : "") +
         (c.mixed_arrivals ? "_mixed_arrivals" : "");
}

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  return CaseSlug(info.param);
}

/// gtest prints the parameter after each listed test name; the slug keeps
/// those names stable where a raw byte dump of Case would print a pointer.
void PrintTo(const Case& c, std::ostream* os) { *os << CaseSlug(c); }

/// Every third job arrives together with the one before it, then the
/// workload is reversed, so workload order is neither submit order nor
/// free of ties.
void MixArrivals(workload::Workload& jobs) {
  for (std::size_t i = 2; i < jobs.size(); i += 3) {
    jobs[i].submit_time = jobs[i - 1].submit_time;
  }
  std::reverse(jobs.begin(), jobs.end());
}

/// Runs with a fresh hub when the case samples, so resumed runs meet the
/// sampler tick their checkpoints saved.
core::SimulationResult RunCase(const Case& c,
                               const core::SimulationConfig& config,
                               const workload::Workload& jobs) {
  if (!c.mixed_arrivals) return core::RunSimulation(config, jobs);
  obs::Options options;
  options.enabled = true;
  options.sample_dt_seconds = 600.0;
  obs::Hub hub(options);
  return core::RunSimulation(config, jobs, nullptr, &hub);
}

/// Congested half-day scenario; walltime kills and (optionally) fault
/// injection exercise the retry/backoff bookkeeping across checkpoints.
/// The burst-buffer variants make the BB state (drain backlog, per-job
/// usage, pending absorbed completions) part of the resume-equivalence bar.
std::pair<core::SimulationConfig, workload::Workload> BuildCase(
    const Case& c) {
  driver::Scenario scenario = driver::MakeTestScenario(
      /*seed=*/7, /*duration_days=*/0.5, /*jobs_per_day=*/200.0);
  core::SimulationConfig config = scenario.config;
  config.policy = c.policy;
  if (c.faults) {
    config.faults.plan_config.enabled = true;
    config.faults.plan_config.seed = 5;
    config.faults.plan_config.degraded_fraction = 0.2;
    config.faults.plan_config.degradation_factor = 0.5;
    config.faults.plan_config.degraded_window_seconds = 1800.0;
    config.faults.plan_config.job_kill_probability = 0.02;
  }
  if (c.burst_buffer) {
    config.burst_buffer.capacity_gb = 300.0;
    config.burst_buffer.drain_gbps = 5.0;  // BWmax here is ~21 GB/s
    config.burst_buffer.absorb_gbps = 10.0;
    config.burst_buffer.per_job_quota_gb = 150.0;
    config.burst_buffer.congestion_watermark = 0.8;
  }
  if (c.bb_faults) {
    // Slow, roomy buffer so absorbs are long-lived: the every-60-events
    // checkpoint cadence then lands snapshots mid-drain, mid-absorb, and
    // inside straggler and drain-degradation windows.
    config.burst_buffer.capacity_gb = 2000.0;
    config.burst_buffer.drain_gbps = 4.0;
    config.burst_buffer.absorb_gbps = 2.0;
    config.burst_buffer.per_job_quota_gb = 0.0;
    config.burst_buffer.congestion_watermark = 0.8;
    faults::FaultPlanConfig& fp = config.faults.plan_config;
    fp.enabled = true;
    fp.seed = 5;
    fp.bb_faults = 2;
    fp.bb_fault_seconds = 1800.0;
    fp.bb_fault_lose_data = true;
    fp.drain_degraded_fraction = 0.3;
    fp.drain_degradation_factor = 0.4;
    fp.drain_window_seconds = 1800.0;
    fp.straggler_probability = 0.25;
    fp.straggler_factor = 0.2;
    config.transfer_retry = {.timeout_seconds = 600.0,
                             .max_retries = 2,
                             .backoff_base_seconds = 30.0,
                             .backoff_max_seconds = 300.0,
                             .backoff_jitter_fraction = 0.2};
    config.batch.backoff_jitter_fraction = 0.1;
  }
  if (c.app_ckpt) {
    workload::AppCheckpointConfig ac;
    ac.enabled = true;
    ac.mtbf_seconds = 1800.0;
    ac.min_interval_seconds = 60.0;
    ac.min_compute_seconds = 120.0;
    ac.seed = 7;
    workload::ApplyCheckpointTraffic(scenario.jobs, ac,
                                     config.machine.node_bandwidth_gbps);
    config.app_checkpoint.enabled = true;
    config.app_checkpoint.max_defer_seconds = 300.0;
    config.faults.plan_config.enabled = true;
    config.faults.plan_config.seed = 5;
    config.faults.plan_config.job_mtbf_seconds = 1800.0;
    config.faults.restart_mode = faults::RestartMode::kRestartFromAppCheckpoint;
  }
  if (c.mixed_arrivals) MixArrivals(scenario.jobs);
  return {config, std::move(scenario.jobs)};
}

class CheckpointResumeTest : public testing::TestWithParam<Case> {};

TEST_P(CheckpointResumeTest, EveryCheckpointResumesToIdenticalRecords) {
  auto [config, jobs] = BuildCase(GetParam());
  core::SimulationResult uninterrupted = RunCase(GetParam(), config, jobs);
  std::uint64_t reference = metrics::DigestRecords(uninterrupted.records);
  std::uint64_t reference_bandwidth =
      metrics::DigestBandwidth(uninterrupted.bandwidth);
  std::uint64_t reference_report = metrics::DigestReport(uninterrupted.report);

  // Pass 1: the checkpointing run itself must not perturb the schedule.
  // The directory must be unique per case — ctest runs the parameterized
  // cases as parallel processes, and a shared directory gets remove_all'd
  // by one case while another is still reading its snapshots.
  std::string dir = TestDir(CaseSlug(GetParam()));
  core::SimulationConfig saving = config;
  saving.checkpoint.directory = dir;
  saving.checkpoint.every_events = 60;
  saving.checkpoint.keep_last = 0;  // keep every snapshot
  core::SimulationResult checkpointed = RunCase(GetParam(), saving, jobs);
  EXPECT_EQ(metrics::DigestRecords(checkpointed.records), reference);
  EXPECT_EQ(metrics::DigestBandwidth(checkpointed.bandwidth),
            reference_bandwidth);
  ASSERT_GT(checkpointed.checkpoints_written, 0u);

  // Pass 2: resuming from EACH snapshot reproduces the reference exactly.
  // Each resumed run also saves at the same 60-event cadence: its first
  // checkpoint must be byte-identical to the uninterrupted run's next one,
  // so the restored state (pending events included) saves back unchanged.
  auto snapshots = ckpt::ListCheckpoints(dir);
  ASSERT_EQ(snapshots.size(), checkpointed.checkpoints_written);
  std::string resaved_dir = TestDir(CaseSlug(GetParam()) + "_resaved");
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const std::string& path = snapshots[i].second;
    core::SimulationConfig resume = config;
    resume.checkpoint.resume_from = path;
    resume.checkpoint.directory = resaved_dir;
    resume.checkpoint.every_events = 60;
    resume.checkpoint.keep_last = 0;  // the first save must survive
    fs::remove_all(resaved_dir);
    core::SimulationResult resumed = RunCase(GetParam(), resume, jobs);
    auto resaved = ckpt::ListCheckpoints(resaved_dir);
    if (i + 1 < snapshots.size()) {
      ASSERT_FALSE(resaved.empty()) << "no checkpoint after " << path;
      EXPECT_EQ(ReadBytes(resaved.front().second),
                ReadBytes(snapshots[i + 1].second))
          << "first checkpoint after resuming from " << path
          << " differs from " << snapshots[i + 1].second;
    }
    EXPECT_EQ(metrics::DigestRecords(resumed.records), reference)
        << "divergence after resuming from " << path;
    EXPECT_EQ(metrics::DigestBandwidth(resumed.bandwidth), reference_bandwidth)
        << "bandwidth summary differs after resuming from " << path;
    EXPECT_EQ(metrics::DigestReport(resumed.report), reference_report)
        << "report differs after resuming from " << path;
    EXPECT_EQ(resumed.resumed_from, path);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CheckpointResumeTest,
    testing::Values(Case{"BASE_LINE", false}, Case{"FCFS", false},
                    Case{"MAX_UTIL", false}, Case{"ADAPTIVE", false},
                    Case{"BASE_LINE", true}, Case{"FCFS", true},
                    Case{"MAX_UTIL", true}, Case{"ADAPTIVE", true},
                    Case{"BASE_LINE", false, true},
                    Case{"FCFS", false, true},
                    Case{"ADAPTIVE", false, true},
                    Case{"ADAPTIVE", true, true},
                    Case{"BASE_LINE", false, true, true},
                    Case{"ADAPTIVE", true, true, true},
                    // ADAPTIVE parks flushes submitted between grant
                    // cycles on the previous cycle's tier snapshot; drain
                    // degradations make that snapshot say "defer".
                    Case{"ADAPTIVE", false, true, true, true},
                    Case{"ADAPTIVE", true, true, true, true},
                    // Arrivals fire from a cursor: a resume must re-arm
                    // exactly the next one, ties and all.
                    Case{"BASE_LINE", false, false, false, false, true},
                    Case{"ADAPTIVE", true, false, false, false, true}),
    CaseName);

TEST(Arrivals, SubmitsFireInSubmitTimeThenWorkloadOrder) {
  auto [config, jobs] =
      BuildCase({"BASE_LINE", false, false, false, false, true});
  std::map<workload::JobId, std::size_t> index;
  for (std::size_t i = 0; i < jobs.size(); ++i) index[jobs[i].id] = i;
  core::EventLog log;
  core::RunSimulation(config, jobs, &log);
  std::vector<std::pair<double, std::size_t>> submits;
  for (const core::SchedEvent& e : log.events()) {
    if (e.kind == core::SchedEventKind::kSubmit) {
      submits.emplace_back(e.time, index.at(e.job));
    }
  }
  ASSERT_EQ(submits.size(), jobs.size());
  EXPECT_TRUE(std::is_sorted(submits.begin(), submits.end()));
  // The case really mixes the order: ties, and index order != time order.
  EXPECT_NE(std::adjacent_find(submits.begin(), submits.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first == b.first;
                               }),
            submits.end());
  EXPECT_GT(submits.front().second, submits.back().second);
}

TEST(CheckpointResume, EngineSectionIgnoresArrivalsStillToCome) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  workload::Workload more = jobs;
  double last = 0.0;
  workload::JobId next_id = 0;
  for (const workload::Job& job : jobs) {
    last = std::max(last, job.submit_time);
    next_id = std::max(next_id, job.id + 1);
  }
  for (int i = 0; i < 1000; ++i) {
    workload::Job extra = jobs[static_cast<std::size_t>(i) % jobs.size()];
    extra.id = next_id + i;
    extra.submit_time = last + 86400.0 + i;
    more.push_back(extra);
  }
  auto first_engine_section = [&](const workload::Workload& w,
                                  const std::string& leaf) {
    core::SimulationConfig saving = config;
    saving.checkpoint.directory = TestDir(leaf);
    saving.checkpoint.every_events = 60;
    saving.checkpoint.keep_last = 0;
    core::RunSimulation(saving, w);
    auto snapshots = ckpt::ListCheckpoints(saving.checkpoint.directory);
    if (snapshots.empty()) {
      ADD_FAILURE() << "no checkpoint saved";
      return std::string();
    }
    return std::string(ckpt::CheckpointFile::Load(snapshots.front().second)
                           .Section("engine"));
  };
  std::string base = first_engine_section(jobs, "engine_base");
  std::string extended = first_engine_section(more, "engine_more");
  EXPECT_EQ(extended.size(), base.size());
}

TEST(CheckpointResume, PendingSamplerTickNeedsASampler) {
  // RunCase attaches a sampling hub to mixed-arrival cases, so their
  // checkpoints hold a pending sampler tick. The hub is not part of the
  // config, so the hash also matches a run without one; the engine must
  // refuse that run rather than drop the tick.
  const Case c{"BASE_LINE", false, false, false, false, true};
  auto [config, jobs] = BuildCase(c);
  std::string dir = TestDir("sampler_tick");
  core::SimulationConfig saving = config;
  saving.checkpoint.directory = dir;
  saving.checkpoint.every_events = 300;
  RunCase(c, saving, jobs);
  core::SimulationConfig resume = config;
  resume.checkpoint.resume_from = ckpt::ListCheckpoints(dir).front().second;
  EXPECT_THROW(core::RunSimulation(resume, jobs), ckpt::ConfigMismatchError);
  EXPECT_NO_THROW(RunCase(c, resume, jobs));
}

TEST(CheckpointResume, MismatchedConfigIsRejected) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  std::string dir = TestDir("mismatch");
  core::SimulationConfig saving = config;
  saving.checkpoint.directory = dir;
  saving.checkpoint.every_events = 300;
  core::RunSimulation(saving, jobs);
  std::string snapshot = ckpt::ListCheckpoints(dir).front().second;

  // Same workload, different policy: the hash pins the whole schedule.
  core::SimulationConfig other = config;
  other.policy = "FCFS";
  other.checkpoint.resume_from = snapshot;
  EXPECT_THROW(core::RunSimulation(other, jobs), ckpt::ConfigMismatchError);

  // Same config, perturbed workload.
  workload::Workload other_jobs = jobs;
  other_jobs.back().submit_time += 1.0;
  core::SimulationConfig same = config;
  same.checkpoint.resume_from = snapshot;
  EXPECT_THROW(core::RunSimulation(same, other_jobs),
               ckpt::ConfigMismatchError);
}

TEST(CheckpointResume, KeptBandwidthSeriesResumesIdentically) {
  auto [config, jobs] = BuildCase({"ADAPTIVE", true, true});
  config.keep_bandwidth_samples = true;
  core::SimulationResult reference = core::RunSimulation(config, jobs);
  ASSERT_GT(reference.bandwidth_samples.size(), 2u);

  std::string dir = TestDir("kept_samples");
  core::SimulationConfig saving = config;
  saving.checkpoint.directory = dir;
  saving.checkpoint.every_events = 300;
  saving.checkpoint.keep_last = 0;
  core::RunSimulation(saving, jobs);
  for (const auto& [seq, path] : ckpt::ListCheckpoints(dir)) {
    core::SimulationConfig resume = config;
    resume.checkpoint.resume_from = path;
    core::SimulationResult resumed = core::RunSimulation(resume, jobs);
    ASSERT_EQ(resumed.bandwidth_samples.size(),
              reference.bandwidth_samples.size())
        << path;
    for (std::size_t i = 0; i < resumed.bandwidth_samples.size(); ++i) {
      EXPECT_EQ(resumed.bandwidth_samples[i].time,
                reference.bandwidth_samples[i].time);
      EXPECT_EQ(resumed.bandwidth_samples[i].demand_gbps,
                reference.bandwidth_samples[i].demand_gbps);
    }
    EXPECT_EQ(metrics::DigestBandwidth(resumed.bandwidth),
              metrics::DigestBandwidth(reference.bandwidth));
  }
}

TEST(CheckpointResume, KeepingSamplesNeedsTheSavedSeries) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  std::string dir = TestDir("no_samples");
  core::SimulationConfig saving = config;  // keep_bandwidth_samples off
  saving.checkpoint.directory = dir;
  saving.checkpoint.every_events = 300;
  core::RunSimulation(saving, jobs);
  std::string snapshot = ckpt::ListCheckpoints(dir).back().second;

  // The knob is outside the hash, so the file is otherwise acceptable —
  // but it holds no series to resume, and a truncated one is refused.
  core::SimulationConfig resume = config;
  resume.keep_bandwidth_samples = true;
  resume.checkpoint.resume_from = snapshot;
  EXPECT_THROW(core::RunSimulation(resume, jobs), ckpt::ConfigMismatchError);

  // Without the knob the same file resumes normally.
  resume.keep_bandwidth_samples = false;
  EXPECT_NO_THROW(core::RunSimulation(resume, jobs));
}

TEST(CheckpointResume, ReportOnlyKnobsDoNotChangeTheHash) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  std::uint64_t base = core::SimulationConfigHash(config, jobs);
  core::SimulationConfig tweaked = config;
  tweaked.warmup_fraction = 0.2;
  tweaked.cooldown_fraction = 0.0;
  tweaked.keep_bandwidth_samples = true;
  EXPECT_EQ(core::SimulationConfigHash(tweaked, jobs), base);

  core::SimulationConfig different = config;
  different.storage.max_bandwidth_gbps *= 2;
  EXPECT_NE(core::SimulationConfigHash(different, jobs), base);
}

TEST(CheckpointResume, MtbfKnobsChangeTheHash) {
  // The MTBF failure process shapes the schedule: a checkpoint saved under
  // one MTBF must not resume under another.
  auto [config, jobs] = BuildCase({"BASE_LINE", true});
  std::uint64_t base = core::SimulationConfigHash(config, jobs);
  core::SimulationConfig generated = config;
  generated.faults.plan_config.job_mtbf_seconds = 3600.0;
  EXPECT_NE(core::SimulationConfigHash(generated, jobs), base);

  core::SimulationConfig explicit_plan = config;
  explicit_plan.faults.explicit_plan.job_mtbf_seconds = 3600.0;
  std::uint64_t with_mtbf = core::SimulationConfigHash(explicit_plan, jobs);
  EXPECT_NE(with_mtbf, base);
  explicit_plan.faults.explicit_plan.mtbf_seed = 99;
  EXPECT_NE(core::SimulationConfigHash(explicit_plan, jobs), with_mtbf);
}

TEST(CheckpointResume, ResumeLatestStartsFreshWhenDirectoryIsEmpty) {
  auto [config, jobs] = BuildCase({"FCFS", false});
  std::uint64_t reference =
      metrics::DigestRecords(core::RunSimulation(config, jobs).records);
  core::SimulationConfig resume = config;
  resume.checkpoint.directory = TestDir("fresh");
  resume.checkpoint.resume_latest = true;
  core::SimulationResult result = core::RunSimulation(resume, jobs);
  EXPECT_EQ(metrics::DigestRecords(result.records), reference);
  EXPECT_TRUE(result.resumed_from.empty());
}

TEST(CheckpointResume, ResumeLatestFallsBackPastCorruptedNewest) {
  auto [config, jobs] = BuildCase({"ADAPTIVE", false});
  std::uint64_t reference =
      metrics::DigestRecords(core::RunSimulation(config, jobs).records);

  std::string dir = TestDir("corrupt");
  core::SimulationConfig saving = config;
  saving.checkpoint.directory = dir;
  saving.checkpoint.every_events = 200;
  saving.checkpoint.keep_last = 0;
  core::RunSimulation(saving, jobs);
  auto snapshots = ckpt::ListCheckpoints(dir);
  ASSERT_GE(snapshots.size(), 2u);

  // Flip one byte near the end of the newest snapshot (CRC damage).
  const std::string& newest = snapshots.back().second;
  std::string bytes;
  {
    std::ifstream in(newest, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  std::ofstream(newest, std::ios::binary) << bytes;

  core::SimulationConfig resume = config;
  resume.checkpoint.directory = dir;
  resume.checkpoint.resume_latest = true;
  core::SimulationResult result = core::RunSimulation(resume, jobs);
  EXPECT_EQ(metrics::DigestRecords(result.records), reference);
  EXPECT_EQ(result.resumed_from, snapshots[snapshots.size() - 2].second);
}

TEST(CheckpointResume, ExplicitResumeFromCorruptFileFailsLoudly) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  std::string dir = TestDir("explicit_corrupt");
  std::string path = dir + "/ckpt-000001.iosckpt";
  std::ofstream(path, std::ios::binary) << "IOSCKPT1 but then garbage";
  core::SimulationConfig resume = config;
  resume.checkpoint.resume_from = path;
  EXPECT_THROW(core::RunSimulation(resume, jobs), ckpt::CheckpointError);
}

TEST(CheckpointResume, AbortWritesEmergencyCheckpointThatResumes) {
  auto [config, jobs] = BuildCase({"MAX_UTIL", false});
  std::uint64_t reference =
      metrics::DigestRecords(core::RunSimulation(config, jobs).records);

  core::RunControl control;
  control.abort.store(true);  // stop at the first event boundary
  core::SimulationConfig aborting = config;
  aborting.checkpoint.directory = TestDir("abort");
  aborting.control = &control;
  std::string emergency;
  try {
    core::RunSimulation(aborting, jobs);
    FAIL() << "expected SimulationAborted";
  } catch (const core::SimulationAborted& e) {
    emergency = e.checkpoint_path();
  }
  ASSERT_FALSE(emergency.empty());
  ASSERT_TRUE(fs::exists(emergency));
  EXPECT_GT(control.progress_events.load(), 0u);

  core::SimulationConfig resume = config;
  resume.checkpoint.resume_from = emergency;
  core::SimulationResult result = core::RunSimulation(resume, jobs);
  EXPECT_EQ(metrics::DigestRecords(result.records), reference);
}

TEST(CheckpointResume, AbortWithoutDirectoryCarriesNoCheckpoint) {
  auto [config, jobs] = BuildCase({"BASE_LINE", false});
  core::RunControl control;
  control.abort.store(true);
  core::SimulationConfig aborting = config;
  aborting.control = &control;
  try {
    core::RunSimulation(aborting, jobs);
    FAIL() << "expected SimulationAborted";
  } catch (const core::SimulationAborted& e) {
    EXPECT_TRUE(e.checkpoint_path().empty());
  }
}

}  // namespace
}  // namespace iosched
