// Benchmark workload runner: builds one benchmark workload from its seed,
// replays it through core::RunSimulation, checks every output, and prints
// the raw measurements as one JSON object on the last line of stdout.
//
//   perfbench_runner --workload paper_sweep|year|ckpt_storm --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//
// perfbench/run.py builds this binary, runs it in its own process per
// workload, checks the digests against the recorded values and turns the
// raw measurements into the reported metrics (see perfbench/README.md).
//
// Every workload is a list of replays, one of which saves simulator
// checkpoints every `ckpt_every` simulated seconds, followed by resumes from
// that replay's newest checkpoint. With --trace 0 the runner repeats that
// iteration until --seconds have passed and reports end-to-end timings.
// With --trace 1 it runs the iteration three times: untraced (the
// reference), with an obs::Hub attached (per-layer counts and the tracing
// overhead), and with the benchmark's own probes around the public entry
// points of the scheduler and checkpoint layers.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/event_log.h"
#include "core/simulation.h"
#include "driver/scenario.h"
#include "machine/machine.h"
#include "metrics/digest.h"
#include "obs/hub.h"
#include "sched/batch_scheduler.h"
#include "util/rng.h"
#include "workload/app_checkpoint.h"
#include "workload/workload.h"

namespace {

using namespace iosched;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return v[rank];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Workloads --------------------------------------------------------------

/// One call of RunSimulation: a scenario plus the config it runs under.
struct Replay {
  std::string name;
  std::size_t scenario = 0;
  core::SimulationConfig config;
};

struct BenchWorkload {
  std::vector<driver::Scenario> scenarios;
  std::vector<Replay> replays;
  /// The replay that saves simulator checkpoints, and its cadence.
  std::size_t ckpt_replay = 0;
  double ckpt_every = 86400.0;
  /// Wall seconds spent in the driver's scenario constructors, which is
  /// workload generation bar a few assignments.
  double generate_seconds = 0.0;

  std::size_t Jobs(const Replay& r) const {
    return scenarios[r.scenario].jobs.size();
  }
};

/// Largest arrival shift (seconds) a non-zero seed applies.
constexpr double kArrivalJitterSeconds = 300.0;
/// Share of the gap to a neighbouring submit a job may move towards it.
/// Below one half, two neighbours moving towards each other cannot meet.
constexpr double kArrivalGapShare = 0.45;

/// Seed 0 keeps the default inputs, so the recorded digests apply. Seed n > 0
/// replays the same job population with every submit time moved by a seeded
/// offset of at most 300 s and under half the gap to the neighbouring
/// submit on that side, so submits stay strictly increasing (no two jobs
/// arrive at the same instant, as the generator guarantees): the schedule,
/// congestion and failures change, the job mix and total work do not.
void JitterArrivals(workload::Workload& jobs, std::uint64_t seed) {
  if (seed == 0) return;
  util::Rng rng(seed, /*stream=*/991);
  double previous = 0.0;  // the previous job's submit time before jitter
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    double submit = jobs[i].submit_time;
    double u = rng.Uniform(-1.0, 1.0);
    double room = u < 0.0 ? submit - previous
                 : i + 1 < jobs.size() ? jobs[i + 1].submit_time - submit
                                       : kArrivalJitterSeconds;
    jobs[i].submit_time =
        submit + u * std::min(kArrivalJitterSeconds, kArrivalGapShare * room);
    previous = submit;
  }
}

/// Submits that do not come strictly after the one before (0 for the
/// generator's output and for every jitter seed).
std::size_t TiedOrReordered(const workload::Workload& jobs) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    if (!(jobs[i].submit_time > jobs[i - 1].submit_time)) ++n;
  }
  return n;
}

/// Times a scenario constructor (which is workload generation, bar a few
/// assignments) into BenchWorkload::generate_seconds.
template <typename Make>
driver::Scenario Generate(BenchWorkload& w, Make make) {
  Clock::time_point t0 = Clock::now();
  driver::Scenario s = make();
  w.generate_seconds += SecondsSince(t0);
  return s;
}

const std::vector<std::string> kPaperPolicies = {
    "BASE_LINE", "FCFS", "MAX_UTIL", "MIN_INST_SLD", "MIN_AGGR_SLD",
    "ADAPTIVE"};

/// The paper's evaluation: WL1-3 x the six paper policies, WL1/ADAPTIVE
/// saving daily checkpoints.
BenchWorkload PaperSweep(std::uint64_t seed) {
  BenchWorkload w;
  for (int index = 1; index <= 3; ++index) {
    w.scenarios.push_back(
        Generate(w, [&] { return driver::MakeEvaluationScenario(index); }));
    JitterArrivals(w.scenarios.back().jobs, seed);
  }
  for (std::size_t s = 0; s < w.scenarios.size(); ++s) {
    for (const std::string& policy : kPaperPolicies) {
      if (s == 0 && policy == "ADAPTIVE") w.ckpt_replay = w.replays.size();
      w.replays.push_back(
          {w.scenarios[s].name + "/" + policy, s,
           core::SimulationConfig::Builder(w.scenarios[s].config)
               .Policy(policy)
               .Build()});
    }
  }
  return w;
}

/// The 1.02M-job year under BASE_LINE, saving one checkpoint at day 200
/// (a checkpoint grows with the records it carries, ~0.8 MB per day here).
BenchWorkload Year(std::uint64_t seed) {
  BenchWorkload w;
  w.scenarios.push_back(
      Generate(w, [] { return driver::MakeYearScenario(365.0); }));
  JitterArrivals(w.scenarios.back().jobs, seed);
  w.replays.push_back(
      {"YEAR", 0,
       core::SimulationConfig::Builder(w.scenarios[0].config)
           .Policy("BASE_LINE")
           .Build()});
  w.ckpt_every = 200.0 * 86400.0;
  return w;
}

/// WL1 with every resilience feature on: Young/Daly checkpoint traffic, a
/// 2 h MTBF failure clock with restart from the last durable flush, flush
/// deferral, a 4 TB burst buffer, ADAPTIVE, daily simulator checkpoints.
BenchWorkload CkptStorm(std::uint64_t seed) {
  BenchWorkload w;
  driver::Scenario s =
      Generate(w, [] { return driver::MakeEvaluationScenario(1); });
  const double mtbf = 2.0 * 3600.0;
  workload::AppCheckpointConfig ac;
  ac.enabled = true;
  ac.mtbf_seconds = mtbf;
  workload::ApplyCheckpointTraffic(s.jobs, ac,
                                   s.config.machine.node_bandwidth_gbps);
  JitterArrivals(s.jobs, seed);
  faults::FaultOptions faults;
  faults.plan_config.enabled = true;
  faults.plan_config.seed = 42;
  faults.plan_config.job_mtbf_seconds = mtbf;
  faults.restart_mode = faults::RestartMode::kRestartFromAppCheckpoint;
  core::SimulationConfig config =
      core::SimulationConfig::Builder(s.config)
          .Policy("ADAPTIVE")
          .BurstBuffer({.capacity_gb = 4096.0, .drain_gbps = 50.0})
          .AppCheckpoint({.enabled = true, .max_defer_seconds = 600.0})
          .Faults(faults)
          .Build();
  w.scenarios.push_back(std::move(s));
  w.replays.push_back({"WL1/STORM", 0, std::move(config)});
  return w;
}

BenchWorkload MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_sweep") return PaperSweep(seed);
  if (name == "year") return Year(seed);
  if (name == "ckpt_storm") return CkptStorm(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- Replays ----------------------------------------------------------------

/// Keeps only the events the batch scheduler sees (submit, start, end,
/// kill, failure, requeue, abandon), compactly, for the standalone
/// scheduler replay. Overriding the sink keeps EventLog's own buffer (and
/// its checkpoint section) empty.
class SchedRecorder : public core::EventLog {
 public:
  struct Entry {
    double time;
    double detail;
    workload::JobId job;
    core::SchedEventKind kind;
  };
  void OnSchedEvent(const core::SchedEvent& e) override {
    if (e.kind == core::SchedEventKind::kIoRequest ||
        e.kind == core::SchedEventKind::kIoComplete) {
      return;
    }
    entries.push_back({e.time, e.detail, e.job, e.kind});
  }
  std::vector<Entry> entries;
};

struct RunOptions {
  /// Non-empty: save a checkpoint here every BenchWorkload::ckpt_every.
  std::string save_dir;
  double save_every = 0.0;
  std::string resume_from;
  obs::Hub* hub = nullptr;
  core::EventLog* log = nullptr;
  core::RunControl* control = nullptr;
};

struct RunOutcome {
  bool ok = false;
  std::string error;
  double wall = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t flush_deferrals = 0;
  std::uint64_t bb_absorbed = 0;
  std::uint64_t bb_spilled = 0;
};

RunOutcome RunReplay(const BenchWorkload& w, const Replay& r,
                     const RunOptions& opt) {
  core::SimulationConfig config = r.config;
  if (opt.hub != nullptr) config.obs = opt.hub->options();
  config.control = opt.control;
  config.checkpoint.directory = opt.save_dir;
  config.checkpoint.every_sim_seconds = opt.save_dir.empty() ? 0.0
                                                             : opt.save_every;
  config.checkpoint.keep_last = 0;
  config.checkpoint.resume_from = opt.resume_from;
  RunOutcome out;
  try {
    Clock::time_point t0 = Clock::now();
    core::SimulationResult result = core::RunSimulation(
        config, w.scenarios[r.scenario].jobs, opt.log, opt.hub);
    out.wall = SecondsSince(t0);
    out.digest = metrics::DigestRecords(result.records);
    out.checkpoints = result.checkpoints_written;
    out.flush_deferrals = result.flush_deferrals;
    out.bb_absorbed = result.bb_absorbed_requests;
    out.bb_spilled = result.bb_spilled_requests;
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = r.name + ": " + e.what();
  }
  return out;
}

/// Operations attempted and failed, with the first few failure reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Checkpoint files in `dir`, ascending, with their sizes.
std::vector<std::pair<std::string, std::uintmax_t>> CheckpointFiles(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::uintmax_t>> out;
  for (const auto& [seq, path] : ckpt::ListCheckpoints(dir)) {
    out.emplace_back(path, fs::file_size(path));
  }
  return out;
}

/// The checkpoint timed resumes start from: the newest one, as a restart
/// after a crash would. Resuming mid-run replays a stretch whose cost
/// swings by a third between seeds as the storm's backlog moves; from the
/// newest checkpoint the resume time follows the checkpoint read and
/// restore. The traced run resumes from every checkpoint to check
/// equivalence.
const std::string& ResumeCheckpoint(
    const std::vector<std::pair<std::string, std::uintmax_t>>& files) {
  return files.back().first;
}

/// One pass over the workload: every replay once (the checkpoint replay
/// saving into `dir`), then resumes from ResumeCheckpoint until at least
/// `min_resumes` have run and `min_resume_seconds` of resume wall time have
/// accumulated.
struct IterationResult {
  std::vector<RunOutcome> replays;
  std::vector<double> resume_walls;
  std::vector<std::pair<std::string, std::uintmax_t>> files;
  double replay_wall = 0.0;
  std::uint64_t jobs = 0;
};

/// Per-replay hooks for one pass (hub, recorder, control), created by the
/// caller; `after` runs once the replay finished (still inside the pass).
struct PassHooks {
  std::function<RunOptions(std::size_t)> before;
  std::function<void(std::size_t, const RunOutcome&)> after;
  std::function<RunOptions()> resume;
};

IterationResult RunIteration(const BenchWorkload& w, const std::string& dir,
                             int min_resumes, double min_resume_seconds,
                             Tally& tally, const PassHooks* hooks = nullptr) {
  IterationResult it;
  fs::remove_all(dir);
  for (std::size_t i = 0; i < w.replays.size(); ++i) {
    RunOptions opt = hooks ? hooks->before(i) : RunOptions{};
    if (i == w.ckpt_replay) {
      opt.save_dir = dir;
      opt.save_every = w.ckpt_every;
    }
    RunOutcome out = RunReplay(w, w.replays[i], opt);
    tally.Check(out.ok, out.error);
    if (hooks) hooks->after(i, out);
    it.replay_wall += out.wall;
    it.jobs += w.Jobs(w.replays[i]);
    it.replays.push_back(out);
  }
  it.files = CheckpointFiles(dir);
  const RunOutcome& saved = it.replays[w.ckpt_replay];
  tally.Check(saved.ok && saved.checkpoints == it.files.size() &&
                  !it.files.empty(),
              w.replays[w.ckpt_replay].name + ": " +
                  std::to_string(it.files.size()) +
                  " checkpoint files, engine reported " +
                  std::to_string(saved.checkpoints));
  if (it.files.empty()) return it;
  double total = 0.0;
  do {
    RunOptions opt = hooks ? hooks->resume() : RunOptions{};
    opt.resume_from = ResumeCheckpoint(it.files);
    RunOutcome out = RunReplay(w, w.replays[w.ckpt_replay], opt);
    tally.Check(out.ok && out.digest == saved.digest,
                out.ok ? opt.resume_from +
                             ": resumed digest differs from the "
                             "uninterrupted run"
                       : out.error);
    if (!out.ok) break;
    it.resume_walls.push_back(out.wall);
    total += out.wall;
  } while (total < min_resume_seconds ||
           it.resume_walls.size() < static_cast<std::size_t>(min_resumes));
  return it;
}

// --- Layer probes (traced run only) -----------------------------------------

/// Replays the batch scheduler alone from a recorded event stream: every
/// submit, end and failure is fed to a fresh BatchScheduler on a fresh
/// Machine in the engine's order, each Schedule() call is timed, and every
/// start it returns must match the recorded one (job, time, partition
/// size). Passes the engine arms at requeue-backoff expiry are not logged;
/// they are re-created from the replayed scheduler's requeue decisions,
/// whose eligibility times must match the recorded requeues.
struct SchedReplayResult {
  bool ok = true;
  std::string error;
  std::vector<double> pass_us;
};

SchedReplayResult ReplayScheduler(
    const core::SimulationConfig& config, const workload::Workload& jobs,
    const std::vector<SchedRecorder::Entry>& log) {
  using Kind = core::SchedEventKind;
  SchedReplayResult out;
  std::unordered_map<workload::JobId, const workload::Job*> by_id;
  by_id.reserve(jobs.size());
  for (const workload::Job& j : jobs) by_id.emplace(j.id, &j);
  machine::Machine machine(config.machine);
  sched::BatchScheduler batch(machine, config.batch);
  out.pass_us.reserve(log.size());

  std::vector<sched::StartDecision> expected;
  std::size_t next_expected = 0;
  double expected_time = 0.0;
  double eligible_time = 0.0;
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      pending_passes;
  auto fail = [&](const std::string& why, double t) {
    if (out.ok) {
      out.ok = false;
      out.error = why + " at t=" + std::to_string(t);
    }
  };
  auto schedule = [&](double now) {
    if (next_expected != expected.size()) {
      fail("scheduler started more jobs than recorded", now);
    }
    Clock::time_point t0 = Clock::now();
    expected = batch.Schedule(now);
    out.pass_us.push_back(SecondsSince(t0) * 1e6);
    next_expected = 0;
    expected_time = now;
  };
  auto run_passes_before = [&](double t) {
    while (!pending_passes.empty() && pending_passes.top() < t) {
      double p = pending_passes.top();
      pending_passes.pop();
      schedule(p);
    }
  };

  try {
    for (const SchedRecorder::Entry& e : log) {
      if (!out.ok) break;
      if (e.kind == Kind::kStart) {
        if (next_expected == expected.size() && !pending_passes.empty() &&
            pending_passes.top() <= e.time) {
          run_passes_before(e.time);
          if (next_expected == expected.size() && !pending_passes.empty() &&
              pending_passes.top() == e.time) {
            pending_passes.pop();
            schedule(e.time);
          }
        }
        if (next_expected == expected.size()) {
          fail("recorded start of job " + std::to_string(e.job) +
                   " not produced by the scheduler",
               e.time);
          break;
        }
        const sched::StartDecision& d = expected[next_expected++];
        if (d.job->id != e.job || d.partition.nodes != e.detail ||
            expected_time != e.time) {
          fail("scheduler started job " + std::to_string(d.job->id) +
                   " where job " + std::to_string(e.job) + " was recorded",
               e.time);
        }
        continue;
      }
      if (e.kind == Kind::kRequeue) {
        if (e.detail != eligible_time) {
          fail("job " + std::to_string(e.job) + " requeued until " +
                   std::to_string(eligible_time) + ", recorded " +
                   std::to_string(e.detail),
               e.time);
        }
        continue;
      }
      if (e.kind == Kind::kAbandon) continue;
      run_passes_before(e.time);
      switch (e.kind) {
        case Kind::kSubmit:
          batch.Submit(*by_id.at(e.job));
          break;
        case Kind::kEnd:
        case Kind::kKill:
          batch.OnJobEnd(e.job, e.time);
          break;
        case Kind::kFaultKill: {
          sched::BatchScheduler::RequeueDecision d =
              batch.OnJobFailed(e.job, e.time);
          if (d.requeued) pending_passes.push(d.eligible_time);
          eligible_time = d.eligible_time;
          break;
        }
        default:
          break;
      }
      schedule(e.time);
    }
    while (out.ok && !pending_passes.empty()) {
      double p = pending_passes.top();
      pending_passes.pop();
      schedule(p);
    }
  } catch (const std::exception& e) {
    fail(std::string("scheduler threw: ") + e.what(), expected_time);
  }
  if (out.ok && next_expected != expected.size()) {
    fail("scheduler started more jobs than recorded", expected_time);
  }
  return out;
}

/// Polls a RunControl from its own thread: sums the wall time during which
/// the engine reports a checkpoint write in progress, and notes when event
/// progress first moves (then optionally aborts the run).
class ControlWatcher {
 public:
  ControlWatcher(core::RunControl& control, bool abort_on_progress)
      : control_(control),
        abort_on_progress_(abort_on_progress),
        start_(Clock::now()),
        thread_([this] { Loop(); }) {}
  ~ControlWatcher() { Stop(); }
  ControlWatcher(const ControlWatcher&) = delete;
  ControlWatcher& operator=(const ControlWatcher&) = delete;

  void Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }
  double save_seconds() const { return save_seconds_; }
  std::uint64_t saves() const { return saves_; }
  /// Seconds from construction to the first event-progress update (< 0
  /// when none was seen).
  double first_progress_seconds() const { return first_progress_; }

 private:
  void Loop() {
    bool in_save = false;
    Clock::time_point save_start;
    while (!stop_.load(std::memory_order_relaxed)) {
      bool saving = control_.checkpoint_in_progress.load();
      if (saving != in_save) {
        Clock::time_point now = Clock::now();
        if (saving) {
          save_start = now;
        } else {
          save_seconds_ +=
              std::chrono::duration<double>(now - save_start).count();
          ++saves_;
        }
        in_save = saving;
      }
      if (first_progress_ < 0 && control_.progress_events.load() != 0) {
        first_progress_ = SecondsSince(start_);
        if (abort_on_progress_) control_.abort.store(true);
      }
    }
  }

  core::RunControl& control_;
  bool abort_on_progress_;
  Clock::time_point start_;
  std::atomic<bool> stop_{false};
  double save_seconds_ = 0.0;
  std::uint64_t saves_ = 0;
  double first_progress_ = -1.0;
  std::thread thread_;
};

/// Upper bound of the histogram bucket holding quantile `q`; the overflow
/// bucket reports `overflow_value` (the gauge maximum).
double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<std::uint64_t>& counts, double q,
                      double overflow_value) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= target) {
      return i < bounds.size() ? bounds[i] : overflow_value;
    }
  }
  return overflow_value;
}

// --- Output -----------------------------------------------------------------

struct Json {
  std::string body;
  void Add(const std::string& key, const std::string& raw) {
    body += (body.empty() ? "" : ", ") + ("\"" + key + "\": " + raw);
  }
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Add(key, buf);
  }
  void Int(const std::string& key, std::uint64_t v) {
    Add(key, std::to_string(v));
  }
  static std::string Quote(const std::string& v) {
    std::string esc = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += (c == '\n') ? ' ' : c;
    }
    return esc + "\"";
  }
  void Str(const std::string& key, const std::string& v) {
    Add(key, Quote(v));
  }
  void Nums(const std::string& key, const std::vector<double>& v) {
    std::string raw = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", v[i]);
      raw += buf;
    }
    Add(key, raw + "]");
  }
  std::string Object() const { return "{" + body + "}"; }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || a.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  return a;
}

/// Builds the workload at least `min_reps` times, and on until
/// `min_seconds` have passed (at most 41 builds); returns the last build.
BenchWorkload TimedSetup(const Args& args, std::size_t min_reps,
                         double min_seconds, std::vector<double>& setup_s,
                         std::vector<double>& generate_s) {
  std::optional<BenchWorkload> w;
  double total = 0.0;
  for (std::size_t n = 0;
       n < min_reps || (total < min_seconds && n < 41); ++n) {
    w.reset();
    Clock::time_point t0 = Clock::now();
    w.emplace(MakeWorkload(args.workload, args.seed));
    setup_s.push_back(SecondsSince(t0));
    generate_s.push_back(w->generate_seconds);
    total += setup_s.back();
  }
  return std::move(*w);
}

/// Replay digests by name; a replay that failed (already counted) is null.
void AddDigests(Json& j, const BenchWorkload& w, const IterationResult& it) {
  Json d;
  for (std::size_t i = 0; i < w.replays.size(); ++i) {
    if (it.replays[i].ok) {
      d.Str(w.replays[i].name, metrics::HexDigest(it.replays[i].digest));
    } else {
      d.Add(w.replays[i].name, "null");
    }
  }
  j.Add("digests", d.Object());
}

/// Every scenario's submits must stay strictly increasing after jitter.
void CheckArrivals(const BenchWorkload& w, Tally& tally) {
  for (const driver::Scenario& s : w.scenarios) {
    std::size_t bad = TiedOrReordered(s.jobs);
    tally.Check(bad == 0, s.name + ": " + std::to_string(bad) +
                              " submits tied with or before the previous one");
  }
}

/// Every later iteration must reproduce the first one's digests.
void CheckRepeat(const BenchWorkload& w, const IterationResult& first,
                 const IterationResult& again, const std::string& label,
                 Tally& tally) {
  for (std::size_t i = 0; i < w.replays.size(); ++i) {
    tally.Check(!again.replays[i].ok ||
                    again.replays[i].digest == first.replays[i].digest,
                w.replays[i].name + ": " + label +
                    " digest differs from the untraced run");
  }
}

std::string RunUntraced(const Args& args, Tally& tally) {
  std::vector<double> setup_s, generate_s;
  BenchWorkload w = TimedSetup(args, 3, 0.0, setup_s, generate_s);
  CheckArrivals(w, tally);
  // The setup is timed again after every iteration (three times at least,
  // more until 0.5 s have passed), so its median spans the same host
  // conditions as the replays rather than one instant.
  Clock::time_point t0 = Clock::now();
  std::vector<double> iteration_jobs_per_s, resume_s;
  // replay_walls[i]: replay i's wall time in every iteration.
  std::vector<std::vector<double>> replay_walls(w.replays.size());
  std::optional<IterationResult> first;
  std::size_t iterations = 0;
  double last_iteration = 0.0;
  double peak_rss_mb = 0.0;
  do {
    Clock::time_point started = Clock::now();
    const std::string dir =
        args.work_dir + "/ckpt-" + std::to_string(iterations);
    // Three resumes at least: one multi-second resume (year) is as noisy
    // as the host, a median of three is not.
    IterationResult it = RunIteration(w, dir, 3, 1.0, tally);
    fs::remove_all(dir);
    iteration_jobs_per_s.push_back(static_cast<double>(it.jobs) /
                                   it.replay_wall);
    for (std::size_t i = 0; i < w.replays.size(); ++i) {
      replay_walls[i].push_back(it.replays[i].wall);
    }
    resume_s.insert(resume_s.end(), it.resume_walls.begin(),
                    it.resume_walls.end());
    if (first) {
      CheckRepeat(w, *first, it, "repeat", tally);
    } else {
      first = std::move(it);
      // Peak memory of one setup and one iteration, before the extra
      // setups below hold a second copy of the inputs.
      peak_rss_mb = PeakRssMb();
    }
    ++iterations;
    TimedSetup(args, 3, 0.5, setup_s, generate_s);
    last_iteration = SecondsSince(started);
    // Start another iteration only when it should end within --seconds.
  } while (SecondsSince(t0) + last_iteration <= args.seconds);

  // Each replay's median wall over the iterations, summed: one slow
  // second on a busy host moves one replay's sample, not the total.
  double jobs = 0.0, wall = 0.0;
  for (std::size_t i = 0; i < w.replays.size(); ++i) {
    jobs += static_cast<double>(w.Jobs(w.replays[i]));
    wall += Median(replay_walls[i]);
  }

  double bytes = 0.0;
  for (const auto& f : first->files) bytes += static_cast<double>(f.second);
  double ckpt_mb = first->files.empty()
                       ? 0.0
                       : bytes / 1e6 / static_cast<double>(first->files.size());

  Json samples;
  samples.Nums("jobs_per_s", iteration_jobs_per_s);
  samples.Nums("setup_s", setup_s);
  samples.Nums("resume_s", resume_s);
  Json j;
  j.Num("jobs_per_s", jobs / wall);
  j.Num("setup_s", Median(setup_s));
  j.Num("peak_rss_mb", peak_rss_mb);
  j.Num("ckpt_mb", ckpt_mb);
  j.Num("resume_s", Median(resume_s));
  j.Add("samples", samples.Object());
  j.Int("ckpt_files", first->files.size());
  AddDigests(j, w, *first);
  return j.Object();
}

std::string RunTraced(const Args& args, Tally& tally) {
  std::vector<double> setup_s, generate_s;
  BenchWorkload w = TimedSetup(args, 3, 1.0, setup_s, generate_s);
  CheckArrivals(w, tally);

  // Pass A: untraced reference.
  IterationResult plain =
      RunIteration(w, args.work_dir + "/ckpt-plain", 1, 0.0, tally);

  // Pass B: one obs::Hub per replay (and per resume).
  obs::Options hub_options;
  hub_options.enabled = true;
  std::vector<std::unique_ptr<obs::Hub>> hubs;
  std::unique_ptr<obs::Hub> resume_hub;
  std::uint64_t flush_deferrals = 0, bb_absorbed = 0, bb_spilled = 0;
  PassHooks hub_hooks{
      [&](std::size_t) {
        hubs.push_back(std::make_unique<obs::Hub>(hub_options));
        RunOptions o;
        o.hub = hubs.back().get();
        return o;
      },
      [&](std::size_t, const RunOutcome& out) {
        flush_deferrals += out.flush_deferrals;
        bb_absorbed += out.bb_absorbed;
        bb_spilled += out.bb_spilled;
      },
      [&] {
        resume_hub = std::make_unique<obs::Hub>(hub_options);
        RunOptions o;
        o.hub = resume_hub.get();
        return o;
      }};
  IterationResult traced = RunIteration(w, args.work_dir + "/ckpt-hub", 1, 0.0,
                                        tally, &hub_hooks);
  CheckRepeat(w, plain, traced, "traced", tally);
  fs::remove_all(args.work_dir + "/ckpt-hub");

  std::map<std::string, std::uint64_t> counts;
  std::vector<std::uint64_t> depth_counts;
  double depth_max = 0.0;
  const std::vector<double>* depth_bounds = nullptr;
  for (const auto& hub : hubs) {
    const obs::Registry& reg = hub->registry();
    for (const char* name :
         {"sim.events_processed", "sched.passes", "sched.backfill_starts",
          "sched.jobs_requeued", "core.io_cycles", "core.congested_cycles",
          "core.throttled_grants", "core.knapsack_invocations",
          "storage.waterfill_iterations"}) {
      const obs::Counter* c = reg.FindCounter(name);
      counts[name] += c ? c->value() : 0;
    }
    const obs::Histogram* h = hub->queue_depth_hist;
    if (depth_counts.empty()) depth_counts.assign(h->counts().size(), 0);
    for (std::size_t b = 0; b < h->counts().size(); ++b) {
      depth_counts[b] += h->counts()[b];
    }
    depth_bounds = &h->bounds();
    depth_max = std::max(depth_max, hub->queue_depth->max());
  }

  // Pass C: scheduler event recorder on every replay, a RunControl watcher
  // on the checkpointing one; then the standalone scheduler replays.
  std::vector<double> pass_us;
  std::unique_ptr<SchedRecorder> recorder;
  core::RunControl save_control;
  std::optional<ControlWatcher> save_watcher;
  PassHooks probe_hooks{
      [&](std::size_t i) {
        recorder = std::make_unique<SchedRecorder>();
        RunOptions o;
        o.log = recorder.get();
        if (i == w.ckpt_replay) {
          save_watcher.emplace(save_control, false);
          o.control = &save_control;
        }
        return o;
      },
      [&](std::size_t i, const RunOutcome& out) {
        if (i == w.ckpt_replay) save_watcher->Stop();
        if (!out.ok) return;
        const Replay& r = w.replays[i];
        std::uint64_t passes_before = pass_us.size();
        SchedReplayResult sr = ReplayScheduler(
            r.config, w.scenarios[r.scenario].jobs, recorder->entries);
        recorder.reset();
        tally.Check(sr.ok, r.name + ": standalone scheduler replay: " +
                               sr.error);
        pass_us.insert(pass_us.end(), sr.pass_us.begin(), sr.pass_us.end());
        const obs::Counter* hub_passes =
            hubs[i]->registry().FindCounter("sched.passes");
        tally.Check(
            hub_passes != nullptr &&
                hub_passes->value() == pass_us.size() - passes_before,
            r.name + ": standalone replay ran " +
                std::to_string(pass_us.size() - passes_before) +
                " scheduler passes, the engine " +
                std::to_string(hub_passes ? hub_passes->value() : 0));
      },
      [] { return RunOptions{}; }};
  const std::string probe_dir = args.work_dir + "/ckpt-probe";
  IterationResult probed =
      RunIteration(w, probe_dir, 1, 0.0, tally, &probe_hooks);
  CheckRepeat(w, plain, probed, "probed", tally);

  // Resume equivalence from every saved checkpoint.
  const std::uint64_t reference = plain.replays[w.ckpt_replay].digest;
  for (const auto& [path, size] : probed.files) {
    RunOptions o;
    o.resume_from = path;
    RunOutcome out = RunReplay(w, w.replays[w.ckpt_replay], o);
    tally.Check(out.ok && out.digest == reference,
                out.ok ? path + ": resumed digest " +
                             metrics::HexDigest(out.digest) +
                             " differs from the uninterrupted run"
                       : out.error);
  }

  // Restore latency: resume from the resume checkpoint, stop at the first
  // event, five times.
  std::vector<double> restore_s;
  if (!probed.files.empty()) {
    const std::string& from = ResumeCheckpoint(probed.files);
    for (int k = 0; k < 5; ++k) {
      core::RunControl control;
      RunOptions o;
      o.resume_from = from;
      o.control = &control;
      ControlWatcher watcher(control, true);
      RunOutcome out = RunReplay(w, w.replays[w.ckpt_replay], o);
      watcher.Stop();
      bool aborted = !out.ok && out.error.find("aborted") != std::string::npos;
      tally.Check(aborted && watcher.first_progress_seconds() >= 0,
                  "restore probe: " + (out.ok ? "run was not stopped"
                                              : out.error));
      if (watcher.first_progress_seconds() >= 0) {
        restore_s.push_back(watcher.first_progress_seconds());
      }
    }
  }

  // Checkpoint decode and encode cost per MB, over every saved file.
  std::vector<double> load_s_per_mb, encode_s_per_mb;
  double ckpt_bytes = 0.0;
  for (const auto& [path, size] : probed.files) {
    double mb = static_cast<double>(size) / 1e6;
    ckpt_bytes += static_cast<double>(size);
    try {
      Clock::time_point t0 = Clock::now();
      ckpt::CheckpointFile file = ckpt::CheckpointFile::Load(path);
      load_s_per_mb.push_back(SecondsSince(t0) / mb);
      t0 = Clock::now();
      std::string bytes = file.Encode();
      encode_s_per_mb.push_back(SecondsSince(t0) / mb);
      tally.Check(bytes.size() == size, path + ": re-encoded size differs");
    } catch (const std::exception& e) {
      tally.Check(false, path + ": " + e.what());
    }
  }
  fs::remove_all(probe_dir);

  auto total_wall = [](const IterationResult& it) {
    double wall = it.replay_wall;
    for (double s : it.resume_walls) wall += s;
    return wall;
  };

  Json j;
  j.Int("sim.events", counts["sim.events_processed"]);
  j.Int("sched.passes", counts["sched.passes"]);
  j.Int("sched.backfill_starts", counts["sched.backfill_starts"]);
  j.Int("sched.requeues", counts["sched.jobs_requeued"]);
  j.Num("sched.queue_depth_p50",
        BucketQuantile(*depth_bounds, depth_counts, 0.50, depth_max));
  j.Num("sched.queue_depth_p99",
        BucketQuantile(*depth_bounds, depth_counts, 0.99, depth_max));
  j.Num("sched.pass_us_p50", Quantile(pass_us, 0.50));
  j.Num("sched.pass_us_p99", Quantile(pass_us, 0.99));
  j.Int("core.io_cycles", counts["core.io_cycles"]);
  j.Int("core.congested_cycles", counts["core.congested_cycles"]);
  j.Int("core.throttled_grants", counts["core.throttled_grants"]);
  j.Int("core.knapsack_invocations", counts["core.knapsack_invocations"]);
  j.Int("storage.waterfill_iterations",
        counts["storage.waterfill_iterations"]);
  j.Int("core.flush_deferrals", flush_deferrals);
  j.Int("storage.bb_absorbed_requests", bb_absorbed);
  j.Int("storage.bb_spilled_requests", bb_spilled);
  j.Int("ckpt.writes", probed.files.size());
  j.Num("ckpt.bytes", ckpt_bytes);
  j.Num("ckpt.save_s", save_watcher ? save_watcher->save_seconds() : 0.0);
  j.Num("ckpt.load_s_per_mb", Median(load_s_per_mb));
  j.Num("ckpt.encode_s_per_mb", Median(encode_s_per_mb));
  j.Num("ckpt.restore_s", Median(restore_s));
  j.Num("workload.generate_s", Median(generate_s));
  j.Num("obs.trace_overhead", total_wall(traced) / total_wall(plain));
  Json samples;
  samples.Int("sched.pass_us", pass_us.size());
  samples.Int("ckpt.save_s", save_watcher ? save_watcher->saves() : 0);
  samples.Int("ckpt.load_s_per_mb", load_s_per_mb.size());
  samples.Int("ckpt.restore_s", restore_s.size());
  samples.Int("workload.generate_s", generate_s.size());
  j.Add("sample_counts", samples.Object());
  AddDigests(j, w, plain);
  return j.Object();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
  Tally tally;
  std::string measured;
  try {
    fs::create_directories(args.work_dir);
    measured = args.trace ? RunTraced(args, tally) : RunUntraced(args, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  Json out;
  out.Str("workload", args.workload);
  out.Int("attempted", tally.attempted);
  out.Int("failed", tally.failed);
  std::string errors = "[";
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    errors += (i ? ", " : "") + Json::Quote(tally.errors[i]);
  }
  out.Add("errors", errors + "]");
  out.Str("compiler", PERFBENCH_COMPILER);
  out.Str("build_type", PERFBENCH_BUILD_TYPE);
  out.Str("cxx_flags", PERFBENCH_CXX_FLAGS);
  out.Add("measured", measured);
  std::printf("%s\n", out.Object().c_str());
  return 0;
}
