// Microbenchmarks of the framework's hot components (google-benchmark):
// event queue, RNG, knapsack DP, policy scheduling cycles, storage model
// rate updates, partition allocator, EASY shadow time, an end-to-end
// simulation day, and the workload fingerprint checkpoints are keyed by.
//
// The binary doubles as the simulation-core regression harness. Run with
//   micro_components --core-json=BENCH_core.json [--replay-days=30]
//                    [--baseline=OLD.json] [--allow-digest-change=ADAPTIVE]
// to time each hot component plus a full synthetic-month replay under
// BASE_LINE / MAX_UTIL / ADAPTIVE and emit machine-readable BENCH_core.json.
// Every replay records an order-independent FNV-1a digest over the bit-exact
// per-job metric records; with --baseline the harness compares digests
// against a previous BENCH_core.json and fails (exit 1) on any mismatch not
// explicitly waived with --allow-digest-change, so hot-path refactors cannot
// silently change simulation results. Without --core-json the binary behaves
// as a plain google-benchmark suite.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/io_policy.h"
#include "core/knapsack.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "driver/scenario.h"
#include "machine/machine.h"
#include "metrics/digest.h"
#include "metrics/speedup.h"
#include "obs/hub.h"
#include "sched/batch_scheduler.h"
#include "sched/queue_policy.h"
#include "sched/wait_queue.h"
#include "sim/event_queue.h"
#include "storage/storage_model.h"
#include "util/atomic_file.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace {

using namespace iosched;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<double> times(count);
  for (auto& t : times) t = rng.Uniform(0, 1e6);
  for (auto _ : state) {
    sim::EventQueue q;
    for (double t : times) q.Push(t, 0, 0);
    while (!q.Empty()) benchmark::DoNotOptimize(q.Pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const std::size_t count = 4096;
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      ids.push_back(q.Push(static_cast<double>(i % 97), 0, 0));
    }
    for (std::size_t i = 0; i < count; i += 2) q.Cancel(ids[i]);
    while (!q.Empty()) benchmark::DoNotOptimize(q.Pop().id);
  }
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_Pcg32(benchmark::State& state) {
  util::Pcg32 g(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g());
  }
}
BENCHMARK(BM_Pcg32);

void BM_RngLogNormal(benchmark::State& state) {
  util::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.LogNormal(8.6, 0.85));
  }
}
BENCHMARK(BM_RngLogNormal);

void BM_Knapsack(benchmark::State& state) {
  const auto items_count = static_cast<std::size_t>(state.range(0));
  util::Rng rng(13);
  std::vector<core::KnapsackItem> items(items_count);
  for (auto& item : items) {
    item.weight = rng.Uniform(4.0, 250.0);
    item.value = rng.Uniform(512.0, 16384.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SolveKnapsack01(items, 250.0, 1.0));
  }
}
BENCHMARK(BM_Knapsack)->Arg(8)->Arg(32)->Arg(128);

std::vector<core::IoJobView> MakeActiveSet(std::size_t count) {
  util::Rng rng(99);
  std::vector<core::IoJobView> active(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto& v = active[i];
    v.id = static_cast<workload::JobId>(i + 1);
    v.nodes = 512 << rng.UniformInt(0, 4);
    v.full_rate_gbps = 0.03125 * rng.Uniform(0.15, 0.75) * v.nodes;
    v.volume_gb = rng.Uniform(10, 5000);
    v.transferred_gb = v.volume_gb * rng.Uniform(0.0, 0.8);
    v.request_arrival = rng.Uniform(0, 100);
    v.job_start = 0;
    v.completed_compute_seconds = rng.Uniform(10, 1000);
    v.completed_io_seconds = rng.Uniform(0, 100);
  }
  return active;
}

void BM_PolicyAssign(benchmark::State& state, const char* policy_name) {
  auto policy = core::MakePolicy(policy_name);
  auto active = MakeActiveSet(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->Assign(active, 250.0, 200.0));
  }
}
BENCHMARK_CAPTURE(BM_PolicyAssign, baseline, "BASE_LINE")->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_PolicyAssign, fcfs, "FCFS")->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_PolicyAssign, max_util, "MAX_UTIL")->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_PolicyAssign, min_aggr, "MIN_AGGR_SLD")->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_PolicyAssign, adaptive, "ADAPTIVE")->Arg(8)->Arg(64);

void BM_StorageAdvance(benchmark::State& state) {
  const auto transfers = static_cast<std::size_t>(state.range(0));
  storage::StorageModel sm(storage::StorageConfig{250.0, false});
  for (std::size_t i = 0; i < transfers; ++i) {
    auto id = static_cast<workload::JobId>(i + 1);
    sm.Begin(id, 512, 16.0, 1e12, 0.0);
    sm.SetRate(id, std::min(16.0, 250.0 / static_cast<double>(transfers)));
  }
  double now = 0.0;
  for (auto _ : state) {
    now += 0.25;
    sm.AdvanceTo(now);
    benchmark::DoNotOptimize(sm.NextCompletion());
  }
}
BENCHMARK(BM_StorageAdvance)->Arg(8)->Arg(64);

void BM_MachineAllocateRelease(benchmark::State& state) {
  machine::Machine machine(machine::MachineConfig::Mira());
  for (auto _ : state) {
    auto a = machine.Allocate(512);
    auto b = machine.Allocate(8192);
    auto c = machine.Allocate(2048);
    machine.Release(*c);
    machine.Release(*b);
    machine.Release(*a);
  }
}
BENCHMARK(BM_MachineAllocateRelease);

// EASY's reservation probe on a busy Mira: a one-row head blocked by a
// machine full of 1-8 midplane jobs with spread-out predicted ends. Arg 0
// queries a standing running set, so every release mask is cached; Arg 1
// ends and restarts one running job before each query, so the masks past
// its new position in the release order are rebuilt.
void BM_ShadowTime(benchmark::State& state) {
  machine::Machine machine(machine::MachineConfig::Mira());
  sched::BatchScheduler sched(machine, {});
  util::Rng rng(7);
  std::vector<workload::Job> jobs(400);
  std::vector<workload::Job*> started;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    workload::Job& job = jobs[i];
    job.id = static_cast<workload::JobId>(i + 1);
    job.nodes = 512 << rng.UniformInt(0, 3);
    job.requested_walltime = rng.Uniform(600.0, 86400.0);
    job.phases = {workload::Phase::Compute(job.requested_walltime)};
    if (!machine.CanAllocate(job.nodes)) continue;
    sched.Submit(job);
    sched.Schedule(0.0);
    started.push_back(&job);
  }
  workload::Job head;
  head.id = 0;
  head.nodes = 16384;
  head.requested_walltime = 3600.0;
  head.phases = {workload::Phase::Compute(3600.0)};
  const bool churn = state.range(0) != 0;
  std::size_t next = 0;
  for (auto _ : state) {
    if (churn) {
      workload::Job* job = started[next++ % started.size()];
      sched.OnJobEnd(job->id, 0.0);
      sched.Submit(*job);
      sched.Schedule(0.0);
    }
    benchmark::DoNotOptimize(sched.ShadowTime(head, 0.0));
  }
  state.counters["running"] = static_cast<double>(sched.running_count());
}
BENCHMARK(BM_ShadowTime)->Arg(0)->Arg(1);

void BM_SimulateOneDay(benchmark::State& state, const char* policy) {
  driver::Scenario scenario = driver::MakeEvaluationScenario(2, 1.0);
  core::SimulationConfig config = scenario.config;
  config.policy = policy;
  for (auto _ : state) {
    auto result = core::RunSimulation(config, scenario.jobs);
    benchmark::DoNotOptimize(result.report.avg_wait_seconds);
  }
}
BENCHMARK_CAPTURE(BM_SimulateOneDay, baseline, "BASE_LINE")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulateOneDay, adaptive, "ADAPTIVE")
    ->Unit(benchmark::kMillisecond);

// The workload half of the checkpoint config hash, paid once by every
// checkpointing replay and once by every resume. Arg 0: WL1, the month
// replays' workload; Arg 1: the first 30 days of the year scenario.
void BM_WorkloadFingerprint(benchmark::State& state) {
  const driver::Scenario scenario = state.range(0) == 0
                                        ? driver::MakeEvaluationScenario(1)
                                        : driver::MakeYearScenario(30.0);
  std::size_t phases = 0;
  for (const workload::Job& job : scenario.jobs) phases += job.phases.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::WorkloadFingerprint(scenario.jobs));
  }
  state.counters["jobs"] = static_cast<double>(scenario.jobs.size());
  state.counters["phases"] = static_cast<double>(phases);
}
BENCHMARK(BM_WorkloadFingerprint)->Arg(0)->Arg(1)->Unit(
    benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Regression harness (--core-json mode): hand-rolled component timers plus
// full synthetic-month replays with bit-exact per-job metric digests.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Best-of-`reps` wall time of `fn()` in seconds.
template <typename Fn>
double TimeBestOf(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    fn();
    auto t1 = Clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct ComponentResult {
  std::string name;
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
};

struct ReplayResult {
  std::string name;
  double seconds = 0.0;
  std::size_t jobs = 0;
  std::uint64_t events = 0;
  std::uint64_t io_requests = 0;
  std::uint64_t cycles = 0;
  std::string digest;
};

ComponentResult TimeComponent(const std::string& name, std::uint64_t ops,
                              int reps, const std::function<void()>& fn) {
  ComponentResult result;
  result.name = name;
  result.ops = ops;
  result.ns_per_op = TimeBestOf(reps, fn) * 1e9 / static_cast<double>(ops);
  std::printf("  component %-28s %12.1f ns/op\n", name.c_str(),
              result.ns_per_op);
  return result;
}

std::vector<ComponentResult> RunComponentTimers() {
  std::vector<ComponentResult> out;
  std::printf("component timers:\n");

  {
    // Push/pop throughput of the discrete-event core.
    const std::size_t count = 1 << 15;
    util::Rng rng(7);
    std::vector<double> times(count);
    for (auto& t : times) t = rng.Uniform(0, 1e6);
    out.push_back(TimeComponent("event_queue_push_pop", 2 * count, 5, [&] {
      sim::EventQueue q;
      for (double t : times) q.Push(t, 0, 0);
      while (!q.Empty()) q.Pop();
    }));
  }
  {
    // The I/O-completion rescheduling pattern: one pending completion event
    // per cycle is cancelled and re-pushed, with only occasional pops. An
    // event queue without compaction accumulates every cancelled entry deep
    // in the heap across such a run.
    const std::size_t rounds = 1 << 16;
    out.push_back(TimeComponent("event_queue_reschedule_churn", rounds, 3, [&] {
      sim::EventQueue q;
      std::vector<sim::EventId> live;
      double now = 0.0;
      for (std::size_t i = 0; i < 64; ++i) {
        live.push_back(q.Push(now + 100.0 + static_cast<double>(i), 0, 0));
      }
      util::Pcg32 g(11);
      for (std::size_t r = 0; r < rounds; ++r) {
        std::size_t victim = g() % live.size();
        q.Cancel(live[victim]);
        now += 0.01;
        live[victim] =
            q.Push(now + 100.0 + static_cast<double>(g() % 128), 0, 0);
        if ((r & 1023) == 0) {
          sim::Event ev = q.Pop();
          live.erase(std::find(live.begin(), live.end(), ev.id));
          live.push_back(q.Push(now + 100.0, 0, 0));
        }
      }
      while (!q.Empty()) q.Pop();
    }));
  }
  {
    // One storage scheduling cycle: accrue, re-grant every rate, validate,
    // find the next completion. This is the per-cycle StorageModel cost.
    const std::size_t transfers = 64;
    const std::size_t cycles = 4096;
    out.push_back(TimeComponent("storage_rate_cycle", cycles, 3, [&] {
      storage::StorageModel sm(storage::StorageConfig{250.0, true});
      for (std::size_t i = 0; i < transfers; ++i) {
        sm.Begin(static_cast<workload::JobId>(i + 1), 512, 16.0, 1e12, 0.0);
      }
      double now = 0.0;
      double share = 250.0 / static_cast<double>(transfers);
      for (std::size_t c = 0; c < cycles; ++c) {
        now += 0.25;
        sm.AdvanceTo(now);
        for (std::size_t i = 0; i < transfers; ++i) {
          sm.SetRate(static_cast<workload::JobId>(i + 1),
                     std::min(16.0, share));
        }
        sm.ValidateAssignment();
        sm.NextCompletion();
      }
    }));
  }
  {
    // Begin/Has/Get/End churn against a deep active set: the per-request
    // bookkeeping cost of the storage index.
    const std::size_t resident = 256;
    const std::size_t churn = 8192;
    out.push_back(TimeComponent("storage_lookup_churn", churn, 3, [&] {
      storage::StorageModel sm(storage::StorageConfig{250.0, false});
      for (std::size_t i = 0; i < resident; ++i) {
        sm.Begin(static_cast<workload::JobId>(i + 1), 512, 16.0, 1e12, 0.0);
      }
      workload::JobId next = resident + 1;
      for (std::size_t c = 0; c < churn; ++c) {
        workload::JobId probe = static_cast<workload::JobId>(c % resident) + 1;
        if (!sm.Has(probe)) std::abort();
        if (sm.Get(probe).nodes != 512) std::abort();
        sm.Begin(next, 512, 16.0, 1e12, 0.0);
        sm.Abort(next);
        ++next;
      }
    }));
  }
  for (const char* policy_name : {"BASE_LINE", "MAX_UTIL", "ADAPTIVE"}) {
    auto policy = core::MakePolicy(policy_name);
    auto active = MakeActiveSet(64);
    const std::size_t calls = 2048;
    out.push_back(TimeComponent(
        std::string("policy_assign_") + policy_name, calls, 3, [&] {
          for (std::size_t c = 0; c < calls; ++c) {
            policy->Assign(active, 250.0, 200.0);
          }
        }));
  }
  {
    // WFP ordering of a deep wait queue — the per-dispatch-pass cost as the
    // scheduler now pays it: a standing WaitQueue maintained incrementally
    // across passes (scores recomputed, adaptive re-sort from the previous
    // order) with one arrival and one start per pass as churn. The legacy
    // full re-sort of the same queue is timed alongside for reference.
    const std::size_t depth = 512;
    util::Rng rng(5);
    std::vector<workload::Job> jobs(2 * depth);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].id = static_cast<workload::JobId>(i + 1);
      jobs[i].submit_time = rng.Uniform(0, 1e5);
      jobs[i].nodes = 512 << rng.UniformInt(0, 5);
      jobs[i].requested_walltime = rng.Uniform(1800, 86400);
    }
    const std::size_t passes = 2048;
    out.push_back(TimeComponent("queue_order_wfp", passes, 3, [&] {
      sched::WaitQueue wq(sched::QueueOrder::kWfp);
      for (std::size_t i = 0; i < depth; ++i) {
        wq.Insert(jobs[i], jobs[i].nodes);
      }
      double now = 2e5;
      std::size_t arriving = depth;
      std::size_t leaving = 0;
      for (std::size_t c = 0; c < passes; ++c) {
        std::span<const sched::WaitQueue::Entry> ordered = wq.Ordered(now);
        benchmark::DoNotOptimize(ordered.data());
        now += 30.0;
        wq.Remove(jobs[leaving].id);
        wq.Insert(jobs[arriving], jobs[arriving].nodes);
        arriving = (arriving + 1) % jobs.size();
        leaving = (leaving + 1) % jobs.size();
      }
    }));
    std::vector<const workload::Job*> queue(depth);
    for (std::size_t i = 0; i < depth; ++i) queue[i] = &jobs[i];
    const std::size_t calls = 2048;
    out.push_back(TimeComponent("queue_order_wfp_full_resort", calls, 3, [&] {
      for (std::size_t c = 0; c < calls; ++c) {
        sched::OrderQueue(queue, sched::QueueOrder::kWfp, 2e5);
      }
    }));
  }
  return out;
}

ReplayResult RunReplayScenario(const std::string& name,
                               driver::Scenario scenario,
                               const char* policy) {
  core::SimulationConfig config = scenario.config;
  config.policy = policy;
  ReplayResult result;
  result.name = name;
  auto t0 = Clock::now();
  core::SimulationResult sim = core::RunSimulation(config, scenario.jobs);
  auto t1 = Clock::now();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.jobs = sim.records.size();
  result.events = sim.events_processed;
  result.io_requests = sim.io_requests;
  result.cycles = sim.io_scheduling_cycles;
  result.digest = metrics::HexDigest(metrics::DigestRecords(sim.records));
  std::printf("replay %-10s %8.2f s  jobs=%zu events=%llu cycles=%llu %s\n",
              name.c_str(), result.seconds, result.jobs,
              static_cast<unsigned long long>(result.events),
              static_cast<unsigned long long>(result.cycles),
              result.digest.c_str());
  return result;
}

ReplayResult RunReplay(const char* policy, double days) {
  return RunReplayScenario(policy, driver::MakeEvaluationScenario(1, days),
                           policy);
}

struct BaselineReplay {
  std::string name;
  double seconds = 0.0;
  std::string digest;
};

/// Minimal reader for the `replays` entries of a BENCH_core.json we emitted
/// ourselves: each replay is one line carrying "name", "seconds" and
/// "digest" keys (comparison lines carry "speedup" instead, and component
/// lines carry "ns_per_op", so neither can be confused with a replay).
std::vector<BaselineReplay> ReadBaselineReplays(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<BaselineReplay> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"name\"") == std::string::npos ||
        line.find("\"seconds\"") == std::string::npos ||
        line.find("\"digest\"") == std::string::npos ||
        line.find("\"speedup\"") != std::string::npos) {
      continue;
    }
    BaselineReplay b;
    auto grab_string = [&line](const char* key) -> std::string {
      std::size_t k = line.find(key);
      if (k == std::string::npos) return "";
      std::size_t start = line.find('"', k + std::strlen(key) + 1);
      if (start == std::string::npos) return "";
      std::size_t end = line.find('"', start + 1);
      if (end == std::string::npos) return "";
      return line.substr(start + 1, end - start - 1);
    };
    b.name = grab_string("\"name\"");
    b.digest = grab_string("\"digest\"");
    std::size_t k = line.find("\"seconds\"");
    if (k != std::string::npos) {
      b.seconds = std::strtod(line.c_str() + k + std::strlen("\"seconds\":"),
                              nullptr);
    }
    if (!b.name.empty() && !b.digest.empty()) out.push_back(b);
  }
  return out;
}

bool ListContains(const std::string& csv, const std::string& item) {
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token == item) return true;
  }
  return false;
}

int RunCoreHarness(const std::string& json_path, const std::string& baseline,
                   double replay_days, const std::string& allow_changes,
                   bool skip_components, bool skip_year, double year_days) {
  std::vector<ComponentResult> components;
  if (!skip_components) components = RunComponentTimers();
  std::vector<ReplayResult> replays;
  for (const char* policy : {"BASE_LINE", "MAX_UTIL", "ADAPTIVE"}) {
    replays.push_back(RunReplay(policy, replay_days));
  }
  // Year-scale throughput replays (BASE_LINE): YEAR_SMOKE is the 5-day cut
  // CI gates on; YEAR is the full ~1M-job run (skippable for quick passes).
  replays.push_back(RunReplayScenario(
      "YEAR_SMOKE", driver::MakeYearScenario(5.0), "BASE_LINE"));
  if (!skip_year) {
    replays.push_back(RunReplayScenario(
        "YEAR", driver::MakeYearScenario(year_days), "BASE_LINE"));
  }

  bool digests_ok = true;
  std::vector<BaselineReplay> base;
  std::vector<metrics::SpeedupSample> speedups;
  if (!baseline.empty()) {
    base = ReadBaselineReplays(baseline);
    for (const ReplayResult& r : replays) {
      auto it = std::find_if(base.begin(), base.end(),
                             [&](const BaselineReplay& b) {
                               return b.name == r.name;
                             });
      if (it == base.end()) continue;
      bool match = it->digest == r.digest;
      bool allowed = ListContains(allow_changes, r.name);
      if (!match && !allowed) digests_ok = false;
      speedups.push_back({it->seconds, r.seconds});
      std::printf("vs baseline %-10s speedup=%.2fx digest %s%s\n",
                  r.name.c_str(), metrics::Speedup(it->seconds, r.seconds),
                  match ? "identical" : "CHANGED",
                  !match && allowed ? " (waived)" : "");
    }
  }
  double speedup_geomean = metrics::SpeedupGeomean(speedups);

  util::AtomicFileWriter json_file(json_path);
  std::ostream& out = json_file.stream();
  out << "{\n";
  out << "  \"schema\": \"bench-core-v1\",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf), "  \"replay_days\": %g,\n", replay_days);
  out << buf;
  out << "  \"components\": [\n";
  for (std::size_t i = 0; i < components.size(); ++i) {
    const ComponentResult& c = components[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"component\": \"%s\", \"ns_per_op\": %.2f, "
                  "\"ops\": %llu}%s\n",
                  c.name.c_str(), c.ns_per_op,
                  static_cast<unsigned long long>(c.ops),
                  i + 1 < components.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  out << "  \"replays\": [\n";
  for (std::size_t i = 0; i < replays.size(); ++i) {
    const ReplayResult& r = replays[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"seconds\": %.4f, \"jobs\": %zu, "
                  "\"events\": %llu, \"io_requests\": %llu, \"cycles\": %llu, "
                  "\"digest\": \"%s\"}%s\n",
                  r.name.c_str(), r.seconds, r.jobs,
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.io_requests),
                  static_cast<unsigned long long>(r.cycles),
                  r.digest.c_str(), i + 1 < replays.size() ? "," : "");
    out << buf;
  }
  out << "  ]";
  if (!baseline.empty()) {
    out << ",\n  \"baseline\": {\n";
    std::snprintf(buf, sizeof(buf), "    \"path\": \"%s\",\n",
                  baseline.c_str());
    out << buf;
    out << "    \"comparison\": [\n";
    bool first = true;
    for (const ReplayResult& r : replays) {
      auto it = std::find_if(base.begin(), base.end(),
                             [&](const BaselineReplay& b) {
                               return b.name == r.name;
                             });
      if (it == base.end()) continue;
      if (!first) out << ",\n";
      first = false;
      std::snprintf(buf, sizeof(buf),
                    "      {\"name\": \"%s\", \"baseline_seconds\": %.4f, "
                    "\"speedup\": %.3f, \"digest_match\": %s, "
                    "\"digest_change_allowed\": %s}",
                    r.name.c_str(), it->seconds,
                    metrics::Speedup(it->seconds, r.seconds),
                    it->digest == r.digest ? "true" : "false",
                    ListContains(allow_changes, r.name) ? "true" : "false");
      out << buf;
    }
    out << "\n    ],\n";
    std::snprintf(buf, sizeof(buf), "    \"speedup_geomean\": %.3f,\n",
                  speedup_geomean);
    out << buf;
    std::snprintf(buf, sizeof(buf), "    \"digests_ok\": %s\n",
                  digests_ok ? "true" : "false");
    out << buf;
    out << "  }";
  }
  out << "\n}\n";
  try {
    json_file.Commit();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("wrote %s%s\n", json_path.c_str(),
              digests_ok ? "" : " (DIGEST MISMATCH)");
  return digests_ok ? 0 : 1;
}

/// --obs-check mode: replay each policy with observability off and on and
/// verify the invariants the subsystem promises — identical job records
/// (digest equality), the hub's event counter agreeing with the engine's
/// own count, and a populated trace/sampler. Reports the wall-time overhead
/// of the enabled hub. Exit 1 on any violation.
int RunObsCheck(double days) {
  int failures = 0;
  for (const char* policy : {"BASE_LINE", "MAX_UTIL", "ADAPTIVE"}) {
    driver::Scenario scenario = driver::MakeEvaluationScenario(1, days);
    core::SimulationConfig config = scenario.config;
    config.policy = policy;

    auto t0 = Clock::now();
    core::SimulationResult off = core::RunSimulation(config, scenario.jobs);
    auto t1 = Clock::now();

    config.obs.enabled = true;
    obs::Hub hub(config.obs);
    auto t2 = Clock::now();
    core::SimulationResult on =
        core::RunSimulation(config, scenario.jobs, nullptr, &hub);
    auto t3 = Clock::now();

    double off_s = std::chrono::duration<double>(t1 - t0).count();
    double on_s = std::chrono::duration<double>(t3 - t2).count();
    bool digest_ok = metrics::DigestRecords(off.records) ==
                     metrics::DigestRecords(on.records);
    bool counter_ok = hub.events_processed->value() == on.events_processed;
    bool trace_ok = hub.tracer().size() > 0;
    bool sampler_ok = !hub.sampler().empty();
    bool ok = digest_ok && counter_ok && trace_ok && sampler_ok;
    if (!ok) ++failures;
    std::printf(
        "obs-check %-10s off=%.2fs on=%.2fs overhead=%+.1f%% digest=%s "
        "events=%llu/%llu trace=%zu samples=%zu %s\n",
        policy, off_s, on_s,
        off_s > 0 ? (on_s - off_s) / off_s * 100.0 : 0.0,
        digest_ok ? "identical" : "CHANGED",
        static_cast<unsigned long long>(hub.events_processed->value()),
        static_cast<unsigned long long>(on.events_processed),
        hub.tracer().size(), hub.sampler().samples().size(),
        ok ? "ok" : "FAIL");
  }
  return failures > 0 ? 1 : 0;
}

/// Pull `--flag=value` out of argv; returns true (and strips it) on match.
bool TakeFlag(int& argc, char** argv, const char* flag, std::string* value) {
  std::string prefix = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      *value = argv[i] + prefix.size();
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline;
  std::string days_str;
  std::string allow_changes;
  std::string skip_components;
  std::string obs_check;
  std::string skip_year;
  std::string year_days_str;
  TakeFlag(argc, argv, "--core-json", &json_path);
  TakeFlag(argc, argv, "--baseline", &baseline);
  TakeFlag(argc, argv, "--replay-days", &days_str);
  TakeFlag(argc, argv, "--allow-digest-change", &allow_changes);
  // --skip-components=1: replays only (fast CI runs, clean profiles).
  TakeFlag(argc, argv, "--skip-components", &skip_components);
  // --obs-check=1: verify the observability layer changes no results.
  TakeFlag(argc, argv, "--obs-check", &obs_check);
  // --skip-year=1: omit the full YEAR replay (YEAR_SMOKE always runs);
  // --year-days=N: shrink the YEAR replay from the default 365 days.
  TakeFlag(argc, argv, "--skip-year", &skip_year);
  TakeFlag(argc, argv, "--year-days", &year_days_str);
  double days = days_str.empty() ? 30.0 : std::strtod(days_str.c_str(),
                                                      nullptr);
  if (days <= 0) {
    std::fprintf(stderr, "bad --replay-days\n");
    return 2;
  }
  double year_days = year_days_str.empty()
                         ? 365.0
                         : std::strtod(year_days_str.c_str(), nullptr);
  if (year_days <= 0) {
    std::fprintf(stderr, "bad --year-days\n");
    return 2;
  }
  if (obs_check == "1") return RunObsCheck(days);
  if (!json_path.empty()) {
    return RunCoreHarness(json_path, baseline, days, allow_changes,
                          skip_components == "1", skip_year == "1",
                          year_days);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
