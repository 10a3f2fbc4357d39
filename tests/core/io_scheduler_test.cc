#include "core/io_scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "storage/storage_model.h"
#include "support/scripted_events.h"
#include "workload/job.h"

namespace iosched::core {
namespace {

constexpr double kNodeBw = 0.03125;

workload::Job MakeJob(workload::JobId id, int nodes, double volume,
                      int phases = 1) {
  workload::Job j;
  j.id = id;
  j.submit_time = 0;
  j.nodes = nodes;
  j.requested_walltime = 1e6;
  j.phases = workload::MakeUniformPhases(100.0, volume, phases);
  return j;
}

struct Fixture {
  explicit Fixture(const std::string& policy = "BASE_LINE",
                   double bwmax = 250.0)
      : storage(storage::StorageConfig{bwmax, true}),
        scheduler(simulator, storage, kNodeBw, MakePolicy(policy),
                  [this](workload::JobId id, sim::SimTime t,
                         const IoCompletionInfo&) {
                    completions.emplace_back(id, t);
                  }) {}

  sim::Simulator simulator;
  testing_support::ScriptedEvents script{simulator};
  storage::StorageModel storage;
  std::vector<std::pair<workload::JobId, sim::SimTime>> completions;
  IoScheduler scheduler;
};

TEST(IoScheduler, SingleRequestCompletesAtFullRate) {
  Fixture f;
  workload::Job job = MakeJob(1, 4096, 1280.0);  // full rate 128 GB/s -> 10 s
  f.scheduler.RegisterJob(job, 0.0);
  f.scheduler.SubmitRequest(1, 1280.0, 0.0);
  f.simulator.Run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.completions[0].first, 1);
  EXPECT_DOUBLE_EQ(f.completions[0].second, 10.0);
  EXPECT_EQ(f.scheduler.active_requests(), 0u);
}

TEST(IoScheduler, BaselineSharesAndStretchesCompletions) {
  Fixture f("BASE_LINE");
  workload::Job a = MakeJob(1, 4096, 1280.0);
  workload::Job b = MakeJob(2, 4096, 1280.0);
  f.scheduler.RegisterJob(a, 0.0);
  f.scheduler.RegisterJob(b, 0.0);
  f.scheduler.SubmitRequest(1, 1280.0, 0.0);
  f.scheduler.SubmitRequest(2, 1280.0, 0.0);
  // Demand 256 > 250: both run at 125 GB/s -> 10.24 s each.
  f.simulator.Run();
  ASSERT_EQ(f.completions.size(), 2u);
  EXPECT_NEAR(f.completions[0].second, 1280.0 / 125.0, 1e-9);
  EXPECT_NEAR(f.completions[1].second, 1280.0 / 125.0, 1e-9);
}

TEST(IoScheduler, ConservativeSerializesOverflow) {
  Fixture f("FCFS");
  workload::Job a = MakeJob(1, 4096, 1280.0);
  workload::Job b = MakeJob(2, 4096, 1280.0);
  f.scheduler.RegisterJob(a, 0.0);
  f.scheduler.RegisterJob(b, 0.0);
  f.scheduler.SubmitRequest(1, 1280.0, 0.0);
  f.scheduler.SubmitRequest(2, 1280.0, 0.0);
  f.simulator.Run();
  ASSERT_EQ(f.completions.size(), 2u);
  // Job 1 at full rate finishes at 10 s; job 2 then runs 10..20 s.
  EXPECT_DOUBLE_EQ(f.completions[0].second, 10.0);
  EXPECT_EQ(f.completions[0].first, 1);
  EXPECT_DOUBLE_EQ(f.completions[1].second, 20.0);
  EXPECT_EQ(f.completions[1].first, 2);
}

TEST(IoScheduler, LateArrivalTriggersRescheduling) {
  Fixture f("FCFS");
  workload::Job a = MakeJob(1, 4096, 1280.0);
  workload::Job b = MakeJob(2, 2048, 320.0);
  f.scheduler.RegisterJob(a, 0.0);
  f.scheduler.RegisterJob(b, 0.0);
  f.scheduler.SubmitRequest(1, 1280.0, 0.0);
  f.script.At(5.0, [&f] { f.scheduler.SubmitRequest(2, 320.0, 5.0); });
  f.simulator.Run();
  ASSERT_EQ(f.completions.size(), 2u);
  // 128 + 64 = 192 <= 250: the late job runs concurrently at full rate.
  EXPECT_DOUBLE_EQ(f.completions[0].second, 10.0);  // job 1
  EXPECT_DOUBLE_EQ(f.completions[1].second, 10.0);  // job 2: 5 + 320/64
  EXPECT_EQ(f.completions[1].first, 2);
}

TEST(IoScheduler, AccountsCompletedComputeAndIo) {
  Fixture f;
  workload::Job a = MakeJob(1, 4096, 1280.0);
  f.scheduler.RegisterJob(a, 0.0);
  f.scheduler.AddCompletedCompute(1, 42.0);
  f.scheduler.SubmitRequest(1, 1280.0, 0.0);
  auto views = f.scheduler.BuildViews(0.0);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_DOUBLE_EQ(views[0].completed_compute_seconds, 42.0);
  EXPECT_DOUBLE_EQ(views[0].completed_io_seconds, 0.0);
  f.simulator.Run();
  // After completion the context carries the uncongested I/O time (10 s),
  // observable through the next request's view.
  f.scheduler.SubmitRequest(1, 128.0, f.simulator.Now());
  views = f.scheduler.BuildViews(f.simulator.Now());
  ASSERT_EQ(views.size(), 1u);
  EXPECT_DOUBLE_EQ(views[0].completed_io_seconds, 10.0);
}

TEST(IoScheduler, LifecycleErrors) {
  Fixture f;
  workload::Job a = MakeJob(1, 4096, 100.0);
  EXPECT_THROW(f.scheduler.SubmitRequest(1, 10.0, 0.0), std::logic_error);
  EXPECT_THROW(f.scheduler.AddCompletedCompute(1, 1.0), std::logic_error);
  EXPECT_THROW(f.scheduler.UnregisterJob(1), std::logic_error);
  f.scheduler.RegisterJob(a, 0.0);
  EXPECT_THROW(f.scheduler.RegisterJob(a, 0.0), std::logic_error);
  EXPECT_THROW(f.scheduler.SubmitRequest(1, 0.0, 0.0), std::invalid_argument);
  f.scheduler.SubmitRequest(1, 10.0, 0.0);
  EXPECT_THROW(f.scheduler.UnregisterJob(1), std::logic_error);  // in flight
  f.simulator.Run();
  EXPECT_NO_THROW(f.scheduler.UnregisterJob(1));
}

TEST(IoScheduler, ConstructorValidation) {
  sim::Simulator simulator;
  storage::StorageModel storage(storage::StorageConfig{});
  auto cb = [](workload::JobId, sim::SimTime, const IoCompletionInfo&) {};
  EXPECT_THROW(IoScheduler(simulator, storage, 0.0, MakePolicy("FCFS"), cb),
               std::invalid_argument);
  EXPECT_THROW(IoScheduler(simulator, storage, kNodeBw, nullptr, cb),
               std::invalid_argument);
}

TEST(IoScheduler, CyclesCountScheduling) {
  Fixture f;
  workload::Job a = MakeJob(1, 4096, 1280.0);
  f.scheduler.RegisterJob(a, 0.0);
  EXPECT_EQ(f.scheduler.cycles(), 0u);
  f.scheduler.SubmitRequest(1, 1280.0, 0.0);
  EXPECT_GE(f.scheduler.cycles(), 1u);
  f.simulator.Run();
  EXPECT_GE(f.scheduler.cycles(), 2u);  // arrival + completion
}

TEST(IoScheduler, AbortRequestIsNoOpWithoutTransfer) {
  Fixture f;
  workload::Job a = MakeJob(1, 4096, 100.0);
  f.scheduler.RegisterJob(a, 0.0);
  EXPECT_NO_THROW(f.scheduler.AbortRequest(1, 0.0));
  f.scheduler.SubmitRequest(1, 100.0, 0.0);
  f.scheduler.AbortRequest(1, 1.0);
  EXPECT_EQ(f.scheduler.active_requests(), 0u);
  EXPECT_TRUE(f.completions.empty());  // aborts never fire the callback
}

TEST(IoScheduler, BurstBufferAbsorbsAndDrainReservesBandwidth) {
  Fixture f("FCFS", /*bwmax=*/250.0);
  storage::BurstBuffer bb(storage::BurstBufferConfig{2000.0, 100.0});
  f.scheduler.AttachBurstBuffer(&bb);

  // Job 1 (4096 nodes, full rate 128): 1280 GB absorbed at link rate
  // -> completes in 10 s, never entering the storage model. Job 2's
  // 1500 GB exceeds the remaining 720 GB of buffer space -> direct path.
  workload::Job a = MakeJob(1, 4096, 1280.0);
  workload::Job b = MakeJob(2, 8192, 1500.0);
  f.scheduler.RegisterJob(a, 0.0);
  f.scheduler.RegisterJob(b, 0.0);
  f.scheduler.SubmitRequest(1, 1280.0, 0.0);
  EXPECT_EQ(f.scheduler.active_requests(), 0u);  // absorbed, not in storage
  EXPECT_DOUBLE_EQ(bb.queued_gb(), 1280.0);

  // Job 2's request (8192 nodes, demand 256 capped to usable 250-100=150)
  // goes direct while the drain is active.
  f.scheduler.SubmitRequest(2, 1500.0, 0.0);
  EXPECT_EQ(f.scheduler.active_requests(), 1u);
  EXPECT_DOUBLE_EQ(f.storage.Get(2).rate_gbps, 150.0);

  f.simulator.Run();
  ASSERT_EQ(f.completions.size(), 2u);
  EXPECT_EQ(f.completions[0].first, 1);
  EXPECT_DOUBLE_EQ(f.completions[0].second, 10.0);
  // Drain empties at 12.8 s; job 2 then gets the full 250:
  // 1500 - 150*12.8 = -420 < 0 -> actually finishes before the drain, at
  // 1500/150 = 10 s. Both orderings are fine as long as everything ends.
  EXPECT_EQ(f.scheduler.active_requests(), 0u);
  EXPECT_EQ(bb.absorbed_requests(), 1u);
}

TEST(IoScheduler, SubmittedRequestCounterCountsBothPaths) {
  Fixture f("FCFS");
  storage::BurstBuffer bb(storage::BurstBufferConfig{100.0, 10.0});
  f.scheduler.AttachBurstBuffer(&bb);
  workload::Job a = MakeJob(1, 4096, 100.0);
  workload::Job b = MakeJob(2, 4096, 5000.0);
  f.scheduler.RegisterJob(a, 0.0);
  f.scheduler.RegisterJob(b, 0.0);
  f.scheduler.SubmitRequest(1, 50.0, 0.0);     // fits the buffer
  f.scheduler.SubmitRequest(2, 5000.0, 0.0);   // overflows -> direct
  EXPECT_EQ(f.scheduler.submitted_requests(), 2u);
  EXPECT_EQ(bb.absorbed_requests(), 1u);
  EXPECT_EQ(f.scheduler.active_requests(), 1u);
  f.simulator.Run();
  EXPECT_EQ(f.completions.size(), 2u);
}

TEST(IoScheduler, BandwidthChangeReschedulesImmediately) {
  // Regression: SetMaxBandwidth used to rely on the caller to
  // ForceReschedule; the scheduler now listens on the storage model, so a
  // mid-cycle capacity change re-runs water-filling on its own.
  Fixture f("BASE_LINE");
  workload::Job a = MakeJob(1, 4096, 1280.0);  // full rate 128 -> 10 s
  f.scheduler.RegisterJob(a, 0.0);
  f.scheduler.SubmitRequest(1, 1280.0, 0.0);
  EXPECT_DOUBLE_EQ(f.storage.Get(1).rate_gbps, 128.0);

  f.script.At(5.0, [&f] {
    f.storage.SetMaxBandwidth(64.0, 5.0);
    // No ForceReschedule: the rate must already be feasible against the
    // new cap when the listener returns.
    EXPECT_DOUBLE_EQ(f.storage.Get(1).rate_gbps, 64.0);
  });
  f.simulator.Run();
  // 640 GB transferred by t=5, the remaining 640 GB at 64 GB/s -> t=15.
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_DOUBLE_EQ(f.completions[0].second, 15.0);

  // Repair mid-flight speeds the transfer back up symmetrically.
  Fixture g("FCFS");
  workload::Job b = MakeJob(1, 4096, 1280.0);
  g.scheduler.RegisterJob(b, 0.0);
  g.storage.SetMaxBandwidth(64.0, 0.0);
  g.scheduler.SubmitRequest(1, 1280.0, 0.0);
  EXPECT_DOUBLE_EQ(g.storage.Get(1).rate_gbps, 64.0);
  g.script.At(10.0, [&g] { g.storage.SetMaxBandwidth(250.0, 10.0); });
  g.simulator.Run();
  // 640 GB by t=10, then the full 128 GB/s link rate -> t=15.
  ASSERT_EQ(g.completions.size(), 1u);
  EXPECT_DOUBLE_EQ(g.completions[0].second, 15.0);
}

TEST(IoScheduler, ManyConcurrentRequestsAllComplete) {
  Fixture f("ADAPTIVE");
  const int kJobs = 25;
  std::vector<workload::Job> jobs;
  jobs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(MakeJob(i + 1, 2048, 100.0 + i * 37.0));
  }
  for (int i = 0; i < kJobs; ++i) {
    f.scheduler.RegisterJob(jobs[i], 0.0);
    double at = 0.5 * i;
    f.script.At(at, [&f, i, at] {
      f.scheduler.SubmitRequest(i + 1, 100.0 + i * 37.0, at);
    });
  }
  f.simulator.Run();
  EXPECT_EQ(f.completions.size(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(f.scheduler.active_requests(), 0u);
}

}  // namespace
}  // namespace iosched::core
