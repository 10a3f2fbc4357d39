#include "sched/batch_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>

#include "ckpt/serializer.h"
#include "machine/machine.h"

namespace iosched::sched {
namespace {

// The Small machine: one row of 8 midplanes = 4,096 nodes.
class BatchSchedulerTest : public ::testing::Test {
 protected:
  BatchSchedulerTest() : machine_(machine::MachineConfig::Small()) {}

  workload::Job* MakeJob(workload::JobId id, double submit, int nodes,
                         double walltime) {
    jobs_.push_back({});
    workload::Job& j = jobs_.back();
    j.id = id;
    j.submit_time = submit;
    j.nodes = nodes;
    j.requested_walltime = walltime;
    j.phases = {workload::Phase::Compute(walltime * 0.8)};
    return &j;
  }

  machine::Machine machine_;
  std::deque<workload::Job> jobs_;  // stable addresses
};

TEST_F(BatchSchedulerTest, StartsJobWhenSpaceAvailable) {
  BatchScheduler sched(machine_, {});
  sched.Submit(*MakeJob(1, 0, 1024, 3600));
  auto decisions = sched.Schedule(0);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job->id, 1);
  EXPECT_EQ(decisions[0].partition.nodes, 1024);
  EXPECT_EQ(sched.queue_size(), 0u);
  EXPECT_EQ(sched.running_count(), 1u);
  EXPECT_EQ(machine_.busy_nodes(), 1024);
}

TEST_F(BatchSchedulerTest, QueuesWhenFull) {
  BatchScheduler sched(machine_, {});
  sched.Submit(*MakeJob(1, 0, 4096, 3600));
  sched.Submit(*MakeJob(2, 1, 512, 3600));
  auto decisions = sched.Schedule(1);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job->id, 1);
  EXPECT_EQ(sched.queue_size(), 1u);
}

TEST_F(BatchSchedulerTest, ReleasesOnJobEnd) {
  BatchScheduler sched(machine_, {});
  sched.Submit(*MakeJob(1, 0, 4096, 3600));
  sched.Schedule(0);
  sched.Submit(*MakeJob(2, 1, 512, 3600));
  EXPECT_TRUE(sched.Schedule(1).empty());
  sched.OnJobEnd(1, 100);
  EXPECT_EQ(machine_.busy_nodes(), 0);
  auto decisions = sched.Schedule(100);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job->id, 2);
}

TEST_F(BatchSchedulerTest, OnJobEndUnknownThrows) {
  BatchScheduler sched(machine_, {});
  EXPECT_THROW(sched.OnJobEnd(99, 0), std::logic_error);
}

TEST_F(BatchSchedulerTest, SubmitInvalidJobThrows) {
  BatchScheduler sched(machine_, {});
  EXPECT_THROW(sched.Submit(*MakeJob(2, 0, 8192, 3600)),
               std::invalid_argument);  // larger than Small machine
}

TEST_F(BatchSchedulerTest, EasyBackfillFillsHoles) {
  BatchScheduler::Options opts;
  opts.order = QueueOrder::kFcfs;
  opts.easy_backfill = true;
  BatchScheduler sched(machine_, opts);

  // Occupy half the machine until t=1000.
  sched.Submit(*MakeJob(1, 0, 2048, 1000));
  sched.Schedule(0);
  // Head job needs the whole machine -> blocked until t=1000.
  sched.Submit(*MakeJob(2, 1, 4096, 1000));
  // Short small job finishes before the shadow time -> backfills.
  sched.Submit(*MakeJob(3, 2, 1024, 500));
  auto decisions = sched.Schedule(2);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job->id, 3);
  EXPECT_EQ(sched.queue_size(), 1u);  // head still waiting
}

TEST_F(BatchSchedulerTest, BackfillRejectsJobDelayingHead) {
  BatchScheduler::Options opts;
  opts.order = QueueOrder::kFcfs;
  BatchScheduler sched(machine_, opts);

  sched.Submit(*MakeJob(1, 0, 2048, 1000));
  sched.Schedule(0);
  sched.Submit(*MakeJob(2, 1, 4096, 1000));  // blocked head, shadow ~1000
  // Long small job would outlive the shadow AND the head needs the full
  // machine, so it must NOT backfill.
  sched.Submit(*MakeJob(3, 2, 1024, 5000));
  EXPECT_TRUE(sched.Schedule(2).empty());
  EXPECT_EQ(sched.queue_size(), 2u);
}

TEST_F(BatchSchedulerTest, BackfillAllowedWhenHeadStillFits) {
  BatchScheduler::Options opts;
  opts.order = QueueOrder::kFcfs;
  BatchScheduler sched(machine_, opts);

  sched.Submit(*MakeJob(1, 0, 2048, 1000));
  sched.Schedule(0);
  // Head needs 2048: midplanes 4..7 are free, so it actually starts.
  // Make the head need 4096 minus what job 3 uses? Instead: head 2048 would
  // start immediately; use a head that cannot fit now (4096) and a backfill
  // candidate that leaves the head's future block intact is impossible on a
  // full-machine head. So test the "extra nodes" path with a 1024-head:
  sched.Submit(*MakeJob(2, 1, 4096, 1000));   // blocked head (needs all)
  sched.Submit(*MakeJob(3, 2, 512, 400));     // finishes by shadow -> ok
  auto d = sched.Schedule(2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].job->id, 3);
}

TEST_F(BatchSchedulerTest, NoBackfillWhenDisabled) {
  BatchScheduler::Options opts;
  opts.order = QueueOrder::kFcfs;
  opts.easy_backfill = false;
  BatchScheduler sched(machine_, opts);

  sched.Submit(*MakeJob(1, 0, 2048, 1000));
  sched.Schedule(0);
  sched.Submit(*MakeJob(2, 1, 4096, 1000));
  sched.Submit(*MakeJob(3, 2, 1024, 500));
  // Strict FCFS: nothing may pass the blocked head.
  EXPECT_TRUE(sched.Schedule(2).empty());
}

TEST_F(BatchSchedulerTest, WfpOrderControlsWhoStarts) {
  BatchScheduler::Options opts;
  opts.order = QueueOrder::kWfp;
  BatchScheduler sched(machine_, opts);

  // Fill machine, then queue two candidates with very different WFP scores.
  sched.Submit(*MakeJob(1, 0, 4096, 100));
  sched.Schedule(0);
  workload::Job* old_big = MakeJob(2, 10, 2048, 1000);
  workload::Job* new_small = MakeJob(3, 900, 512, 1000);
  sched.Submit(*old_big);
  sched.Submit(*new_small);
  sched.OnJobEnd(1, 1000);
  auto decisions = sched.Schedule(1000);
  ASSERT_EQ(decisions.size(), 2u);
  // Both fit; WFP puts the older, larger job first.
  EXPECT_EQ(decisions[0].job->id, 2);
  EXPECT_EQ(decisions[1].job->id, 3);
}

TEST_F(BatchSchedulerTest, OverrunningJobTreatedAsEndingNow) {
  BatchScheduler sched(machine_, {});
  sched.Submit(*MakeJob(1, 0, 4096, 100));  // walltime 100
  sched.Schedule(0);
  // At t=500 the job has overrun its estimate; a blocked head's shadow time
  // must be "now", so a candidate that would finish after `now` cannot
  // backfill ahead... with an empty machine-after-release the head starts
  // as soon as job 1 really ends. Here we only check Schedule doesn't throw
  // and nothing starts while the machine is full.
  sched.Submit(*MakeJob(2, 1, 4096, 100));
  sched.Submit(*MakeJob(3, 2, 512, 100));
  EXPECT_NO_THROW(sched.Schedule(500));
  EXPECT_EQ(sched.running_count(), 1u);
}

TEST_F(BatchSchedulerTest, ManyJobsDrainEventually) {
  BatchScheduler sched(machine_, {});
  for (int i = 0; i < 40; ++i) {
    sched.Submit(*MakeJob(i + 1, i, 512 << (i % 3), 100));
  }
  double now = 100;
  int started = 0;
  started += static_cast<int>(sched.Schedule(now).size());
  // Repeatedly end everything running and reschedule.
  while (sched.running_count() > 0 || sched.queue_size() > 0) {
    std::vector<workload::JobId> running_ids;
    for (const RunningJob& rj : sched.running()) {
      running_ids.push_back(rj.job->id);
    }
    for (auto id : running_ids) sched.OnJobEnd(id, now);
    now += 100;
    started += static_cast<int>(sched.Schedule(now).size());
    ASSERT_LT(now, 1e6) << "scheduler failed to drain";
  }
  EXPECT_EQ(started, 40);
}

TEST_F(BatchSchedulerTest, FailedJobRequeuesWithExponentialBackoff) {
  BatchScheduler::Options options;
  options.max_retries = 3;
  options.requeue_backoff_seconds = 100.0;
  options.max_backoff_seconds = 350.0;
  BatchScheduler sched(machine_, options);
  sched.Submit(*MakeJob(1, 0, 1024, 3600));
  ASSERT_EQ(sched.Schedule(0).size(), 1u);

  auto d1 = sched.OnJobFailed(1, 10.0);
  EXPECT_TRUE(d1.requeued);
  EXPECT_EQ(d1.retries, 1);
  EXPECT_DOUBLE_EQ(d1.eligible_time, 110.0);  // base backoff
  EXPECT_EQ(machine_.busy_nodes(), 0);
  EXPECT_EQ(sched.queue_size(), 1u);
  EXPECT_EQ(sched.running_count(), 0u);

  // Inside the backoff the job is invisible to scheduling.
  EXPECT_TRUE(sched.Schedule(50.0).empty());
  EXPECT_DOUBLE_EQ(sched.NextEligibleTime(50.0), 110.0);

  // At expiry it starts again.
  ASSERT_EQ(sched.Schedule(110.0).size(), 1u);

  auto d2 = sched.OnJobFailed(1, 120.0);
  EXPECT_EQ(d2.retries, 2);
  EXPECT_DOUBLE_EQ(d2.eligible_time, 120.0 + 200.0);  // doubled

  ASSERT_EQ(sched.Schedule(320.0).size(), 1u);
  auto d3 = sched.OnJobFailed(1, 330.0);
  EXPECT_EQ(d3.retries, 3);
  EXPECT_DOUBLE_EQ(d3.eligible_time, 330.0 + 350.0);  // capped, not 400
}

TEST_F(BatchSchedulerTest, RetryBudgetExhaustionAbandons) {
  BatchScheduler::Options options;
  options.max_retries = 1;
  options.requeue_backoff_seconds = 10.0;
  BatchScheduler sched(machine_, options);
  sched.Submit(*MakeJob(1, 0, 1024, 3600));
  ASSERT_EQ(sched.Schedule(0).size(), 1u);

  EXPECT_TRUE(sched.OnJobFailed(1, 5.0).requeued);
  ASSERT_EQ(sched.Schedule(15.0).size(), 1u);

  auto final_decision = sched.OnJobFailed(1, 20.0);
  EXPECT_FALSE(final_decision.requeued);
  EXPECT_EQ(final_decision.retries, 2);
  EXPECT_EQ(sched.queue_size(), 0u);
  EXPECT_EQ(sched.running_count(), 0u);
  EXPECT_EQ(machine_.busy_nodes(), 0);
}

TEST_F(BatchSchedulerTest, ZeroRetriesNeverRequeues) {
  BatchScheduler::Options options;
  options.max_retries = 0;
  BatchScheduler sched(machine_, options);
  sched.Submit(*MakeJob(1, 0, 1024, 3600));
  ASSERT_EQ(sched.Schedule(0).size(), 1u);
  EXPECT_FALSE(sched.OnJobFailed(1, 5.0).requeued);
}

TEST_F(BatchSchedulerTest, OnJobFailedUnknownThrows) {
  BatchScheduler sched(machine_, {});
  EXPECT_THROW(sched.OnJobFailed(99, 0.0), std::logic_error);
}

TEST_F(BatchSchedulerTest, BackoffDoesNotBlockOtherJobs) {
  BatchScheduler sched(machine_, {});
  sched.Submit(*MakeJob(1, 0, 4096, 3600));
  ASSERT_EQ(sched.Schedule(0).size(), 1u);
  sched.OnJobFailed(1, 10.0);  // eligible at 310
  sched.Submit(*MakeJob(2, 11, 512, 3600));
  // Job 2 is unaffected by job 1's backoff, and job 1 (WFP order may put it
  // first) must not hold the EASY reservation while ineligible.
  auto decisions = sched.Schedule(11.0);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].job->id, 2);
  EXPECT_DOUBLE_EQ(sched.NextEligibleTime(11.0), 310.0);
  EXPECT_DOUBLE_EQ(sched.NextEligibleTime(400.0), sim::kTimeInfinity);
}

TEST_F(BatchSchedulerTest, CheckpointRejectsAJobRunningTwice) {
  BatchScheduler sched(machine_, {});
  sched.Submit(*MakeJob(1, 0, 1024, 3600));
  sched.Submit(*MakeJob(2, 0, 4096, 3600));
  ASSERT_EQ(sched.Schedule(0).size(), 1u);
  ckpt::Writer w;
  sched.Serialize(w);
  const ckpt::Reader::Links links{
      .find_job =
          [this](std::int64_t id) -> const workload::Job* {
        for (const workload::Job& job : jobs_) {
          if (job.id == id) return &job;
        }
        return nullptr;
      },
      .is_pending = nullptr};

  machine::Machine machine2(machine::MachineConfig::Small());
  BatchScheduler copy(machine2, {});
  ckpt::Reader r(w.buffer(), "batch", links);
  copy.Serialize(r);
  r.ExpectEnd();
  EXPECT_EQ(copy.queue_size(), 1u);
  ASSERT_EQ(copy.running_count(), 1u);
  EXPECT_EQ(copy.running()[0].job->id, 1);

  // The queue holds one id (4 + 8 bytes); the running entry after the
  // running count is 48 bytes. Saving it twice names job 1 twice.
  std::string bytes = w.buffer();
  const std::size_t count_at = 4 + 8;
  const std::size_t entry_at = count_at + 4;
  bytes[count_at] = 2;
  bytes.insert(entry_at, bytes.substr(entry_at, 48));
  machine::Machine machine3(machine::MachineConfig::Small());
  BatchScheduler twice(machine3, {});
  ckpt::Reader bad(bytes, "batch", links);
  EXPECT_THROW(twice.Serialize(bad), ckpt::FormatError);
}

}  // namespace
}  // namespace iosched::sched
