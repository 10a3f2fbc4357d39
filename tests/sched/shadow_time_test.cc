// Differential test of the EASY reservation probe. BatchScheduler keeps its
// running set ordered by predicted end and caches one release mask per
// prefix; the reference below is the from-scratch probe it replaced: copy
// the machine, sort the running set by clamped predicted end, and replay
// releases. Both must agree exactly, on every state a run can reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "ckpt/serializer.h"
#include "machine/machine.h"
#include "sched/batch_scheduler.h"
#include "util/rng.h"
#include "util/units.h"

namespace iosched::sched {
namespace {

using RunningSet = std::span<const RunningJob>;

sim::SimTime ReferenceShadowTime(const machine::Machine& machine,
                                 const RunningSet& running,
                                 const workload::Job& head,
                                 sim::SimTime now) {
  if (machine.CanAllocate(head.nodes)) return now;
  std::vector<const RunningJob*> by_end;
  for (const RunningJob& rj : running) by_end.push_back(&rj);
  std::sort(by_end.begin(), by_end.end(),
            [now](const RunningJob* a, const RunningJob* b) {
              double ea = std::max(a->predicted_end, now);
              double eb = std::max(b->predicted_end, now);
              if (ea != eb) return ea < eb;
              return a->job->id < b->job->id;
            });
  auto fits_after = [&](std::size_t prefix) {
    machine::Machine probe = machine;
    for (std::size_t k = 0; k < prefix; ++k) {
      probe.Release(by_end[k]->partition);
    }
    return probe.CanAllocate(head.nodes);
  };
  std::size_t lo = 1, hi = by_end.size();
  if (hi == 0 || !fits_after(hi)) {
    sim::SimTime latest = now;
    for (const RunningJob* rj : by_end) {
      latest = std::max(latest, rj->predicted_end);
    }
    return latest;
  }
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (fits_after(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::max(by_end[lo - 1]->predicted_end, now);
}

bool ReferenceBackfillOk(const machine::Machine& machine,
                         const RunningSet& running,
                         const workload::Job& candidate,
                         const workload::Job& head, sim::SimTime now,
                         sim::SimTime shadow) {
  if (now + candidate.requested_walltime <= shadow + util::kTimeEpsilon) {
    return true;
  }
  machine::Machine probe = machine;
  for (const RunningJob& rj : running) {
    if (std::max(rj.predicted_end, now) <= shadow + util::kTimeEpsilon) {
      probe.Release(rj.partition);
    }
  }
  return probe.CanAllocate(head.nodes);
}

class Jobs {
 public:
  workload::Job& Make(int nodes, double walltime) {
    workload::Job& j = jobs_.emplace_back();
    j.id = static_cast<workload::JobId>(jobs_.size());
    j.nodes = nodes;
    j.requested_walltime = walltime;
    j.phases = {workload::Phase::Compute(walltime)};
    return j;
  }
  const workload::Job* Find(workload::JobId id) const {
    if (id < 1 || id > static_cast<workload::JobId>(jobs_.size())) {
      return nullptr;
    }
    return &jobs_[static_cast<std::size_t>(id - 1)];
  }

 private:
  std::deque<workload::Job> jobs_;  // stable addresses
};

// Every shadow time and backfill verdict the scheduler gives on `machine`
// equals the reference's, for each probe head and a tentatively allocated
// candidate. Returns the number of comparisons made.
int CompareProbes(const BatchScheduler& sched, machine::Machine& machine,
                  const std::vector<const workload::Job*>& heads,
                  const workload::Job& candidate, sim::SimTime now,
                  util::Rng& rng) {
  int compared = 0;
  for (const workload::Job* head : heads) {
    sim::SimTime expect =
        ReferenceShadowTime(machine, sched.running(), *head, now);
    EXPECT_EQ(sched.ShadowTime(*head, now), expect)
        << "head " << head->id << " (" << head->nodes << " nodes) at "
        << now;
    ++compared;
    auto partition = machine.Allocate(candidate.nodes);
    if (!partition) continue;
    // The shadow the pass would use, the values where a predicted end
    // meets the release limit `shadow + kTimeEpsilon`, and arbitrary ones.
    for (sim::SimTime shadow :
         {expect, expect - util::kTimeEpsilon, expect + util::kTimeEpsilon,
          now + rng.Uniform(0, 7200), now - rng.Uniform(0, 100)}) {
      EXPECT_EQ(sched.BackfillOk(candidate, *head, now, shadow),
                ReferenceBackfillOk(machine, sched.running(), candidate,
                                    *head, now, shadow))
          << "candidate " << candidate.id << " head " << head->id
          << " shadow " << shadow << " at " << now;
      ++compared;
    }
    machine.Release(*partition);
  }
  return compared;
}

class ShadowTimeSweep : public ::testing::TestWithParam<std::uint64_t> {};

// A random run: submits of every size, passes that start and backfill
// jobs, ends before, at and long after the predicted end (overdue jobs),
// fault kills with requeue, midplane faults and repairs, and periodic
// checkpoint round trips that continue on the restored scheduler.
TEST_P(ShadowTimeSweep, MatchesCopySortReleaseReference) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  const bool mira = seed % 2 == 1;
  const machine::MachineConfig config =
      mira ? machine::MachineConfig::Mira() : machine::MachineConfig::Small();
  const int total = config.total_nodes();
  const int per_mp = config.nodes_per_midplane;
  BatchScheduler::Options options;
  options.order = seed % 4 < 2 ? QueueOrder::kFcfs : QueueOrder::kWfp;
  options.requeue_backoff_seconds = 60.0;

  Jobs jobs;
  auto random_job = [&]() -> workload::Job& {
    int mps = 1 << rng.UniformInt(0, mira ? 6 : 3);
    int nodes = std::min(total, mps * per_mp);
    if (rng.Bernoulli(0.3)) nodes -= static_cast<int>(rng.UniformInt(0, 511));
    // Coarse walltimes so predicted ends tie often.
    double walltime = 600.0 * static_cast<double>(rng.UniformInt(1, 8));
    return jobs.Make(std::max(1, nodes), walltime);
  };

  auto machine = std::make_unique<machine::Machine>(config);
  auto sched = std::make_unique<BatchScheduler>(*machine, options);
  std::vector<const workload::Job*> heads;
  for (int mps = 1; mps <= config.total_midplanes(); mps *= 2) {
    heads.push_back(&jobs.Make(std::min(total, mps * per_mp), 3600));
  }
  heads.push_back(&jobs.Make(total, 3600));
  sim::SimTime now = 0.0;
  int compared = 0;
  int in_pass = 0;

  // Inside a pass (after earlier backfills of the same pass started, with
  // this candidate's partition allocated): the verdicts must still match.
  auto install_hook = [&]() {
    sched->SetBackfillAdmission(
        [&](const workload::Job& job, sim::SimTime at, sim::SimTime shadow) {
          for (const workload::Job* head : heads) {
            EXPECT_EQ(sched->ShadowTime(*head, at),
                      ReferenceShadowTime(*machine, sched->running(), *head,
                                          at));
            EXPECT_EQ(sched->BackfillOk(job, *head, at, shadow),
                      ReferenceBackfillOk(*machine, sched->running(), job,
                                          *head, at, shadow));
            ++in_pass;
          }
        });
  };
  install_hook();

  for (int step = 0; step < 400; ++step) {
    now += static_cast<double>(rng.UniformInt(0, 4)) * 300.0;
    for (int n = static_cast<int>(rng.UniformInt(0, 3)); n > 0; --n) {
      sched->Submit(random_job());
    }
    sched->Schedule(now);

    // Ends: some early, some exactly on time, some long overdue.
    std::vector<RunningJob> running(sched->running().begin(),
                                    sched->running().end());
    for (const RunningJob& rj : running) {
      double u = rng.Uniform(0, 1);
      if (u < 0.03) {
        sched->OnJobFailed(rj.job->id, now);
      } else if (rj.predicted_end <= now ? u < 0.5 : u < 0.15) {
        sched->OnJobEnd(rj.job->id, now);
      }
    }
    if (rng.Bernoulli(0.1)) {
      machine->SetFaulted(
          static_cast<int>(rng.UniformInt(0, config.total_midplanes() - 1)),
          rng.Bernoulli(0.6));
    }

    compared +=
        CompareProbes(*sched, *machine, heads, random_job(), now, rng);

    if (step % 50 == 49) {
      // Checkpoint round trip; the run continues on the restored copy.
      ckpt::Writer w;
      machine->Serialize(w);
      sched->Serialize(w);
      auto machine2 = std::make_unique<machine::Machine>(config);
      auto sched2 = std::make_unique<BatchScheduler>(*machine2, options);
      ckpt::Reader r(w.buffer(), "shadow test",
                     {.find_job = [&jobs](std::int64_t id) {
                        return jobs.Find(id);
                      },
                      .is_pending = nullptr});
      machine2->Serialize(r);
      sched2->Serialize(r);
      for (const workload::Job* head : heads) {
        ASSERT_EQ(sched2->ShadowTime(*head, now),
                  sched->ShadowTime(*head, now));
      }
      sched = std::move(sched2);
      machine = std::move(machine2);
      install_hook();
      compared +=
          CompareProbes(*sched, *machine, heads, random_job(), now, rng);
    }
  }
  EXPECT_GT(compared, 2000);
  EXPECT_GT(in_pass, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShadowTimeSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull,
                                           7ull, 8ull));

class ShadowTimeCases : public ::testing::Test {
 protected:
  ShadowTimeCases() : machine_(machine::MachineConfig::Small()) {}

  // Start `job` at `now` on an otherwise idle queue.
  void Start(BatchScheduler& sched, const workload::Job& job,
             sim::SimTime now) {
    sched.Submit(job);
    ASSERT_EQ(sched.Schedule(now).size(), 1u);
  }

  void ExpectShadow(const BatchScheduler& sched, const workload::Job& head,
                    sim::SimTime now, sim::SimTime expected) {
    EXPECT_EQ(ReferenceShadowTime(machine_, sched.running(), head, now),
              expected);
    EXPECT_EQ(sched.ShadowTime(head, now), expected);
  }

  machine::Machine machine_;
  Jobs jobs_;
};

TEST_F(ShadowTimeCases, EmptyRunningSetGivesNow) {
  BatchScheduler sched(machine_, {});
  const workload::Job& whole = jobs_.Make(4096, 100);
  ExpectShadow(sched, whole, 5.0, 5.0);
  // Blocked by a fault with nothing running: still `now`.
  machine_.SetFaulted(3, true);
  ExpectShadow(sched, whole, 5.0, 5.0);
}

TEST_F(ShadowTimeCases, OverdueAndTiedEndsResolveToNow) {
  BatchScheduler sched(machine_, {});
  // Four 1024-node jobs: two tied at 100, one at 50, one at 300.
  Start(sched, jobs_.Make(1024, 100), 0);
  Start(sched, jobs_.Make(1024, 100), 0);
  Start(sched, jobs_.Make(1024, 50), 0);
  Start(sched, jobs_.Make(1024, 300), 0);
  const workload::Job& half = jobs_.Make(2048, 10);
  const workload::Job& whole = jobs_.Make(4096, 10);
  // Before anything is overdue: the tie at 100 frees the second block.
  ExpectShadow(sched, half, 10, 100);
  ExpectShadow(sched, whole, 10, 300);
  // At 200 three jobs are overdue; any prefix inside that block is `now`.
  ExpectShadow(sched, half, 200, 200);
  ExpectShadow(sched, whole, 200, 300);
  // Everything overdue.
  ExpectShadow(sched, whole, 400, 400);
}

TEST_F(ShadowTimeCases, HeadFitsOnlyWithEverythingReleased) {
  BatchScheduler sched(machine_, {});
  Start(sched, jobs_.Make(512, 100), 0);
  Start(sched, jobs_.Make(1024, 400), 0);
  Start(sched, jobs_.Make(512, 200), 0);
  const workload::Job& whole = jobs_.Make(4096, 10);
  ExpectShadow(sched, whole, 0, 400);
  // A fault outside every partition: the whole machine never fits, and
  // the reservation falls back to the latest predicted end.
  machine_.SetFaulted(7, true);
  ExpectShadow(sched, whole, 0, 400);
  // Half the machine still fits once the right jobs leave.
  const workload::Job& half = jobs_.Make(2048, 10);
  ExpectShadow(sched, half, 0, 400);
  machine_.SetFaulted(7, false);
  ExpectShadow(sched, half, 0, 0);
}

TEST_F(ShadowTimeCases, BackfillStartedInThePassJoinsTheReleaseSet) {
  BatchScheduler::Options fcfs;
  fcfs.order = QueueOrder::kFcfs;
  BatchScheduler sched(machine_, fcfs);
  Start(sched, jobs_.Make(1024, 1000), 0);  // midplanes 0-1 until 1000
  Start(sched, jobs_.Make(1024, 10), 0);    // 2-3, ends at once
  Start(sched, jobs_.Make(1024, 5000), 0);  // 4-5 until 5000
  sched.OnJobEnd(2, 5);
  // The head needs 0-3, free at the shadow time 1000. The first backfill
  // takes midplane 2 and ends before the shadow; the second takes 6-7 and
  // ends after it, so it may start only if the head still fits at 1000,
  // which needs the first backfill, started earlier in this same pass, in
  // the release set.
  const workload::Job& head = jobs_.Make(2048, 100);
  sched.Submit(head);
  sched.Submit(jobs_.Make(512, 500));
  sched.Submit(jobs_.Make(1024, 5000));
  auto started = sched.Schedule(10);
  ASSERT_EQ(started.size(), 2u);
  EXPECT_EQ(started[0].job->id, 5);
  EXPECT_EQ(started[0].partition.first_midplane, 2);
  EXPECT_EQ(started[1].job->id, 6);
  EXPECT_EQ(started[1].partition.first_midplane, 6);
  ExpectShadow(sched, head, 10, 1000);
}

TEST_F(ShadowTimeCases, ReleaseMaskKeepsReleasesCheck) {
  BatchScheduler sched(machine_, {});
  Start(sched, jobs_.Make(4096, 100), 0);
  // Corrupt the machine behind the scheduler's back: its running partition
  // is no longer occupied, which a release would refuse.
  machine_.Release(sched.running().front().partition);
  machine_.SetFaulted(0, true);
  EXPECT_THROW(sched.ShadowTime(jobs_.Make(4096, 10), 0), std::logic_error);
}

}  // namespace
}  // namespace iosched::sched
