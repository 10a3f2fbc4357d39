#include "sched/batch_scheduler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "ckpt/serializer.h"
#include "obs/hub.h"
#include "util/units.h"

namespace iosched::sched {

BatchScheduler::BatchScheduler(machine::Machine& machine, Options options)
    : machine_(machine),
      options_(options),
      wait_queue_(options.order),
      release_masks_(machine.mask_words(), 0),
      jitter_rng_(options.backoff_jitter_seed, /*stream=*/37) {
  std::string err = util::FirstIssue(options_);
  if (!err.empty()) throw std::invalid_argument("BatchScheduler: " + err);
}

void BatchScheduler::Submit(const workload::Job& job) {
  std::optional<int> block_nodes = machine_.BlockNodesFor(job.nodes);
  if (!block_nodes) {
    throw std::invalid_argument("Submit: job " + std::to_string(job.id) +
                                " larger than the machine");
  }
  queue_.push_back(&job);
  wait_queue_.Insert(job, *block_nodes);
}

void BatchScheduler::StartRunning(const workload::Job& job,
                                  const machine::Partition& partition,
                                  sim::SimTime now) {
  RunningJob run{&job, partition, now, now + job.requested_walltime};
  auto pos = std::upper_bound(running_.begin(), running_.end(), run,
                              EndsBefore);
  masks_built_ = std::min(
      masks_built_, static_cast<std::size_t>(pos - running_.begin()) + 1);
  running_.insert(pos, run);
}

const workload::Job* BatchScheduler::StopRunning(workload::JobId id,
                                                 const char* caller) {
  auto it = std::find_if(running_.begin(), running_.end(),
                         [id](const RunningJob& r) { return r.job->id == id; });
  if (it == running_.end()) {
    throw std::logic_error(std::string(caller) + ": job " +
                           std::to_string(id) + " not running");
  }
  machine_.Release(it->partition);
  masks_built_ = std::min(
      masks_built_, static_cast<std::size_t>(it - running_.begin()) + 1);
  const workload::Job* job = it->job;
  running_.erase(it);
  return job;
}

bool BatchScheduler::IsRunning(workload::JobId id) const {
  return std::any_of(running_.begin(), running_.end(),
                     [id](const RunningJob& r) { return r.job->id == id; });
}

std::span<const std::uint64_t> BatchScheduler::ReleaseMask(
    std::size_t k) const {
  const std::size_t words = machine_.mask_words();
  if (k >= masks_built_) {
    release_masks_.resize((k + 1) * words);
    for (std::size_t j = masks_built_; j <= k; ++j) {
      std::uint64_t* mask = release_masks_.data() + j * words;
      std::copy(mask - words, mask, mask);
      machine_.AddToReleaseMask(running_[j - 1].partition, {mask, words});
    }
    masks_built_ = k + 1;
  }
  return {release_masks_.data() + k * words, words};
}

sim::SimTime BatchScheduler::ShadowTime(const workload::Job& head,
                                        sim::SimTime now) const {
  if (machine_.CanAllocate(head.nodes)) return now;
  // Fitting is monotone in the released prefix (releases only free space),
  // so search for the smallest prefix whose release lets the head in:
  // gallop over prefixes 1, 2, 4, ..., then bisect the last step. Each
  // probe is one allocator search against a cached mask, and only the
  // masks up to about twice the answer are ever built.
  auto fits_after = [&](std::size_t prefix) {
    return machine_.CanAllocateReleasing(head.nodes, ReleaseMask(prefix));
  };
  const std::size_t n = running_.size();
  if (n == 0) return now;
  std::size_t lo = 1, hi = 1;  // prefixes shorter than lo leave it blocked
  while (!fits_after(hi)) {
    if (hi == n) {
      // Blocked even with everything released (faulted midplanes): fall
      // back to the latest predicted end.
      return std::max(running_.back().predicted_end, now);
    }
    lo = hi + 1;
    hi = std::min(2 * hi, n);
  }
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (fits_after(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::max(running_[lo - 1].predicted_end, now);
}

bool BatchScheduler::BackfillOk(const workload::Job& candidate,
                                const workload::Job& head, sim::SimTime now,
                                sim::SimTime shadow) const {
  // Finishes before the reservation needs the space.
  const sim::SimTime limit = shadow + util::kTimeEpsilon;
  if (now + candidate.requested_walltime <= limit) return true;
  // Otherwise the head must still fit at shadow time with the candidate's
  // partition occupied: release every running job with
  // max(predicted_end, now) <= limit, a prefix of the release order.
  std::size_t released = 0;
  if (now <= limit) {
    released = static_cast<std::size_t>(
        std::upper_bound(running_.begin(), running_.end(), limit,
                         [](sim::SimTime t, const RunningJob& r) {
                           return t < r.predicted_end;
                         }) -
        running_.begin());
  }
  return machine_.CanAllocateReleasing(head.nodes, ReleaseMask(released));
}

std::vector<StartDecision> BatchScheduler::Schedule(sim::SimTime now) {
  if (hub_ != nullptr) {
    hub_->sched_passes->Inc();
    double depth = static_cast<double>(queue_.size());
    hub_->queue_depth->Set(depth);
    hub_->queue_depth_hist->Observe(depth);
  }
  std::vector<StartDecision> decisions;
  if (queue_.empty()) return decisions;

  // Build the eligible candidates in service order. Jobs still inside
  // their requeue backoff are invisible to this pass (they neither start
  // nor hold the EASY reservation). The wait queue orders the whole
  // standing queue and the pass filters afterwards — identical to ordering
  // the filtered subset, because the order is a total order independent of
  // membership.
  candidates_.clear();
  for (const WaitQueue::Entry& e : wait_queue_.Ordered(now)) {
    if (InBackoff(e.id, now)) continue;
    candidates_.push_back(Candidate{e.job, e.block_nodes});
  }
  if (candidates_.empty()) return decisions;

  const workload::Job* blocked_head = nullptr;
  sim::SimTime shadow = 0.0;
  // Smallest block size (in nodes) that failed to allocate during this
  // pass. Aligned blocks nest, so once a block of B midplanes has no free
  // run neither does any larger block — and the machine only loses free
  // space as the pass backfills jobs (a failed BackfillOk releases its
  // tentative partition, restoring the state exactly). Skipping those
  // candidates outright avoids the allocator probe entirely.
  int min_failed_block_nodes = std::numeric_limits<int>::max();

  for (const Candidate& candidate : candidates_) {
    const workload::Job* job = candidate.job;
    if (blocked_head == nullptr) {
      auto partition = machine_.Allocate(job->nodes);
      if (partition) {
        decisions.push_back(StartDecision{job, *partition});
        StartRunning(*job, *partition, now);
        continue;
      }
      // First blocked job: it owns the reservation.
      blocked_head = job;
      if (!options_.easy_backfill) break;
      shadow = ShadowTime(*job, now);
      continue;
    }
    // Backfill phase.
    int block_nodes = candidate.block_nodes;
    if (block_nodes >= min_failed_block_nodes) continue;
    auto partition = machine_.Allocate(job->nodes);
    if (!partition) {
      min_failed_block_nodes = block_nodes;
      continue;
    }
    if (BackfillOk(*job, *blocked_head, now, shadow)) {
      if (backfill_admission_) backfill_admission_(*job, now, shadow);
      if (hub_ != nullptr) hub_->backfill_starts->Inc();
      decisions.push_back(StartDecision{job, *partition});
      StartRunning(*job, *partition, now);
    } else {
      machine_.Release(*partition);
    }
  }

  if (!decisions.empty()) {
    // Drop started jobs from the queue, preserving submission order. A
    // queued job is running iff this pass started it, so scanning the
    // (few) decisions beats a hash probe per queued job.
    auto started = [&decisions](const workload::Job* j) {
      for (const StartDecision& d : decisions) {
        if (d.job == j) return true;
      }
      return false;
    };
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), started),
                 queue_.end());
    for (const StartDecision& d : decisions) {
      eligible_after_.erase(d.job->id);
      wait_queue_.Remove(d.job->id);
    }
  }
  return decisions;
}

bool BatchScheduler::InBackoff(workload::JobId id, sim::SimTime now) const {
  if (eligible_after_.empty()) return false;
  auto it = eligible_after_.find(id);
  return it != eligible_after_.end() && it->second > now + util::kTimeEpsilon;
}

BatchScheduler::RequeueDecision BatchScheduler::OnJobFailed(
    workload::JobId id, sim::SimTime now) {
  const workload::Job* job = StopRunning(id, "OnJobFailed");

  RequeueDecision decision;
  decision.retries = ++retries_[id];
  if (decision.retries > options_.max_retries) {
    // Budget exhausted: the job leaves the system for good.
    retries_.erase(id);
    eligible_after_.erase(id);
    return decision;
  }
  decision.requeued = true;
  decision.eligible_time = now + BackoffDelay(decision.retries);
  eligible_after_[id] = decision.eligible_time;
  queue_.push_back(job);
  // Block size exists: Submit validated the job fits the machine.
  wait_queue_.Insert(*job, *machine_.BlockNodesFor(job->nodes));
  return decision;
}

double BatchScheduler::BackoffDelay(int retries) {
  // Stop doubling once the cap is reached: a naive 2^(retries-1) loop
  // overflows to inf at high retry counts before a final min() could clamp
  // it, and inf poisons the eligible time.
  double backoff = options_.requeue_backoff_seconds;
  for (int i = 1; i < retries && backoff < options_.max_backoff_seconds;
       ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, options_.max_backoff_seconds);
  if (options_.backoff_jitter_fraction > 0) {
    backoff *= 1.0 + options_.backoff_jitter_fraction *
                         jitter_rng_.Uniform(-1.0, 1.0);
  }
  return std::max(0.0, backoff);
}

sim::SimTime BatchScheduler::NextEligibleTime(sim::SimTime now) const {
  sim::SimTime next = sim::kTimeInfinity;
  for (const workload::Job* job : queue_) {
    auto it = eligible_after_.find(job->id);
    if (it != eligible_after_.end() && it->second > now + util::kTimeEpsilon) {
      next = std::min(next, it->second);
    }
  }
  return next;
}

void BatchScheduler::OnJobEnd(workload::JobId id, sim::SimTime now) {
  (void)now;
  StopRunning(id, "OnJobEnd");
  retries_.erase(id);
}

template <class Ar>
void BatchScheduler::Serialize(Ar& ar) {
  ar.Seq(queue_, [&ar](const workload::Job*& job) { ar.JobRef(job); });
  // The running set is written in job-id order.
  const auto id_order = [](const RunningJob& a, const RunningJob& b) {
    return a.job->id < b.job->id;
  };
  std::vector<RunningJob> by_id;
  if constexpr (!Ar::kLoading) {
    by_id = running_;
    std::sort(by_id.begin(), by_id.end(), id_order);
  }
  ar.Seq(by_id, [&ar](RunningJob& run) {
    ar.JobRef(run.job);
    ar.I64(run.partition.first_midplane);
    ar.I64(run.partition.midplane_count);
    ar.I64(run.partition.nodes);
    ar.F64(run.start_time);
    ar.F64(run.predicted_end);
  });
  ar.SortedMap(retries_,
               [&ar](workload::JobId, int& retries) { ar.I64(retries); });
  ar.SortedMap(eligible_after_,
               [&ar](workload::JobId, sim::SimTime& t) { ar.F64(t); });
  ar.Rng(jitter_rng_);
  if constexpr (Ar::kLoading) {
    // Rebuild what the file does not hold: the service order, the running
    // set in release order, and the release masks.
    wait_queue_.Clear();
    for (const workload::Job* job : queue_) {
      wait_queue_.Insert(*job, *machine_.BlockNodesFor(job->nodes));
    }
    std::sort(by_id.begin(), by_id.end(), id_order);
    auto twice = std::adjacent_find(
        by_id.begin(), by_id.end(),
        [](const RunningJob& a, const RunningJob& b) {
          return a.job->id == b.job->id;
        });
    if (twice != by_id.end()) {
      ar.Fail("job " + std::to_string(twice->job->id) + " is running twice");
    }
    running_ = std::move(by_id);
    std::sort(running_.begin(), running_.end(), EndsBefore);
    masks_built_ = 1;
  }
}
template void BatchScheduler::Serialize(ckpt::Writer&);
template void BatchScheduler::Serialize(ckpt::Reader&);

}  // namespace iosched::sched
