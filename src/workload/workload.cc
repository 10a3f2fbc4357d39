#include "workload/workload.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace iosched::workload {

namespace {

/// An SWF user or group id as a provenance id: a negative one (SWF's -1
/// for "missing") is unknown (-1); one outside int32 throws.
std::int32_t ProvenanceId(std::int64_t id, const char* what, JobId job) {
  if (id < std::numeric_limits<std::int32_t>::min() ||
      id > std::numeric_limits<std::int32_t>::max()) {
    throw std::runtime_error("PairTraces: job " + std::to_string(job) + " " +
                             what + " id " + std::to_string(id) +
                             " is outside int32");
  }
  return id < 0 ? -1 : static_cast<std::int32_t>(id);
}

}  // namespace

Workload PairTraces(const SwfTrace& jobs, const IoTrace& io,
                    const PairingOptions& options) {
  std::unordered_map<JobId, const IoSummary*> by_id;
  by_id.reserve(io.size());
  for (const IoSummary& s : io) {
    if (!by_id.emplace(s.job_id, &s).second) {
      throw std::runtime_error("PairTraces: duplicate I/O record for job " +
                               std::to_string(s.job_id));
    }
  }

  Workload out;
  out.reserve(jobs.records.size());
  for (const SwfRecord& r : jobs.records) {
    if (options.completed_only && r.status != 1) continue;
    if (r.allocated_procs <= 0 && r.requested_procs <= 0) continue;
    if (r.run_time <= 0 || r.submit_time < 0) continue;

    Job job;
    job.id = r.job_number;
    job.submit_time = r.submit_time;
    job.nodes = static_cast<int>(r.allocated_procs > 0 ? r.allocated_procs
                                                       : r.requested_procs);
    job.requested_walltime = r.requested_time > 0 ? r.requested_time
                                                  : r.run_time;
    job.user_id = ProvenanceId(r.user_id, "user", job.id);
    job.project_id = ProvenanceId(r.group_id, "group", job.id);

    double link_rate = options.node_bandwidth_gbps * job.nodes;
    auto it = by_id.find(job.id);
    if (it == by_id.end() || it->second->io_phases <= 0 ||
        it->second->total_io_gb <= 0 || link_rate <= 0) {
      job.phases = MakeUniformPhases(r.run_time, 0.0, 0);
    } else {
      const IoSummary& s = *it->second;
      // Effective rate: Darshan's measured aggregate rate, bounded by what
      // the partition's links can physically inject.
      double rate = s.agg_rate_gbps > 0 ? std::min(s.agg_rate_gbps, link_rate)
                                        : link_rate;
      job.io_efficiency = rate / link_rate;
      double volume = s.total_io_gb;
      double io_seconds = volume / rate;
      double cap = options.max_io_fraction * r.run_time;
      if (io_seconds > cap) {
        // Volume inconsistent with the job's runtime: clamp to the cap.
        volume = cap * rate;
        io_seconds = cap;
      }
      double compute = r.run_time - io_seconds;
      job.phases = MakeUniformPhases(compute, volume, s.io_phases);
    }
    out.push_back(std::move(job));
  }
  SortBySubmitTime(out);
  return out;
}

void ApplyExpansionFactor(Workload& workload, double expansion_factor) {
  if (expansion_factor < 0) {
    throw std::invalid_argument("ApplyExpansionFactor: negative factor");
  }
  for (Job& job : workload) job.ScaleIoVolume(expansion_factor);
}

void SortBySubmitTime(Workload& workload) {
  std::stable_sort(workload.begin(), workload.end(),
                   [](const Job& a, const Job& b) {
                     if (a.submit_time != b.submit_time) {
                       return a.submit_time < b.submit_time;
                     }
                     return a.id < b.id;
                   });
}

WorkloadStats ComputeStats(const Workload& workload, int machine_nodes,
                           double node_bandwidth_gbps) {
  WorkloadStats stats;
  stats.job_count = workload.size();
  if (workload.empty()) return stats;

  double first_submit = workload.front().submit_time;
  double last_submit = workload.front().submit_time;
  double sum_nodes = 0.0;
  double sum_runtime = 0.0;
  double sum_io_fraction = 0.0;
  for (const Job& job : workload) {
    first_submit = std::min(first_submit, job.submit_time);
    last_submit = std::max(last_submit, job.submit_time);
    double runtime = job.UncongestedRuntime(node_bandwidth_gbps);
    sum_nodes += job.nodes;
    sum_runtime += runtime;
    sum_io_fraction += job.IoFraction(node_bandwidth_gbps);
    stats.total_node_seconds += static_cast<double>(job.nodes) * runtime;
    stats.total_io_gb += job.TotalIoVolumeGb();
  }
  auto n = static_cast<double>(workload.size());
  stats.makespan_seconds = last_submit - first_submit;
  stats.mean_nodes = sum_nodes / n;
  stats.mean_runtime_seconds = sum_runtime / n;
  stats.mean_io_fraction = sum_io_fraction / n;
  if (machine_nodes > 0 && stats.makespan_seconds > 0) {
    stats.offered_load = stats.total_node_seconds /
                         (static_cast<double>(machine_nodes) *
                          stats.makespan_seconds);
  }
  return stats;
}

SwfTrace ToSwf(const Workload& workload, double node_bandwidth_gbps) {
  SwfTrace trace;
  trace.header_comments.push_back(
      " generated by iosched (uncongested run times)");
  trace.records.reserve(workload.size());
  for (const Job& job : workload) {
    SwfRecord r;
    r.job_number = job.id;
    r.submit_time = job.submit_time;
    r.run_time = job.UncongestedRuntime(node_bandwidth_gbps);
    r.allocated_procs = job.nodes;
    r.requested_procs = job.nodes;
    r.requested_time = job.requested_walltime;
    r.status = 1;
    r.user_id = job.user_id;
    r.group_id = job.project_id;
    trace.records.push_back(r);
  }
  return trace;
}

IoTrace ToIoTrace(const Workload& workload, double node_bandwidth_gbps) {
  IoTrace trace;
  trace.reserve(workload.size());
  for (const Job& job : workload) {
    int phases = job.IoPhaseCount();
    double volume = job.TotalIoVolumeGb();
    if (phases <= 0 || volume <= 0) continue;
    trace.push_back(IoSummary{job.id, phases, volume,
                              job.FullIoRate(node_bandwidth_gbps), 0.5});
  }
  return trace;
}

std::vector<std::string> ValidateWorkload(const Workload& workload) {
  std::vector<std::string> errors;
  for (const Job& job : workload) {
    std::string err = job.Validate();
    if (!err.empty()) {
      errors.push_back("job " + std::to_string(job.id) + ": " + err);
    }
  }
  return errors;
}

namespace {

/// Word-wide fingerprint state. Every field enters as one 64-bit word, and
/// consecutive words are dealt round-robin to four independent lanes, so
/// their multiplies overlap instead of forming one dependent chain. The
/// round (multiply, rotate, multiply) and the final avalanche use xxHash64's
/// constants. A round is a bijection of the lane for a fixed word and of the
/// word for a fixed lane, so changing any one word always changes the value.
class WordHasher {
 public:
  void Word(std::uint64_t word) {
    block_[fill_++] = word;
    if (fill_ == kLanes) {
      for (int i = 0; i < kLanes; ++i) lane_[i] = Round(lane_[i], block_[i]);
      fill_ = 0;
    }
    ++words_;
  }

  void Double(double value) { Word(std::bit_cast<std::uint64_t>(value)); }

  /// Chains the lanes, the words of the partial block and the word count
  /// through one more lane, then avalanches it.
  std::uint64_t Finish() const {
    std::uint64_t h = kPrime5;
    for (std::uint64_t lane : lane_) h = Round(h, lane);
    for (int i = 0; i < fill_; ++i) h = Round(h, block_[i]);
    h = Round(h, words_);
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    return h ^ (h >> 32);
  }

 private:
  static constexpr int kLanes = 4;
  static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
  static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
  static constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

  static std::uint64_t Round(std::uint64_t lane, std::uint64_t word) {
    return std::rotl(lane + word * kPrime2, 31) * kPrime1;
  }

  std::uint64_t lane_[kLanes] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  std::uint64_t block_[kLanes] = {};
  int fill_ = 0;
  std::uint64_t words_ = 0;
};

}  // namespace

std::uint64_t WorkloadFingerprint(const Workload& workload) {
  WordHasher h;
  h.Word(workload.size());
  for (const Job& job : workload) {
    h.Word(static_cast<std::uint64_t>(job.id));
    h.Double(job.submit_time);
    h.Word(static_cast<std::uint64_t>(job.nodes));
    h.Double(job.requested_walltime);
    h.Double(job.io_efficiency);
    h.Word(static_cast<std::uint64_t>(job.user_id));
    h.Word(static_cast<std::uint64_t>(job.project_id));
    h.Word(job.phases.size());
    for (const Phase& phase : job.phases) {
      h.Word(static_cast<std::uint64_t>(phase.kind) |
             std::uint64_t{phase.is_flush} << 32);
      h.Double(phase.amount);
    }
  }
  return h.Finish();
}

}  // namespace iosched::workload
