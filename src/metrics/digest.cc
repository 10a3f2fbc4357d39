#include "metrics/digest.h"

#include <bit>
#include <cstdio>

namespace iosched::metrics {

std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffULL;
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t FnvMix(std::uint64_t hash, double value) {
  return FnvMix(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t DigestRecords(const JobRecords& records) {
  std::uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<std::uint64_t>(records.size()));
  for (const JobRecord& r : records) {
    h = FnvMix(h, static_cast<std::uint64_t>(r.id));
    h = FnvMix(h, static_cast<std::uint64_t>(r.requested_nodes));
    h = FnvMix(h, static_cast<std::uint64_t>(r.allocated_nodes));
    h = FnvMix(h, r.submit_time);
    h = FnvMix(h, r.start_time);
    h = FnvMix(h, r.end_time);
    h = FnvMix(h, r.uncongested_runtime);
    h = FnvMix(h, r.requested_walltime);
    h = FnvMix(h, r.io_time_actual);
    h = FnvMix(h, r.io_time_uncongested);
    h = FnvMix(h, static_cast<std::uint64_t>(r.io_phase_count));
    h = FnvMix(h, static_cast<std::uint64_t>(r.killed ? 1 : 0));
    h = FnvMix(h, static_cast<std::uint64_t>(r.attempts));
    h = FnvMix(h, static_cast<std::uint64_t>(r.abandoned ? 1 : 0));
    h = FnvMix(h, r.lost_seconds);
    // Mixed only when set so runs without checkpoint traffic keep the
    // digests pinned by BENCH_core.json.
    if (r.flush_count != 0)
      h = FnvMix(h, static_cast<std::uint64_t>(r.flush_count));
    if (r.rework_seconds != 0.0) h = FnvMix(h, r.rework_seconds);
  }
  return h;
}

std::uint64_t DigestBandwidth(const BandwidthSummary& s) {
  std::uint64_t h = kFnvOffset;
  h = FnvMix(h, s.time_span);
  h = FnvMix(h, s.congested_fraction);
  h = FnvMix(h, static_cast<std::uint64_t>(s.episode_count));
  h = FnvMix(h, s.mean_episode_seconds);
  h = FnvMix(h, s.max_episode_seconds);
  h = FnvMix(h, s.mean_demand_gbps);
  h = FnvMix(h, s.mean_granted_gbps);
  h = FnvMix(h, s.mean_wasted_gbps);
  return h;
}

std::uint64_t DigestReport(const Report& r) {
  std::uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<std::uint64_t>(r.job_count));
  h = FnvMix(h, r.avg_wait_seconds);
  h = FnvMix(h, r.avg_response_seconds);
  h = FnvMix(h, r.utilization);
  h = FnvMix(h, r.p90_wait_seconds);
  h = FnvMix(h, r.p90_response_seconds);
  h = FnvMix(h, r.max_wait_seconds);
  h = FnvMix(h, r.avg_bounded_slowdown);
  h = FnvMix(h, r.avg_runtime_seconds);
  h = FnvMix(h, r.avg_runtime_expansion);
  h = FnvMix(h, r.avg_io_slowdown);
  h = FnvMix(h, r.makespan_seconds);
  h = FnvMix(h, r.total_io_gb);
  h = FnvMix(h, static_cast<std::uint64_t>(r.requeued_job_count));
  h = FnvMix(h, static_cast<std::uint64_t>(r.abandoned_job_count));
  h = FnvMix(h, r.total_attempts);
  h = FnvMix(h, r.lost_node_seconds);
  h = FnvMix(h, r.avg_wait_clean_seconds);
  h = FnvMix(h, r.avg_wait_requeued_seconds);
  h = FnvMix(h, r.avg_response_requeued_seconds);
  h = FnvMix(h, r.total_flushes);
  h = FnvMix(h, r.rework_node_seconds);
  h = FnvMix(h, r.rework_ratio);
  h = FnvMix(h, r.goodput);
  return h;
}

std::string HexDigest(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace iosched::metrics
