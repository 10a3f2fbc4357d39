#include "metrics/report.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/csv.h"
#include "util/stats.h"
#include "util/units.h"

namespace iosched::metrics {

Report Summarize(const JobRecords& records, const UtilizationTracker& util,
                 double warmup_fraction, double cooldown_fraction) {
  Report report;
  report.job_count = records.size();
  report.utilization =
      util.sample_count() > 0
          ? util.StableUtilization(warmup_fraction, cooldown_fraction)
          : 0.0;
  if (records.empty()) return report;

  std::vector<double> waits;
  std::vector<double> responses;
  waits.reserve(records.size());
  responses.reserve(records.size());
  util::RunningStats runtime_stats;
  util::RunningStats expansion_stats;
  util::RunningStats io_slowdown_stats;
  util::RunningStats bounded_slowdown_stats;
  util::RunningStats clean_wait_stats;
  util::RunningStats requeued_wait_stats;
  util::RunningStats requeued_response_stats;
  constexpr double kSlowdownBoundSeconds = 600.0;
  double first_submit = records.front().submit_time;
  double last_end = records.front().end_time;
  double useful_node_seconds = 0.0;
  for (const JobRecord& r : records) {
    report.total_attempts += static_cast<std::uint64_t>(r.attempts);
    report.lost_node_seconds += r.lost_seconds * r.allocated_nodes;
    report.total_flushes += static_cast<std::uint64_t>(r.flush_count);
    report.rework_node_seconds += r.rework_seconds * r.allocated_nodes;
    first_submit = std::min(first_submit, r.submit_time);
    last_end = std::max(last_end, r.end_time);
    if (!r.abandoned) useful_node_seconds += r.Runtime() * r.allocated_nodes;
    if (r.abandoned) {
      // The job never completed; its wait/response are undefined.
      ++report.abandoned_job_count;
      continue;
    }
    if (r.attempts > 1) {
      ++report.requeued_job_count;
      requeued_wait_stats.Add(r.WaitTime());
      requeued_response_stats.Add(r.ResponseTime());
    } else {
      clean_wait_stats.Add(r.WaitTime());
    }
    waits.push_back(r.WaitTime());
    responses.push_back(r.ResponseTime());
    runtime_stats.Add(r.Runtime());
    expansion_stats.Add(r.RuntimeExpansion());
    if (r.io_time_uncongested > 0) io_slowdown_stats.Add(r.IoSlowdown());
    bounded_slowdown_stats.Add(std::max(
        1.0, r.ResponseTime() / std::max(r.Runtime(), kSlowdownBoundSeconds)));
  }
  report.avg_wait_clean_seconds =
      clean_wait_stats.count() ? clean_wait_stats.mean() : 0.0;
  report.avg_wait_requeued_seconds =
      requeued_wait_stats.count() ? requeued_wait_stats.mean() : 0.0;
  report.avg_response_requeued_seconds =
      requeued_response_stats.count() ? requeued_response_stats.mean() : 0.0;
  if (useful_node_seconds + report.rework_node_seconds > 0) {
    report.rework_ratio =
        report.rework_node_seconds /
        (useful_node_seconds + report.rework_node_seconds);
  }
  if (useful_node_seconds + report.lost_node_seconds > 0) {
    report.goodput = useful_node_seconds /
                     (useful_node_seconds + report.lost_node_seconds);
  }
  if (waits.empty()) {
    report.makespan_seconds = last_end - first_submit;
    return report;
  }
  util::Summary wait_summary(std::move(waits));
  util::Summary response_summary(std::move(responses));
  report.avg_wait_seconds = wait_summary.mean();
  report.avg_response_seconds = response_summary.mean();
  report.p90_wait_seconds = wait_summary.p90();
  report.p90_response_seconds = response_summary.p90();
  report.max_wait_seconds = wait_summary.max();
  report.avg_bounded_slowdown = bounded_slowdown_stats.mean();
  report.avg_runtime_seconds = runtime_stats.mean();
  report.avg_runtime_expansion =
      expansion_stats.count() ? expansion_stats.mean() : 1.0;
  report.avg_io_slowdown =
      io_slowdown_stats.count() ? io_slowdown_stats.mean() : 1.0;
  report.makespan_seconds = last_end - first_submit;
  return report;
}

void WriteRecordsCsv(std::ostream& out, const JobRecords& records) {
  util::CsvWriter csv(out);
  csv.Header({"job_id", "requested_nodes", "allocated_nodes", "submit",
              "start", "end", "wait", "response", "runtime",
              "uncongested_runtime", "expansion", "io_time_actual",
              "io_time_uncongested", "io_phases", "killed", "attempts",
              "abandoned", "lost_seconds", "flush_count", "rework_seconds"});
  for (const JobRecord& r : records) {
    csv.Row()
        .Add(static_cast<long long>(r.id))
        .Add(r.requested_nodes)
        .Add(r.allocated_nodes)
        .Add(r.submit_time)
        .Add(r.start_time)
        .Add(r.end_time)
        .Add(r.WaitTime())
        .Add(r.ResponseTime())
        .Add(r.Runtime())
        .Add(r.uncongested_runtime)
        .Add(r.RuntimeExpansion())
        .Add(r.io_time_actual)
        .Add(r.io_time_uncongested)
        .Add(r.io_phase_count)
        .Add(std::string_view(r.killed ? "1" : "0"))
        .Add(r.attempts)
        .Add(std::string_view(r.abandoned ? "1" : "0"))
        .Add(r.lost_seconds)
        .Add(r.flush_count)
        .Add(r.rework_seconds);
  }
}

std::string ToString(const Report& report) {
  std::ostringstream os;
  os << "jobs=" << report.job_count
     << " avg_wait=" << util::SecondsToMinutes(report.avg_wait_seconds)
     << "min avg_response="
     << util::SecondsToMinutes(report.avg_response_seconds)
     << "min utilization=" << report.utilization * 100.0 << "%"
     << " avg_expansion=" << report.avg_runtime_expansion
     << " avg_io_slowdown=" << report.avg_io_slowdown;
  if (report.requeued_job_count > 0 || report.abandoned_job_count > 0) {
    os << " requeued=" << report.requeued_job_count
       << " abandoned=" << report.abandoned_job_count
       << " fault_wait_delta="
       << util::SecondsToMinutes(report.avg_wait_requeued_seconds -
                                 report.avg_wait_clean_seconds)
       << "min";
  }
  if (report.total_flushes > 0 || report.rework_node_seconds > 0) {
    os << " flushes=" << report.total_flushes
       << " rework_ratio=" << report.rework_ratio
       << " goodput=" << report.goodput;
  }
  return os.str();
}

}  // namespace iosched::metrics
