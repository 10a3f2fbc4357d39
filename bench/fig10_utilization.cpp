// Figure 10 reproduction: system utilization (normalized to BASE_LINE) per
// policy on the three one-month evaluation workloads.
#include "figure_common.h"

int main() {
  using namespace iosched;
  std::printf("== Figure 10: normalized system utilization (all policies x 3 "
              "workloads, %.0f days) ==\n\n", bench::BenchDays());
  util::ThreadPool pool;
  bench::PaperSeries paper = bench::PaperFig10Utilization();
  for (int wl = 1; wl <= 3; ++wl) {
    auto runs = bench::RunMonth(wl, pool);
    util::Table table({"policy", "measured util", "normalized",
                       "paper normalized"});
    double base = runs.front().report.utilization;
    for (const auto& run : runs) {
      double normalized = base > 0 ? run.report.utilization / base : 0.0;
      // Policies without a paper series leave the cell blank.
      auto series = paper.find(run.policy);
      table.AddRow(
          {run.policy,
           util::Table::Num(run.report.utilization * 100.0, 1) + "%",
           util::Table::Ratio(normalized, 3),
           series != paper.end() ? util::Table::Ratio(series->second[wl - 1], 2)
                                 : "-"});
    }
    std::printf("Fig. 10: normalized utilization — Workload %d\n%s\n", wl,
                table.ToString().c_str());
  }
  std::printf("Reproduction target: MAX_UTIL gains the most utilization; "
              "other policies stay within a few percent of BASE_LINE.\n");
  return 0;
}
