#include "driver/sweep.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/policy_factory.h"
#include "storage/burst_buffer.h"
#include "util/field_table.h"
#include "util/units.h"

namespace iosched::driver {

namespace {

/// "off" for a disabled tier, "2000GB"-style otherwise (matches the %g
/// rendering WithExpansionFactor uses for its EF suffix).
std::string BbLabel(double capacity_gb) {
  if (capacity_gb <= 0) return "off";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%gGB", capacity_gb);
  return buf;
}

}  // namespace

std::vector<core::ConfigIssue> SweepSpec::Validate() const {
  std::vector<core::ConfigIssue> issues;
  auto add = [&issues](const char* field, std::string message) {
    issues.push_back({field, std::move(message)});
  };
  if (scenario == nullptr) add("scenario", "must be set");
  if (policies.empty()) add("policies", "must name at least one policy");
  for (const std::string& policy : policies) {
    if (!core::KnownPolicyName(policy)) {
      add("policies", "unknown policy \"" + policy + "\" (known: " +
                          core::PolicyNamesHelp() + ")");
    }
  }
  for (double factor : expansion_factors) {
    if (factor <= 0) {
      add("expansion_factors", "factors must be positive");
      break;
    }
  }
  bool any_bb = false;
  for (double capacity : bb_capacities_gb) {
    if (capacity < 0) {
      add("bb_capacities_gb", "capacities must be >= 0 (0 = tier off)");
      break;
    }
    any_bb = any_bb || capacity > 0;
  }
  if (any_bb) {
    if (bb_drain_gbps <= 0) {
      add("bb_drain_gbps",
          "must be positive when any BB capacity is enabled");
    } else if (scenario != nullptr &&
               bb_drain_gbps >= scenario->config.storage.max_bandwidth_gbps) {
      add("bb_drain_gbps",
          "must stay below the scenario's storage BWmax");
    }
    // The per-field rules are BurstBufferConfig's rows; under the "bb_"
    // prefix a row's path is the name of this spec's copy of the field.
    const storage::BurstBufferConfig knobs{
        .absorb_gbps = bb_absorb_gbps,
        .per_job_quota_gb = bb_per_job_quota_gb,
        .congestion_watermark = bb_congestion_watermark};
    util::IssueVisitor rows;
    rows.Section("bb_");
    storage::VisitFields(knobs, rows);
    for (auto& [field, message] : rows.issues) {
      issues.push_back({std::move(field), std::move(message)});
    }
  }
  return issues;
}

const PolicyRun& SweepResult::At(std::size_t ef, std::size_t bb,
                                 std::size_t policy) const {
  if (ef >= ef_count() || bb >= bb_count() || policy >= policy_count()) {
    throw std::out_of_range("SweepResult::At: index out of range");
  }
  return runs.at((ef * bb_count() + bb) * policy_count() + policy);
}

SweepResult RunSweep(const SweepSpec& spec) {
  std::vector<core::ConfigIssue> issues = spec.Validate();
  if (!issues.empty()) {
    throw core::ConfigValidationError(std::move(issues));
  }
  const Scenario& base = *spec.scenario;
  const bool ef_axis = !spec.expansion_factors.empty();
  const bool bb_axis = !spec.bb_capacities_gb.empty();

  SweepResult result;
  result.policies = spec.policies;
  result.expansion_factors =
      ef_axis ? spec.expansion_factors : std::vector<double>{1.0};
  result.bb_capacities_gb =
      bb_axis ? spec.bb_capacities_gb
              : std::vector<double>{base.config.burst_buffer.capacity_gb};

  // Materialize the variant scenarios, row-major [ef][bb]. A collapsed
  // axis leaves the scenario untouched — names and configs then match what
  // the pre-SweepSpec entrypoints produced, which keeps resumable cell
  // directories (keyed by name + config hash) reusable across the API
  // change.
  std::vector<Scenario> variants;
  variants.reserve(result.ef_count() * result.bb_count());
  for (std::size_t f = 0; f < result.ef_count(); ++f) {
    Scenario scaled =
        ef_axis ? WithExpansionFactor(base, result.expansion_factors[f])
                : base;
    for (std::size_t b = 0; b < result.bb_count(); ++b) {
      Scenario variant = scaled;
      if (bb_axis) {
        double capacity = result.bb_capacities_gb[b];
        variant.config.burst_buffer = storage::BurstBufferConfig{};
        if (capacity > 0) {
          variant.config.burst_buffer.capacity_gb = capacity;
          variant.config.burst_buffer.drain_gbps = spec.bb_drain_gbps;
          variant.config.burst_buffer.absorb_gbps = spec.bb_absorb_gbps;
          variant.config.burst_buffer.per_job_quota_gb =
              spec.bb_per_job_quota_gb;
          variant.config.burst_buffer.congestion_watermark =
              spec.bb_congestion_watermark;
        }
        variant.name += "/BB=" + BbLabel(capacity);
      }
      variants.push_back(std::move(variant));
    }
  }

  const std::size_t policy_count = result.policy_count();
  result.runs.resize(variants.size() * policy_count);

  if (spec.resumable.has_value()) {
    // Crash-safe path: sequential by design (each cell is individually
    // checkpointed and watchdog-protected; see ResumableRunner).
    ResumableRunner runner(*spec.resumable);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      for (std::size_t p = 0; p < policy_count; ++p) {
        const Scenario& variant = variants[v];
        SweepCell cell;
        cell.name = variant.name + "/" + spec.policies[p];
        cell.config = variant.config;
        cell.config.policy = spec.policies[p];
        cell.jobs = &variant.jobs;
        auto t0 = std::chrono::steady_clock::now();
        CellOutcome outcome = runner.Run(cell);
        auto t1 = std::chrono::steady_clock::now();
        PolicyRun run;
        run.policy = outcome.policy_name;
        run.scenario = variant.name;
        run.report = outcome.report;
        run.events_processed = outcome.events_processed;
        run.io_cycles = outcome.io_cycles;
        run.wall_seconds =
            outcome.reused
                ? 0.0
                : std::chrono::duration<double>(t1 - t0).count();
        run.bb_capacity_gb = cell.config.burst_buffer.capacity_gb;
        run.bb_absorbed_gb = outcome.bb_absorbed_gb;
        run.bb_absorbed_requests = outcome.bb_absorbed_requests;
        run.bb_spilled_requests = outcome.bb_spilled_requests;
        run.bb_peak_queued_gb = outcome.bb_peak_queued_gb;
        run.bb_mean_occupancy = outcome.bb_mean_occupancy;
        result.runs[v * policy_count + p] = std::move(run);
      }
    }
    return result;
  }

  auto run_cell = [&](std::size_t cell) {
    result.runs[cell] = RunSingle(variants[cell / policy_count],
                                  spec.policies[cell % policy_count]);
  };
  if (spec.pool != nullptr && result.runs.size() > 1) {
    spec.pool->ParallelFor(result.runs.size(), run_cell);
  } else {
    for (std::size_t cell = 0; cell < result.runs.size(); ++cell) {
      run_cell(cell);
    }
  }
  return result;
}

util::Table BbCapacityTable(const SweepResult& result) {
  if (result.runs.empty()) {
    throw std::invalid_argument("BbCapacityTable: empty sweep result");
  }
  std::vector<std::string> headers = {"BB capacity"};
  for (const std::string& policy : result.policies) {
    headers.push_back(policy);
  }
  util::Table table(headers);
  for (std::size_t b = 0; b < result.bb_count(); ++b) {
    std::vector<std::string> row = {BbLabel(result.bb_capacities_gb[b])};
    for (std::size_t p = 0; p < result.policy_count(); ++p) {
      const PolicyRun& run = result.At(0, b, p);
      std::uint64_t attempted =
          run.bb_absorbed_requests + run.bb_spilled_requests;
      double share =
          attempted > 0 ? static_cast<double>(run.bb_absorbed_requests) /
                              static_cast<double>(attempted)
                        : 0.0;
      row.push_back(
          util::Table::Num(
              util::SecondsToMinutes(run.report.avg_wait_seconds), 1) +
          " (" + util::Table::Num(share * 100.0, 0) + "% abs)");
    }
    table.AddRow(row);
  }
  return table;
}

}  // namespace iosched::driver
