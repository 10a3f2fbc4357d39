// Seeded chaos soak: randomized fault schedules against every policy with
// the invariant checker on.
//
// Each schedule index deterministically derives a FaultPlanConfig (storage
// degradations, midplane outages, job kills, burst-buffer capacity faults,
// drain degradations, transfer stragglers) from the base seed, then runs a
// reduced-scale scenario under every policy with from-scratch invariant
// checking enabled and transfer timeouts armed. A cell fails on any
// invariant violation, engine error, watchdog abort (stuck run), or — when
// reproducibility verification is on — a same-seed re-run whose per-job
// record digest differs, or a resume from one of the run's own checkpoints
// (picked by the seed) whose record digest or bandwidth summary differs, or
// whose first checkpoint is not byte-identical to the run's next one. The
// soak is the robustness gate: tools/chaos_soak.sh and the CI chaos job
// both funnel through RunChaos.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iosched::driver {

struct ChaosOptions {
  /// Schedule s uses seed base_seed + s for the plan, the workload, and the
  /// jitter streams, so one failing cell is reproducible from its row alone.
  std::uint64_t base_seed = 1;
  int schedules = 50;
  /// Reduced-scale scenario knobs (Small machine; see MakeTestScenario).
  double duration_days = 0.25;
  double jobs_per_day = 240.0;
  /// Policies to exercise; empty = every registered policy.
  std::vector<std::string> policies;
  /// Re-run each cell with the same seed and require a bit-identical
  /// record digest. Also save checkpoints in the first run and resume from
  /// one of them, requiring the same digest and bandwidth summary, and a
  /// first re-saved checkpoint byte-identical to the run's next one.
  bool verify_reproducible = true;
  /// Invariant sweep cadence (processed events).
  std::uint64_t invariant_check_every_events = 64;
  /// Abort a cell after this many wall seconds without event progress
  /// (0 disables the per-cell watchdog).
  double watchdog_seconds = 60.0;
};

/// One (schedule, policy) cell of the soak.
struct ChaosCell {
  int schedule = 0;
  std::uint64_t seed = 0;
  std::string policy;
  /// metrics::DigestRecords over the run's records (0 when the run failed).
  std::uint64_t digest = 0;
  std::size_t jobs = 0;
  std::uint64_t events = 0;
  std::uint64_t invariant_checks = 0;
  std::uint64_t fault_kills = 0;
  std::uint64_t transfer_timeouts = 0;
  std::uint64_t transfer_retries = 0;
  std::uint64_t straggler_spills = 0;
  std::uint64_t bb_reflushed_requests = 0;
  /// Checkpoint-flush activity (0 on the cells without checkpoint traffic).
  std::uint64_t flushes = 0;
  std::uint64_t flush_deferrals = 0;
  std::uint64_t forced_flush_releases = 0;
  /// False when the same-seed re-run produced a different digest.
  bool reproducible = true;
  /// Sequence number of the checkpoint the resume check restored (0 = no
  /// resume check ran).
  std::uint64_t resume_checkpoint = 0;
  /// Empty = cell passed; otherwise the violation/abort/error description.
  std::string error;

  bool ok() const { return error.empty() && reproducible; }
};

struct ChaosSummary {
  std::vector<ChaosCell> cells;
  /// Cells that failed (invariant violation, stuck run, engine error, or
  /// non-reproducible digest).
  int failures = 0;

  bool ok() const { return failures == 0; }
};

/// Run the soak. Deterministic for a fixed ChaosOptions. Never throws on a
/// cell failure — failures are reported in the summary; configuration
/// errors (unknown policy, bad options) do throw.
ChaosSummary RunChaos(const ChaosOptions& options);

/// CSV rendering (header + one row per cell) for artifacts and triage.
std::string ChaosCsv(const ChaosSummary& summary);

}  // namespace iosched::driver
