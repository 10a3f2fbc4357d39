#include "workload/synthetic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace iosched::workload {

namespace {
constexpr double kTwoPi = 6.28318530717958647692;

/// Arrival-rate envelope at time t (seconds): diurnal sine around 1.0.
double DiurnalFactor(double t, double depth) {
  return 1.0 + depth * std::sin(kTwoPi * t / util::kSecondsPerDay);
}
}  // namespace

Workload GenerateWorkload(const SyntheticConfig& config, std::uint64_t seed) {
  if (config.size_menu.size() != config.size_weights.size() ||
      config.size_menu.empty()) {
    throw std::invalid_argument("GenerateWorkload: bad size menu");
  }
  if (config.io_bands.empty()) {
    throw std::invalid_argument("GenerateWorkload: no I/O bands");
  }
  if (config.duration_days <= 0 || config.jobs_per_day <= 0) {
    throw std::invalid_argument("GenerateWorkload: non-positive duration/rate");
  }
  if (config.diurnal_depth < 0 || config.diurnal_depth >= 1) {
    throw std::invalid_argument("GenerateWorkload: diurnal depth not in [0,1)");
  }
  if (config.io_efficiency_lo <= 0 || config.io_efficiency_hi > 1.0 ||
      config.io_efficiency_lo > config.io_efficiency_hi) {
    throw std::invalid_argument("GenerateWorkload: bad I/O efficiency range");
  }

  util::Rng rng(seed, /*stream=*/7);

  // Assign each synthetic project an I/O-intensity band so that projects have
  // consistent I/O behaviour (the premise of the paper's future-work
  // proposal to predict a job's I/O from its history).
  std::vector<double> band_weights;
  band_weights.reserve(config.io_bands.size());
  for (const IoIntensityBand& band : config.io_bands) {
    if (band.weight < 0 || band.fraction_lo < 0 ||
        band.fraction_hi > 0.98 || band.fraction_lo > band.fraction_hi) {
      throw std::invalid_argument("GenerateWorkload: bad I/O band");
    }
    band_weights.push_back(band.weight);
  }
  std::vector<std::size_t> project_band(
      static_cast<std::size_t>(std::max(1, config.project_count)));
  for (auto& band : project_band) band = rng.WeightedIndex(band_weights);

  // Non-homogeneous Poisson arrivals by thinning against the peak rate.
  double horizon = config.duration_days * util::kSecondsPerDay;
  double base_rate = config.jobs_per_day / util::kSecondsPerDay;  // per sec
  double peak_rate = base_rate * (1.0 + config.diurnal_depth);

  Workload out;
  out.reserve(static_cast<std::size_t>(
      config.jobs_per_day * config.duration_days * 1.1));
  JobId next_id = config.first_job_id;
  double t = 0.0;
  for (;;) {
    // An exponential draw can land exactly on 0 (u = 0 in -log(1-u)/rate),
    // which would emit two jobs at the same instant or, worse, stall the
    // arrival clock. Clamp to a strictly positive gap; real draws at any
    // sane rate are orders of magnitude above the floor, so existing seeds
    // generate identical workloads.
    t += std::max(rng.Exponential(peak_rate), kMinInterArrivalSeconds);
    if (t >= horizon) break;
    double accept = base_rate * DiurnalFactor(t, config.diurnal_depth) /
                    peak_rate;
    if (!rng.Bernoulli(accept)) continue;

    Job job;
    job.id = next_id++;
    job.submit_time = t;
    job.nodes = config.size_menu[rng.WeightedIndex(config.size_weights)];

    double runtime = rng.LogNormal(config.runtime_log_mean,
                                   config.runtime_log_sigma);
    runtime = std::clamp(runtime, config.min_runtime_seconds,
                         config.max_runtime_seconds);
    double walltime = runtime * rng.Uniform(config.walltime_factor_lo,
                                            config.walltime_factor_hi);
    job.requested_walltime =
        std::min(walltime, config.max_runtime_seconds * 1.5);

    job.user_id = static_cast<std::int32_t>(
        rng.UniformInt(0, std::max(1, config.user_count) - 1));
    job.project_id = static_cast<std::int32_t>(
        rng.UniformInt(0, std::max(1, config.project_count) - 1));

    const IoIntensityBand& band =
        config.io_bands[project_band[static_cast<std::size_t>(job.project_id)]];
    job.io_efficiency =
        rng.Uniform(config.io_efficiency_lo, config.io_efficiency_hi);
    double full_rate = job.FullIoRate(config.node_bandwidth_gbps);

    double io_fraction = rng.Uniform(band.fraction_lo, band.fraction_hi);
    double io_seconds = io_fraction * runtime;
    if (config.max_io_volume_gb > 0) {
      io_seconds = std::min(io_seconds, config.max_io_volume_gb / full_rate);
    }
    double compute_seconds = runtime - io_seconds;

    int phases = 1;
    if (config.checkpoint_period_seconds > 0) {
      phases = static_cast<int>(
          std::lround(compute_seconds / config.checkpoint_period_seconds));
      phases = std::clamp(phases, 1, config.max_io_phases);
    }
    double volume = io_seconds * full_rate;  // GB
    job.phases = MakeUniformPhases(compute_seconds, volume, phases);
    if (config.restart_read_probability > 0 && volume > 0 &&
        rng.Bernoulli(config.restart_read_probability)) {
      // Resume from a predecessor's checkpoint: one checkpoint-sized read
      // before the first compute phase (alternation may start with I/O).
      double chunk = volume / static_cast<double>(phases);
      job.phases.insert(job.phases.begin(), Phase::Io(chunk));
    }
    out.push_back(std::move(job));
  }
  return out;
}

SyntheticConfig EvaluationMonthConfig(int index) {
  SyntheticConfig cfg;
  switch (index) {
    case 1:
      // Month 1: busiest month, I/O-heavy mix -> longest baseline queues.
      // Average storage demand ~50% of BWmax; bursts regularly congest.
      cfg.jobs_per_day = 150.0;
      cfg.checkpoint_period_seconds = 450.0;
      cfg.max_io_phases = 100;
      cfg.max_io_volume_gb = 0.0;  // rely on the efficiency model instead
      cfg.io_efficiency_lo = 0.15;
      cfg.io_efficiency_hi = 0.75;
      cfg.io_bands = {{0.45, 0.03, 0.12},
                      {0.33, 0.12, 0.30},
                      {0.22, 0.30, 0.55}};
      break;
    case 2:
      // Month 2: moderate load, medium-dominated I/O (~37% of BWmax).
      cfg.jobs_per_day = 148.0;
      cfg.checkpoint_period_seconds = 450.0;
      cfg.max_io_phases = 100;
      cfg.max_io_volume_gb = 0.0;  // rely on the efficiency model instead
      cfg.io_efficiency_lo = 0.15;
      cfg.io_efficiency_hi = 0.75;
      cfg.io_bands = {{0.50, 0.02, 0.10},
                      {0.36, 0.10, 0.25},
                      {0.14, 0.25, 0.45}};
      break;
    case 3:
      // Month 3: slightly lighter load, more capability (large) jobs.
      cfg.jobs_per_day = 118.0;
      cfg.size_weights = {0.28, 0.22, 0.16, 0.13, 0.12, 0.06, 0.03};
      cfg.checkpoint_period_seconds = 450.0;
      cfg.max_io_phases = 100;
      cfg.max_io_volume_gb = 0.0;  // rely on the efficiency model instead
      cfg.io_efficiency_lo = 0.15;
      cfg.io_efficiency_hi = 0.75;
      cfg.io_bands = {{0.52, 0.02, 0.09},
                      {0.32, 0.09, 0.22},
                      {0.16, 0.22, 0.42}};
      break;
    default:
      throw std::invalid_argument("EvaluationMonthConfig: index must be 1..3");
  }
  return cfg;
}

}  // namespace iosched::workload
