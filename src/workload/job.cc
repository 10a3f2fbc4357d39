#include "workload/job.h"

#include <stdexcept>

namespace iosched::workload {

double Job::TotalComputeSeconds() const {
  double total = 0.0;
  for (const Phase& p : phases) total += p.compute_seconds();
  return total;
}

double Job::TotalIoVolumeGb() const {
  double total = 0.0;
  for (const Phase& p : phases) total += p.io_volume_gb();
  return total;
}

int Job::IoPhaseCount() const {
  int count = 0;
  for (const Phase& p : phases) {
    if (p.kind == PhaseKind::kIo) ++count;
  }
  return count;
}

double Job::UncongestedIoSeconds(double node_bandwidth_gbps) const {
  double rate = FullIoRate(node_bandwidth_gbps);
  if (rate <= 0) return 0.0;
  return TotalIoVolumeGb() / rate;
}

double Job::UncongestedRuntime(double node_bandwidth_gbps) const {
  return TotalComputeSeconds() + UncongestedIoSeconds(node_bandwidth_gbps);
}

double Job::IoFraction(double node_bandwidth_gbps) const {
  double runtime = UncongestedRuntime(node_bandwidth_gbps);
  if (runtime <= 0) return 0.0;
  return UncongestedIoSeconds(node_bandwidth_gbps) / runtime;
}

void Job::ScaleIoVolume(double factor) {
  if (factor < 0) throw std::invalid_argument("ScaleIoVolume: negative factor");
  for (Phase& p : phases) {
    if (p.kind == PhaseKind::kIo) p.amount *= factor;
  }
}

std::string Job::Validate() const {
  if (nodes <= 0) return "non-positive node count";
  if (io_efficiency <= 0 || io_efficiency > 1.0) {
    return "io_efficiency outside (0, 1]";
  }
  if (submit_time < 0) return "negative submit time";
  if (requested_walltime <= 0) return "non-positive requested walltime";
  if (phases.empty()) return "no phases";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    if (p.amount < 0) {
      return p.kind == PhaseKind::kCompute ? "negative compute duration"
                                           : "negative I/O volume";
    }
    if (i > 0 && phases[i - 1].kind == p.kind) {
      return "phases do not alternate";
    }
  }
  return "";
}

std::vector<Phase> MakeUniformPhases(double total_compute_seconds,
                                     double total_io_volume_gb,
                                     int io_phases) {
  if (total_compute_seconds < 0 || total_io_volume_gb < 0) {
    throw std::invalid_argument("MakeUniformPhases: negative totals");
  }
  std::vector<Phase> phases;
  if (io_phases <= 0 || total_io_volume_gb <= 0) {
    phases.push_back(Phase::Compute(total_compute_seconds));
    return phases;
  }
  double compute_chunk =
      total_compute_seconds / static_cast<double>(io_phases);
  double io_chunk = total_io_volume_gb / static_cast<double>(io_phases);
  phases.reserve(static_cast<std::size_t>(io_phases) * 2);
  for (int i = 0; i < io_phases; ++i) {
    phases.push_back(Phase::Compute(compute_chunk));
    phases.push_back(Phase::Io(io_chunk));
  }
  return phases;
}

}  // namespace iosched::workload
