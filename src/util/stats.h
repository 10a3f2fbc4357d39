// Streaming and batch statistics used by the metrics subsystem and the
// benchmark harness.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace iosched::util {

/// Numerically stable streaming mean/variance (Welford) with min/max.
class RunningStats {
 public:
  /// Incorporate one observation.
  void Add(double x);
  /// Merge another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);
  /// Reset to the empty state.
  void Clear();

  std::size_t count() const { return n_; }
  /// Mean of observations; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;
  /// Sample standard deviation.
  double stddev() const;
  /// Smallest observation; +inf when empty.
  double min() const { return min_; }
  /// Largest observation; -inf when empty.
  double max() const { return max_; }
  /// Sum of observations.
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_;
  double max_;

 public:
  RunningStats();
};

/// Batch summary: quantiles over a sorted copy of the sample (nearest-rank
/// with linear interpolation, the "type 7" estimator used by R/numpy).
class Summary {
 public:
  explicit Summary(std::span<const double> values);
  /// Takes the sample and sorts it in place (no copy); the statistics are
  /// bit-identical to the span constructor's.
  explicit Summary(std::vector<double>&& values);

  std::size_t count() const { return sorted_.size(); }
  double mean() const { return mean_; }
  double min() const;
  double max() const;
  /// Quantile for q in [0,1]; interpolated. Throws when empty.
  double Quantile(double q) const;
  double median() const { return Quantile(0.5); }
  double p90() const { return Quantile(0.90); }
  double p99() const { return Quantile(0.99); }

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
};

/// Fixed-bin histogram on [lo, hi); samples outside the range are clamped
/// into the first/last bin so mass is never silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void Add(double x);
  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const { return total_; }
  /// Inclusive lower edge of `bin`.
  double BinLow(std::size_t bin) const;
  /// Exclusive upper edge of `bin`.
  double BinHigh(std::size_t bin) const;
  /// Render a compact ASCII sketch (for logs and examples).
  std::string ToAscii(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace iosched::util
