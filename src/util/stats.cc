#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace iosched::util {

RunningStats::RunningStats()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void RunningStats::Add(double x) {
  ++n_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  std::size_t total = n_ + other.n_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) /
                         static_cast<double>(total);
  mean_ = (mean_ * static_cast<double>(n_) +
           other.mean_ * static_cast<double>(other.n_)) /
          static_cast<double>(total);
  sum_ += other.sum_;
  n_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Clear() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Summary::Summary(std::span<const double> values)
    : Summary(std::vector<double>(values.begin(), values.end())) {}

Summary::Summary(std::vector<double>&& values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
  if (!sorted_.empty()) {
    double s = 0.0;
    for (double v : sorted_) s += v;
    mean_ = s / static_cast<double>(sorted_.size());
  }
}

double Summary::min() const {
  if (sorted_.empty()) throw std::logic_error("Summary::min on empty sample");
  return sorted_.front();
}

double Summary::max() const {
  if (sorted_.empty()) throw std::logic_error("Summary::max on empty sample");
  return sorted_.back();
}

double Summary::Quantile(double q) const {
  if (sorted_.empty()) throw std::logic_error("Summary::Quantile on empty");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("Quantile: q not in [0,1]");
  if (sorted_.size() == 1) return sorted_.front();
  double pos = q * static_cast<double>(sorted_.size() - 1);
  auto idx = static_cast<std::size_t>(pos);
  double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[idx] * (1.0 - frac) + sorted_[idx + 1] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(lo < hi) || bins == 0) {
    throw std::invalid_argument("Histogram: require lo < hi and bins > 0");
  }
}

void Histogram::Add(double x) {
  double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::ptrdiff_t>(
      t * static_cast<double>(counts_.size()));
  bin = std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::BinLow(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::BinHigh(std::size_t bin) const { return BinLow(bin + 1); }

std::string Histogram::ToAscii(std::size_t width) const {
  std::size_t peak = 0;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::size_t bar =
        peak == 0 ? 0 : counts_[i] * width / peak;
    os << "[" << BinLow(i) << ", " << BinHigh(i) << ") "
       << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace iosched::util
