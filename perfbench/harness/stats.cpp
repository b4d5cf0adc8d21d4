#include "harness/stats.h"

#include <algorithm>

#include "common/check.h"

namespace perfbench {

namespace {

double sorted_percentile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void check_args(const std::vector<double>& samples, double q) {
  EUCON_REQUIRE(!samples.empty(), "percentile of an empty sample set");
  EUCON_REQUIRE(q >= 0.0 && q <= 1.0, "percentile rank outside [0, 1]");
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  check_args(samples, q);
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, q);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  check_args(samples, q);
  std::sort(samples.begin(), samples.end());
  const double value = sorted_percentile(samples, q);
  const auto beyond = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), value));
  if (beyond < kMinTailSamples) return std::nullopt;
  return value;
}

}  // namespace perfbench
