// Order statistics for the benchmark's timings.
//
// A tail percentile is reported only when at least kMinTailSamples samples
// lie beyond it: with fewer, the value is set by a handful of outliers and
// does not repeat from run to run.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

// The q-quantile (q in [0, 1]) of `samples` by linear interpolation
// between the two nearest order statistics. Throws std::invalid_argument
// (EUCON_REQUIRE) on an empty sample set or q outside [0, 1].
double percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

// The q-quantile when at least kMinTailSamples samples are strictly
// greater than it; std::nullopt (the percentile is refused) otherwise.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

}  // namespace perfbench
