/**
 * @file
 * Order statistics for benchmark timings.
 *
 * Every reported percentile, the median included, must have at least
 * kMinBeyond samples above it; a thinner tail is refused rather than
 * reported, because one stray sample would decide its value.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/** Samples a reported percentile needs beyond it. */
constexpr std::size_t kMinBeyond = 10;

/** Samples strictly beyond the nearest-rank @p q percentile of @p n. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return n - std::min(n, std::max<std::size_t>(rank, 1));
}

/** Smallest sample count for which the @p q percentile is reportable. */
inline std::size_t
samplesNeeded(double q)
{
    std::size_t n = kMinBeyond;
    while (samplesBeyond(n, q) < kMinBeyond)
        ++n;
    return n;
}

/**
 * Nearest-rank @p q percentile (0 < q < 1) of @p samples.
 * @throws std::invalid_argument when fewer than kMinBeyond samples lie
 *         beyond it.
 */
inline double
percentile(std::vector<double> samples, double q)
{
    const std::size_t n = samples.size();
    if (!(q > 0.0 && q < 1.0) || samplesBeyond(n, q) < kMinBeyond)
        throw std::invalid_argument(
            "percentile: p" + std::to_string(q * 100.0) + " of " +
            std::to_string(n) + " samples has fewer than " +
            std::to_string(kMinBeyond) + " samples beyond it");
    const std::size_t rank = n - samplesBeyond(n, q);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
