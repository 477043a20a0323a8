// Order statistics for the benchmark's reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

namespace tcplp::bm {

/// Quantile q in [0,1], linearly interpolated between order statistics.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * double(v.size() - 1);
    const auto lo = std::size_t(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Quantile of samples quantized to whole units (TCP's millisecond
/// timestamp clock): each value stands for the bin [x - 0.5, x + 0.5), and
/// the quantile interpolates within its bin, so ties do not pin it to an
/// integer.
inline double binnedQuantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double target = q * double(v.size());
    const double x = v[std::min(std::size_t(target), v.size() - 1)];
    const auto below = double(std::lower_bound(v.begin(), v.end(), x) - v.begin());
    const auto inBin = double(std::upper_bound(v.begin(), v.end(), x) - v.begin()) - below;
    return std::max(0.0, x - 0.5 + (target - below) / inBin);
}

inline double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

/// Mean of the largest `share` of the samples (at least one): a tail
/// statistic that, unlike a high percentile, does not jump between the
/// lumps that poll intervals and retransmission backoff leave in latency
/// distributions.
inline double tailMean(std::vector<double> v, double share) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto n = std::max<std::size_t>(1, std::size_t(double(v.size()) * share));
    return std::accumulate(v.end() - std::ptrdiff_t(n), v.end(), 0.0) / double(n);
}

/// Jain's fairness index.
inline double jain(const std::vector<double>& xs) {
    double sum = 0.0, sumSq = 0.0;
    for (double x : xs) {
        sum += x;
        sumSq += x * x;
    }
    return sumSq > 0.0 ? sum * sum / (double(xs.size()) * sumSq) : 0.0;
}

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace tcplp::bm
