#ifndef ALID_COMMON_HISTOGRAM_H_
#define ALID_COMMON_HISTOGRAM_H_

#include <span>
#include <vector>

namespace alid {

/// Histogram of `values` over `bins` equal-width buckets spanning
/// [0, max value] — the per-run task-load profile behind
/// PalidStats::TaskHistogram. Live latencies use registry histograms
/// (obs/metrics.h) instead.
std::vector<int> EqualWidthHistogram(std::span<const double> values,
                                     int bins);

}  // namespace alid

#endif  // ALID_COMMON_HISTOGRAM_H_
