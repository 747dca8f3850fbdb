#include "workload/request_spec.h"

#include <algorithm>
#include <cmath>

namespace muxwise::workload {

namespace {

template <typename Getter>
LengthStats ComputeStats(const std::vector<RequestSpec>& requests,
                         Getter getter) {
  LengthStats stats;
  if (requests.empty()) return stats;
  stats.min = getter(requests.front());
  double sum = 0.0;
  for (const RequestSpec& r : requests) {
    const std::int64_t v = getter(r);
    stats.min = std::min(stats.min, v);
    stats.max = std::max(stats.max, v);
    sum += static_cast<double>(v);
  }
  stats.mean = sum / static_cast<double>(requests.size());
  return stats;
}

}  // namespace

LengthStats Trace::InputStats() const {
  return ComputeStats(requests,
                      [](const RequestSpec& r) { return r.input_tokens; });
}

LengthStats Trace::OutputStats() const {
  return ComputeStats(requests,
                      [](const RequestSpec& r) { return r.output_tokens; });
}

LengthStats Trace::ReusedStats() const {
  return ComputeStats(requests,
                      [](const RequestSpec& r) { return r.reused_tokens; });
}

double Trace::MeanRate() const {
  const double span = SpanSeconds();
  if (span <= 0.0 || requests.empty()) return 0.0;
  return static_cast<double>(requests.size()) / span;
}

double Trace::SpanSeconds() const {
  if (requests.empty()) return 0.0;
  double lo = requests.front().arrival_seconds;
  double hi = lo;
  for (const RequestSpec& r : requests) {
    lo = std::min(lo, r.arrival_seconds);
    hi = std::max(hi, r.arrival_seconds);
  }
  return hi - lo;
}

double Trace::LatestArrivalSeconds() const {
  if (requests.empty()) return 0.0;
  double hi = requests.front().arrival_seconds;
  for (const RequestSpec& r : requests) hi = std::max(hi, r.arrival_seconds);
  return hi;
}

std::vector<double> Trace::RateCurve(double bucket_seconds) const {
  std::vector<double> curve;
  if (requests.empty() || bucket_seconds <= 0.0) return curve;
  const double span = SpanSeconds();
  const std::size_t buckets =
      static_cast<std::size_t>(std::ceil(span / bucket_seconds)) + 1;
  curve.assign(buckets, 0.0);
  for (const RequestSpec& r : requests) {
    const std::size_t b =
        static_cast<std::size_t>(r.arrival_seconds / bucket_seconds);
    if (b < curve.size()) curve[b] += 1.0 / bucket_seconds;
  }
  return curve;
}

}  // namespace muxwise::workload
