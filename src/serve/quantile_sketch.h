#ifndef MUXWISE_SERVE_QUANTILE_SKETCH_H_
#define MUXWISE_SERVE_QUANTILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace muxwise::serve {

/** Percentile over already ascending-sorted samples (no copy). */
double PercentileSorted(const std::vector<double>& sorted, double p);

/** Summary statistics of one latency population, milliseconds. */
struct LatencySummary {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t count = 0;
};

/**
 * Deterministic, mergeable quantile sketch with two tiers.
 *
 * Up to `exact_capacity` samples live in an exact buffer: quantiles are
 * the R-7 PercentileSorted values, bit-identical to the historical
 * sort-a-copy path, and the running `Sum()` reproduces the left-fold
 * `std::accumulate` over insertion order exactly. Past the capacity the
 * buffer collapses into a fixed-layout log-linear histogram (HDR-style:
 * one binade per double exponent, split into 2^kSubBucketBits linear
 * sub-buckets by the top mantissa bits). Bucketing is pure integer bit
 * manipulation on the IEEE-754 representation — no logs, no FP rounding
 * — so the histogram state is a platform-stable pure function of the
 * inserted multiset: identical at any insertion order or merge order.
 * Memory is O(exact_capacity + kNumBuckets) regardless of how many
 * samples are added; the histogram is allocated lazily, so small
 * populations never pay for it.
 *
 * Histogram-tier quantiles carry a bounded relative value error: a
 * bucket spans a 1/32 slice of its binade, so the mid-bucket estimate
 * is within ~1.6% of any sample in the bucket (rank placement itself is
 * exact). Estimates are clamped to the exactly-tracked [Min, Max].
 *
 * `StateDigest()` hashes the canonical state (sorted value bits on the
 * exact tier; occupied bucket runs plus min/max past it), so equal
 * multisets produce equal digests no matter how they were assembled —
 * the property that lets sketch state key into the run digests.
 */
class QuantileSketch {
 public:
  static constexpr std::size_t kDefaultExactCapacity = 32768;

  /** Sub-buckets per power-of-two binade (as a bit count). */
  static constexpr int kSubBucketBits = 5;

  QuantileSketch() = default;
  explicit QuantileSketch(std::size_t exact_capacity)
      : exact_capacity_(exact_capacity) {}

  /** Inserts one sample. Negative samples are clamped to 0 (latencies
   * are non-negative; the pre-clamp minimum stays visible via Min()). */
  void Add(double value);

  /** Folds `other` in. Equal combined multisets yield equal states. */
  void Merge(const QuantileSketch& other);

  std::size_t Count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /** Left-fold running sum in insertion order (merge adds sums). */
  double Sum() const { return sum_; }
  double Mean() const;

  /** Smallest / largest inserted sample (0 when empty); exact on both
   * tiers. */
  double Min() const;
  double Max() const;

  /**
   * Quantile for p in [0, 1] (0 when empty). Exact tier: the R-7
   * linear-interpolation value of PercentileSorted. Histogram tier:
   * the same rank arithmetic over bucket midpoints.
   */
  double Quantile(double p) const;

  /**
   * Samples <= threshold. Exact tier: an integer count, identical to
   * std::count_if. Histogram tier: full buckets below the threshold
   * plus a linear fraction of the bucket containing it.
   */
  double CountLessEqual(double threshold) const;

  /** mean / p50 / p99 / count in one call (one sort, not two). */
  LatencySummary Summarize() const;

  /**
   * Order-invariant digest of the sketch state: equal multisets give
   * equal digests at any insertion order or merge order.
   */
  std::uint64_t StateDigest() const;

  /** True once the exact tier spilled into the histogram. */
  bool overflowed() const { return overflowed_; }

  /** Heap + object footprint witness for bounded-memory assertions. */
  std::size_t MemoryBytes() const;

 private:
  void EnsureSorted() const;
  void CollapseToHistogram();
  void AddToHistogram(double value);

  std::size_t exact_capacity_ = kDefaultExactCapacity;

  // Exact tier. Mutable so const queries can sort in place instead of
  // copying per call; queries are not thread-safe against each other
  // (collection and reporting are single-threaded phases).
  mutable std::vector<double> exact_;
  mutable bool sorted_ = true;

  // Histogram tier: empty until the first overflow, then kNumBuckets
  // counters (bucket 0 holds zero/underflow, the last holds overflow).
  std::vector<std::uint64_t> buckets_;

  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool overflowed_ = false;
};

}  // namespace muxwise::serve

#endif  // MUXWISE_SERVE_QUANTILE_SKETCH_H_
