// HDR-style log-bucketed latency histogram.
//
// Service-mode runs (hw/service.h) record one enqueue→complete latency
// per completed operation; at M = 64N logical processes that is far too
// many samples to keep raw, and a sorted-vector percentile (the
// UcThroughput approach) would dominate the run's own memory traffic.
// This histogram is the classic HDR shape instead: power-of-two major
// buckets ("octaves") split into 2^kSubBits linear sub-buckets, giving a
// bounded relative error of 2^-kSubBits (~3% at the default 5 bits) over
// the full 64-bit range with O(1) record and a fixed ~15 KB footprint.
//
// Not thread-safe: record into one instance per process (a logical
// process's ops are serialized even under oversubscription) and merge()
// after the run.
#ifndef LLSC_HW_LATENCY_HISTOGRAM_H_
#define LLSC_HW_LATENCY_HISTOGRAM_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace llsc {

class LatencyHistogram {
 public:
  // Sub-bucket resolution: each octave [2^k, 2^{k+1}) splits into
  // 2^kSubBits equal linear buckets; values below 2^kSubBits are exact.
  static constexpr int kSubBits = 5;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(64 - kSubBits + 1) * kSubBuckets;

  LatencyHistogram() : buckets_(kNumBuckets, 0) {}

  void record(std::uint64_t value_ns) {
    ++buckets_[index_of(value_ns)];
    ++count_;
    if (value_ns > max_) max_ = value_ns;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    if (other.max_ > max_) max_ = other.max_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return max_; }
  bool empty() const { return count_ == 0; }

  // Value at the q-th quantile (q in [0, 1]), reported as the upper edge
  // of the bucket holding the rank-⌈q·count⌉ sample — an overestimate by
  // at most the bucket width (2^-kSubBits relative). 0 when empty.
  std::uint64_t quantile_ns(double q) const {
    if (count_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    if (rank == 0) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return upper_edge(i);
    }
    return max_;  // unreachable with count_ > 0
  }

  std::uint64_t p50_ns() const { return quantile_ns(0.50); }
  std::uint64_t p90_ns() const { return quantile_ns(0.90); }
  std::uint64_t p99_ns() const { return quantile_ns(0.99); }
  std::uint64_t p999_ns() const { return quantile_ns(0.999); }

  static std::size_t index_of(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    const std::uint64_t sub = (v >> shift) & (kSubBuckets - 1);
    return static_cast<std::size_t>(shift + 1) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }

  // Largest value mapping to bucket i (the inverse of index_of, upper
  // edge inclusive).
  static std::uint64_t upper_edge(std::size_t i) {
    if (i < kSubBuckets) return static_cast<std::uint64_t>(i);
    const std::uint64_t shift = i / kSubBuckets - 1;
    const std::uint64_t sub = i % kSubBuckets;
    return ((kSubBuckets + sub + 1) << shift) - 1;
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace llsc

#endif  // LLSC_HW_LATENCY_HISTOGRAM_H_
