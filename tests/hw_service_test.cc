// Service-mode load generator (hw/service.h) and the HDR-style latency
// histogram it reports into. The accounting contract: a clean open-loop
// run serves every offered op, the merged histogram holds exactly one
// sample per served op, and quantiles are monotone in q.
#include "hw/service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hw/fault.h"
#include "hw/latency_histogram.h"

namespace llsc {
namespace {

TEST(LatencyHistogramTest, QuantilesBoundSamplesWithinBucketError) {
  LatencyHistogram h;
  // 1..1000 ns, uniform: p50 ~ 500, p99 ~ 990. Bucket edges are upper
  // bounds with 1/32 sub-bucket resolution, so a quantile never
  // under-reports its sample and overshoots by < ~6%.
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_GE(h.p50_ns(), 500u);
  EXPECT_LE(h.p50_ns(), 532u);
  EXPECT_GE(h.p99_ns(), 990u);
  EXPECT_LE(h.p99_ns(), 1056u);
  EXPECT_GE(h.max(), 1000u);
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneInQ) {
  LatencyHistogram h;
  std::uint64_t v = 1;
  for (int k = 0; k < 4000; ++k) {
    h.record(v);
    v = v * 1664525 + 1013904223;  // spread samples across octaves
    v %= 10'000'000;
  }
  EXPECT_LE(h.p50_ns(), h.p90_ns());
  EXPECT_LE(h.p90_ns(), h.p99_ns());
  EXPECT_LE(h.p99_ns(), h.p999_ns());
  EXPECT_LE(h.p999_ns(), h.max() * 2);  // p999 edge can round up once
}

TEST(LatencyHistogramTest, QuantileTakesTheCeilingRank) {
  // Values below 32 sit in exact buckets, so the quantile is the sample of
  // rank ⌈q·count⌉ itself.
  LatencyHistogram three;
  for (std::uint64_t v = 1; v <= 3; ++v) three.record(v);
  EXPECT_EQ(three.p50_ns(), 2u);
  LatencyHistogram ten;
  for (std::uint64_t v = 1; v <= 10; ++v) ten.record(v);
  EXPECT_EQ(ten.p99_ns(), 10u);
  EXPECT_EQ(ten.p50_ns(), 5u);
}

TEST(LatencyHistogramTest, MergeIsCountExact) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (std::uint64_t v = 1; v <= 100; ++v) a.record(v);
  for (std::uint64_t v = 1000; v <= 1100; ++v) b.record(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 201u);
  EXPECT_GE(a.max(), 1100u);
  LatencyHistogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 201u);
}

TEST(LatencyHistogramTest, ExtremeValuesLandInTopAndBottomBuckets) {
  LatencyHistogram h;
  h.record(0);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.quantile_ns(1.0), 1ull << 58);
}

// Latency is recorded per carrier and merged at join, so recording one
// sample set into shards and merging them must read exactly like one
// histogram that saw every sample, whichever shard each sample landed in.
TEST(LatencyHistogramTest, ShardMergeMatchesOneHistogram) {
  LatencyHistogram whole;
  std::vector<LatencyHistogram> shards(4);
  std::uint64_t v = 7;
  for (int k = 0; k < 5000; ++k) {
    v = v * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t sample = (v >> 20) % 50'000'000;  // up to 50 ms
    whole.record(sample);
    shards[static_cast<std::size_t>(k % 4)].record(sample);
  }
  LatencyHistogram merged;
  for (const LatencyHistogram& s : shards) merged.merge(s);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.max(), whole.max());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.quantile_ns(q), whole.quantile_ns(q)) << "q = " << q;
  }
}

class HwServiceTest : public ::testing::TestWithParam<ServiceWorkload> {};

std::string workload_name(
    const ::testing::TestParamInfo<ServiceWorkload>& info) {
  switch (info.param) {
    case ServiceWorkload::kFetchInc:
      return "FetchInc";
    case ServiceWorkload::kWakeup:
      return "Wakeup";
    case ServiceWorkload::kCombining:
      return "Combining";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Workloads, HwServiceTest,
                         ::testing::Values(ServiceWorkload::kFetchInc,
                                           ServiceWorkload::kWakeup,
                                           ServiceWorkload::kCombining),
                         workload_name);

TEST_P(HwServiceTest, CleanRunServesEveryOfferedOp) {
  ServiceOptions options;
  options.procs = 16;
  options.threads = 2;
  options.ops_per_proc = 4;
  options.arrival_rate_hz = 200'000.0;  // fast: the test is accounting
  options.workload = GetParam();
  options.seed = 5;
  const ServiceResult r = run_service(options);
  ASSERT_TRUE(r.run.ok);
  EXPECT_EQ(r.offered_ops, 64u);
  EXPECT_EQ(r.served_ops, r.offered_ops);
  EXPECT_EQ(r.run.latency.count(), r.served_ops);
  EXPECT_GT(r.throughput_ops_per_sec, 0.0);
  EXPECT_LE(r.run.latency.p50_ns(), r.run.latency.p99_ns());
  EXPECT_LE(r.run.latency.p99_ns(), r.run.latency.p999_ns());
  // The pool really was oversubscribed and scheduling.
  EXPECT_EQ(r.run.sched.num_threads, 2);
  EXPECT_EQ(r.run.sched.num_procs, 16);
  EXPECT_GT(r.run.sched.yields, 0u);
}

// Amnesiac crash+recover: each victim loses its coroutine frame after its
// 4th shared op and rejoins once. The restart journal makes the new
// incarnation resume at the first unserved arrival, so the run comes back
// clean with every client reporting exactly its offered ops — no request
// lost, none served twice.
TEST(HwServiceTest, AmnesiacRestartResumesAtFirstUnservedArrival) {
  constexpr int kProcs = 16;
  constexpr int kOpsPerProc = 8;
  constexpr int kVictims = 4;
  FaultPlan plan;
  plan.seed = 3;
  plan.stall_unit_ns = 1'000;  // keep the rejoin delay short
  for (ProcId p = 0; p < kVictims; ++p) {
    CrashSpec crash;
    crash.proc = p;
    crash.after_ops = 4;
    crash.recovery.delay_units = 3;
    crash.recovery.max_restarts = 1;
    crash.recovery.amnesia = true;
    plan.crashes.push_back(crash);
  }
  for (const ServiceWorkload workload :
       {ServiceWorkload::kFetchInc, ServiceWorkload::kCombining}) {
    SCOPED_TRACE(to_string(workload));
    ServiceOptions options;
    options.procs = kProcs;
    options.threads = 2;
    options.ops_per_proc = kOpsPerProc;
    options.arrival_rate_hz = 200'000.0;
    options.workload = workload;
    options.seed = 3;
    options.fault = &plan;
    const ServiceResult r = run_service(options);
    ASSERT_TRUE(r.run.ok);
    EXPECT_EQ(r.offered_ops, std::uint64_t{kProcs} * kOpsPerProc);
    EXPECT_EQ(r.served_ops, r.offered_ops);
    ASSERT_EQ(r.run.results.size(), std::size_t{kProcs});
    for (std::size_t p = 0; p < r.run.results.size(); ++p) {
      EXPECT_EQ(r.run.results[p].as_u64(), std::uint64_t{kOpsPerProc})
          << "client " << p;
    }
    EXPECT_EQ(r.crashes, std::uint64_t{kVictims});
    EXPECT_EQ(r.recoveries, r.crashes);
    EXPECT_LE(r.in_flight_at_crash, r.crashes);
    EXPECT_EQ(r.run.latency.count(), r.served_ops);
  }
}

TEST(HwServiceDeterminismTest, ArrivalScheduleIsPureInSeed) {
  // Same seed: identical offered/served accounting and toss-independent
  // results. The latency VALUES differ run to run (wall clock), but the
  // deterministic schedule means the op counts cannot.
  ServiceOptions options;
  options.procs = 8;
  options.threads = 2;
  options.ops_per_proc = 3;
  options.arrival_rate_hz = 500'000.0;
  options.workload = ServiceWorkload::kFetchInc;
  options.seed = 42;
  const ServiceResult a = run_service(options);
  const ServiceResult b = run_service(options);
  ASSERT_TRUE(a.run.ok);
  ASSERT_TRUE(b.run.ok);
  EXPECT_EQ(a.offered_ops, b.offered_ops);
  EXPECT_EQ(a.served_ops, b.served_ops);
  EXPECT_EQ(a.run.shared_ops, b.run.shared_ops);
}

// fetch&increment counts stay far below kInlineMaxU64, so with default
// options every register stays an inline word and no node is allocated.
TEST(HwServiceTest, SmallValueRunAllocatesNoNodes) {
  ServiceOptions options;
  options.procs = 16;
  options.threads = 2;
  options.ops_per_proc = 4;
  options.arrival_rate_hz = 200'000.0;
  options.workload = ServiceWorkload::kFetchInc;
  const ServiceResult r = run_service(options);
  ASSERT_TRUE(r.run.ok);
  EXPECT_EQ(r.served_ops, 64u);
  EXPECT_EQ(r.run.reclaim.nodes_allocated, 0u);
}

}  // namespace
}  // namespace llsc
