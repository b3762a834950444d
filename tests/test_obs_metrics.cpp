#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace colex::obs {
namespace {

TEST(Counter, AccumulatesAndMerges) {
  Counter a, b;
  a.inc();
  a.inc(4);
  b.inc(10);
  EXPECT_EQ(a.value(), 5u);
  a.merge(b);
  EXPECT_EQ(a.value(), 15u);
}

TEST(Gauge, SetOverwritesTrackMaxDoesNot) {
  Gauge g;
  g.set(3.0);
  g.set(1.0);
  EXPECT_EQ(g.value(), 1.0);
  g.track_max(0.5);
  EXPECT_EQ(g.value(), 1.0);
  g.track_max(7.0);
  EXPECT_EQ(g.value(), 7.0);
}

TEST(Gauge, MergeKeepsMaximum) {
  Gauge a, b;
  a.set(2.0);
  b.set(5.0);
  a.merge(b);
  EXPECT_EQ(a.value(), 5.0);
  Gauge c;
  c.set(1.0);
  a.merge(c);
  EXPECT_EQ(a.value(), 5.0);
}

TEST(Histogram, BucketsByInclusiveUpperEdgeWithOverflow) {
  Histogram h({1.0, 10.0});
  h.record(0.5);   // bucket 0
  h.record(1.0);   // bucket 0 (inclusive edge)
  h.record(5.0);   // bucket 1
  h.record(100.0); // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  EXPECT_EQ(h.max(), 100.0);
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
}

TEST(Histogram, RestoreOverwritesWholesale) {
  Histogram h({1.0, 10.0});
  h.record(0.5);
  h.restore(7, 21.5, 9.0, {3, 3, 1});
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 21.5);
  EXPECT_EQ(h.max(), 9.0);
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{3, 3, 1}));
  // Layout is part of the registration contract: a mismatched bucket count
  // is a corrupt snapshot, not a resize request.
  EXPECT_THROW(h.restore(1, 1.0, 1.0, {1, 1}), util::ContractViolation);
}

TEST(Histogram, RejectsNonAscendingBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), util::ContractViolation);
  EXPECT_THROW(Histogram({1.0, 1.0}), util::ContractViolation);
}

TEST(Histogram, MergeIsBucketWise) {
  Histogram a({1.0, 2.0}), b({1.0, 2.0});
  a.record(0.5);
  b.record(1.5);
  b.record(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 9.0);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[2], 1u);
}

TEST(Histogram, MergeRejectsMismatchedLayout) {
  Histogram a({1.0}), b({2.0});
  EXPECT_THROW(a.merge(b), util::ContractViolation);
}

TEST(Registry, HandlesAreStableAcrossRegistrations) {
  Registry reg;
  Counter& first = reg.counter("x");
  first.inc();
  // Registering more metrics must not invalidate the earlier handle.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name);
  }
  first.inc();
  EXPECT_EQ(reg.counter("x").value(), 2u);
}

TEST(Registry, HistogramReResolveIgnoresNewBounds) {
  Registry reg;
  reg.histogram("h", {1.0, 2.0}).record(1.5);
  Histogram& again = reg.histogram("h", {99.0});
  EXPECT_EQ(again.bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(again.count(), 1u);
}

TEST(Registry, MergeSumsCountersMaxesGaugesAdoptsUnknown) {
  Registry a, b;
  a.counter("shared").inc(2);
  a.gauge("g").set(1.0);
  b.counter("shared").inc(3);
  b.counter("only-b").inc(7);
  b.gauge("g").set(4.0);
  b.histogram("h", {1.0}).record(0.5);
  a.merge(b);
  EXPECT_EQ(a.counter("shared").value(), 5u);
  EXPECT_EQ(a.counter("only-b").value(), 7u);
  EXPECT_EQ(a.gauge("g").value(), 4.0);
  EXPECT_EQ(a.histogram("h", {}).count(), 1u);
}

TEST(Registry, DeepCopyIsIndependent) {
  Registry a;
  a.counter("c").inc(1);
  Registry b = a;
  a.counter("c").inc(10);
  EXPECT_EQ(b.counter("c").value(), 1u);
  b = a;
  EXPECT_EQ(b.counter("c").value(), 11u);
}

TEST(Registry, JsonSnapshotIsInsertionOrdered) {
  Registry reg;
  reg.counter("z").inc(1);
  reg.counter("a").inc(2);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {1.0}).record(0.5);
  const std::string json = reg.to_json();
  EXPECT_EQ(json,
            "{\"counters\":{\"z\":1,\"a\":2},"
            "\"gauges\":{\"g\":1.5},"
            "\"histograms\":{\"h\":{\"count\":1,\"sum\":0.5,\"max\":0.5,"
            "\"bounds\":[1],\"buckets\":[1,0]}}}");
}

TEST(Registry, EmptyRegistrySnapshot) {
  Registry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(Registry, LabeledComposesSeriesNames) {
  EXPECT_EQ(labeled("pulses", "phase", "probe"), "pulses{phase=probe}");
  Registry reg;
  reg.counter(labeled("pulses", "phase", "probe")).inc(3);
  reg.counter(labeled("pulses", "phase", "elected")).inc(4);
  // Distinct label values are distinct series.
  EXPECT_EQ(reg.counter("pulses{phase=probe}").value(), 3u);
  EXPECT_EQ(reg.counter("pulses{phase=elected}").value(), 4u);
}

TEST(Registry, JsonEscapesMetricNames) {
  Registry reg;
  reg.counter("a\"b\\c\nd").inc(1);
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{\"a\\\"b\\\\c\\nd\":1},"
            "\"gauges\":{},\"histograms\":{}}");
}

TEST(Registry, JsonEscapesControlBytesInMetricNames) {
  Registry reg;
  reg.counter("x\ry\x01").inc(1);
  const std::string json = reg.to_json();
  for (const char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  EXPECT_EQ(json,
            "{\"counters\":{\"x\\u000dy\\u0001\":1},"
            "\"gauges\":{},\"histograms\":{}}");
}

}  // namespace
}  // namespace colex::obs
