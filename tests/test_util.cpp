#include <gtest/gtest.h>

#include <sched.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/serve.hpp"
#include "qa/repro.hpp"
#include "sim/parallel.hpp"
#include "util/contracts.hpp"
#include "util/cpus.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace colex::util {
namespace {

TEST(UsableCpus, CountsTheAffinityMask) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  EXPECT_EQ(usable_cpus(), static_cast<std::size_t>(CPU_COUNT(&mask)));
  EXPECT_EQ(sim::default_workers(), usable_cpus());
  // A thread pinned to one CPU sees one CPU, however many the machine has.
  bool pinned = false;
  std::size_t seen = 0;
  std::thread probe([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) {
        CPU_SET(c, &one);
        break;
      }
    }
    pinned = sched_setaffinity(0, sizeof one, &one) == 0;
    seen = usable_cpus();
  });
  probe.join();
  if (pinned) {
    EXPECT_EQ(seen, 1u);
  }
}

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, IsDeterministicAndSeedSensitive) {
  Xoshiro256StarStar a(7), b(7), c(8);
  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Xoshiro, BelowStaysInRange) {
  Xoshiro256StarStar rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Xoshiro, BelowOneIsAlwaysZero) {
  Xoshiro256StarStar rng(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro, BelowRejectsZeroBound) {
  Xoshiro256StarStar rng(3);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(Xoshiro, InRangeInclusive) {
  Xoshiro256StarStar rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.in_range(3, 5));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
}

TEST(Xoshiro, Uniform01Range) {
  Xoshiro256StarStar rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, BelowIsRoughlyUniform) {
  Xoshiro256StarStar rng(13);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::array<int, kBound> bucket{};
  for (int i = 0; i < kSamples; ++i) ++bucket[rng.below(kBound)];
  for (const int b : bucket) {
    EXPECT_NEAR(b, kSamples / kBound, kSamples / kBound * 0.1);
  }
}

TEST(Xoshiro, GeometricTrialsSupportStartsAtOne) {
  Xoshiro256StarStar rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.geometric_trials(0.5), 1u);
}

TEST(Xoshiro, GeometricTrialsSureSuccessIsOne) {
  Xoshiro256StarStar rng(19);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.geometric_trials(1.0), 1u);
}

TEST(Xoshiro, GeometricTrialsMeanMatches) {
  // E[Geo(q)] = 1/q for the trials-until-success convention.
  Xoshiro256StarStar rng(23);
  const double q = 0.25;
  double sum = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.geometric_trials(q));
  }
  EXPECT_NEAR(sum / kSamples, 1.0 / q, 0.05);
}

TEST(Xoshiro, GeometricTrialsTailMatches) {
  // P(X > x) = (1-q)^x.
  Xoshiro256StarStar rng(29);
  const double q = 0.5;
  constexpr int kSamples = 100000;
  int exceed3 = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.geometric_trials(q) > 3) ++exceed3;
  }
  EXPECT_NEAR(static_cast<double>(exceed3) / kSamples, 0.125, 0.01);
}

TEST(Stats, EmptySummaryIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SingleElement) {
  const Summary s = summarize({5.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 5.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 5.0);
  EXPECT_EQ(s.max, 5.0);
}

TEST(Stats, KnownSample) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.p50, 2.0);
}

TEST(Stats, AllEqualSampleHasZeroSpread) {
  const Summary s = summarize({7.0, 7.0, 7.0, 7.0, 7.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 7.0);
  EXPECT_EQ(s.max, 7.0);
  EXPECT_EQ(s.p50, 7.0);
  EXPECT_EQ(s.p95, 7.0);
  EXPECT_EQ(s.p99, 7.0);
}

TEST(Stats, P99NearestRankOnHundredSamples) {
  // 1..100: nearest-rank p99 is ceil(0.99 * 100) = rank 99 -> value 99.
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i + 1);
  }
  const Summary s = summarize(xs);
  EXPECT_EQ(s.p99, 99.0);
  EXPECT_EQ(s.p95, 95.0);
  EXPECT_EQ(s.p50, 50.0);
}

TEST(Stats, P99IsOrderInsensitive) {
  // summarize sorts internally, so the reported tail is a pure function of
  // the multiset of samples — the property fuzz campaigns rely on when they
  // compare summaries across reruns of the same seed block.
  std::vector<double> fwd, rev;
  Xoshiro256StarStar rng(31);
  for (int i = 0; i < 500; ++i) {
    fwd.push_back(static_cast<double>(rng.below(10'000)));
  }
  rev.assign(fwd.rbegin(), fwd.rend());
  const Summary a = summarize(fwd);
  const Summary b = summarize(rev);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.max, b.max);
}

TEST(Stats, SmallSampleP99IsMax) {
  // With fewer than 100 samples the 0.99 nearest rank is the last element.
  const Summary s = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.p99, 3.0);
}

TEST(Stats, NonFiniteSamplesAreDropped) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const Summary s = summarize({1.0, nan, 3.0, inf, -inf, 2.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 3.0);
}

TEST(Stats, AllNonFiniteIsEmptySummary) {
  const Summary s = summarize({std::nan(""), std::nan("")});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(Stats, PercentileSingleElement) {
  const std::vector<double> one{42.0};
  EXPECT_EQ(percentile_sorted(one, 0.0), 42.0);
  EXPECT_EQ(percentile_sorted(one, 0.5), 42.0);
  EXPECT_EQ(percentile_sorted(one, 1.0), 42.0);
}

TEST(Stats, PercentileEmptyIsZero) {
  EXPECT_EQ(percentile_sorted({}, 0.5), 0.0);
}

TEST(Stats, PercentileRejectsOutOfRangeQuantile) {
  const std::vector<double> sorted{1.0, 2.0};
  EXPECT_THROW(percentile_sorted(sorted, -0.1), ContractViolation);
  EXPECT_THROW(percentile_sorted(sorted, 1.1), ContractViolation);
}

TEST(Stats, PercentileNearestRank) {
  const std::vector<double> sorted{10, 20, 30, 40, 50};
  EXPECT_EQ(percentile_sorted(sorted, 0.0), 10.0);
  EXPECT_EQ(percentile_sorted(sorted, 0.5), 30.0);
  EXPECT_EQ(percentile_sorted(sorted, 1.0), 50.0);
  EXPECT_EQ(percentile_sorted(sorted, 0.2), 10.0);
  EXPECT_EQ(percentile_sorted(sorted, 0.21), 20.0);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"a", "long-header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, FixedFormatsDigits) {
  EXPECT_EQ(Table::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fixed(2.0, 1), "2.0");
}

TEST(Contracts, ExpectsThrowsWithLocation) {
  try {
    COLEX_EXPECTS(false);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
  }
}

// --- JSON codec ------------------------------------------------------------

std::string escaped(const std::string& s) {
  std::ostringstream os;
  json::write_string(os, s);
  return os.str();
}

bool has_raw_control_byte(const std::string& s) {
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) return true;
  }
  return false;
}

TEST(Json, EscapesOnlyQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(escaped("plain /é~"), "\"plain /é~\"");
  EXPECT_EQ(escaped("q\"b\\n\nt\tr\r\x01\x1f"),
            "\"q\\\"b\\\\n\\nt\\tr\\u000d\\u0001\\u001f\"");
}

TEST(Json, ObjectSeesOnlyTopLevelMembers) {
  const json::Object obj(
      R"( {"s":"a\"n\":1", "nested":{"n":9, "x":[1,{"n":8}]}, "n":3,)"
      R"( "ids":[4, 5], "f":-2.5e1, "ok":true, "none":null} )");
  EXPECT_EQ(obj.at<std::uint64_t>("n"), 3u);
  EXPECT_EQ(obj.at<std::string>("s"), "a\"n\":1");
  EXPECT_EQ(obj.raw("nested"), R"({"n":9, "x":[1,{"n":8}]})");
  EXPECT_EQ(obj.at<std::vector<std::uint64_t>>("ids"),
            (std::vector<std::uint64_t>{4, 5}));
  EXPECT_EQ(obj.at<double>("f"), -25.0);
  EXPECT_EQ(obj.members().size(), 7u);
  std::string untouched = "kept";
  EXPECT_FALSE(obj.get("missing", untouched));
  EXPECT_EQ(untouched, "kept");
  EXPECT_THROW(obj.at<std::string>("missing"), ContractViolation);
  EXPECT_THROW(obj.at<std::uint64_t>("s"), ContractViolation);
  EXPECT_THROW(obj.at<std::vector<bool>>("ids"), ContractViolation);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* text :
       {"", "[]", "{", "{\"a\"}", "{\"a\":}", "{\"a\":1,}", "{\"a\":1} x",
        "{\"a\":\"open}", "{\"a\":\"\\q\"}", "{\"a\":\"\\u12\"}",
        "{\"a\":\"\\u00e9\"}", "{\"a\":nope}", "{\"a\":[1 2]}",
        "{a:1}"}) {
    EXPECT_THROW(json::Object{text}, ContractViolation) << text;
  }
  EXPECT_THROW(json::as<std::uint64_t>("18446744073709551616"),
               ContractViolation);
  EXPECT_THROW(json::as<bool>("2"), ContractViolation);
}

// Seeded property test over hostile strings: every byte value, with the
// quote, the backslash and a key-like `"n":` spliced in. Each string must
// escape to control-free text that reads back equal, and must round-trip
// through every format that carries free text.
TEST(Json, HostileStringsRoundTripThroughEveryFormat) {
  Xoshiro256StarStar rng(20240507);
  const std::vector<std::string> splices = {"\"", "\\", "\"n\":"};
  for (int i = 0; i < 1000; ++i) {
    std::string s;
    const std::uint64_t length = rng.below(24);
    for (std::uint64_t k = 0; k < length; ++k) {
      if (rng.below(4) == 0) {
        s += splices[rng.below(splices.size())];
      } else {
        s += static_cast<char>(rng.below(256));
      }
    }
    const std::string text = escaped(s);
    ASSERT_FALSE(has_raw_control_byte(text)) << i;
    ASSERT_EQ(json::as<std::string>(text), s) << i;

    qa::ReproFile repro;
    repro.c.ids = {1};
    repro.diagnostic = s;
    std::istringstream repro_in(qa::to_repro(repro));
    ASSERT_EQ(qa::load_repro(repro_in).diagnostic, s) << i;

    obs::TraceMeta meta;
    meta.algorithm = s;
    meta.n = 1;
    std::istringstream trace_in(obs::to_jsonl({}, meta));
    ASSERT_EQ(obs::load_jsonl(trace_in).meta.algorithm, s) << i;

    obs::Registry reg;
    reg.counter(s).inc(1);
    const std::string snapshot = reg.to_json();
    ASSERT_FALSE(has_raw_control_byte(snapshot)) << i;
    ASSERT_EQ(obs::registry_from_json(snapshot).counters().at(0).first, s)
        << i;
  }
}

}  // namespace
}  // namespace colex::util
