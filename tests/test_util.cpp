// Unit tests for mvio::util: RNG determinism and distributions, running
// statistics, formatting, histogram, CLI parsing, the chunk-text hash.

#include <gtest/gtest.h>

#include <cmath>

#include <string>

#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mu = mvio::util;

TEST(Rng, DeterministicAcrossInstances) {
  mu::Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  mu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  mu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  mu::Rng rng(11);
  std::array<int, 10> hits{};
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    hits[static_cast<std::size_t>(v)]++;
  }
  for (int h : hits) EXPECT_GT(h, 1000);  // roughly uniform
}

TEST(Rng, BetweenInclusive) {
  mu::Rng rng(13);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, PowerLawBoundsAndSkew) {
  mu::Rng rng(17);
  double sum = 0;
  std::uint64_t maxSeen = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.powerLaw(4, 4096, 2.2);
    ASSERT_GE(v, 4u);
    ASSERT_LE(v, 4096u);
    sum += static_cast<double>(v);
    maxSeen = std::max(maxSeen, v);
  }
  const double mean = sum / n;
  EXPECT_LT(mean, 64.0);    // mass concentrated at the small end
  EXPECT_GT(maxSeen, 512u); // but the tail is long
}

TEST(Rng, NormalMoments) {
  mu::Rng rng(23);
  mu::RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(RunningStats, BasicMoments) {
  mu::RunningStats st;
  for (double v : {1.0, 2.0, 3.0, 4.0}) st.add(v);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
  EXPECT_DOUBLE_EQ(st.sum(), 10.0);
  EXPECT_NEAR(st.variance(), 1.25, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  mu::RunningStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(Percentiles, Quantiles) {
  mu::Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.quantile(0.5), 50.5, 1.0);
}

TEST(Histogram, BucketsAndOverflow) {
  mu::Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  h.add(-1);
  h.add(42);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bucketCount(i), 1u);
}

TEST(Format, Bytes) {
  EXPECT_EQ(mu::formatBytes(512), "512 B");
  EXPECT_EQ(mu::formatBytes(1500), "1.50 KB");
  EXPECT_EQ(mu::formatBytes(22'000'000'000ull), "22.0 GB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(mu::formatSeconds(2.0), "2.00 s");
  EXPECT_EQ(mu::formatSeconds(0.0032), "3.20 ms");
  EXPECT_EQ(mu::formatSeconds(4.2e-6), "4.20 us");
}

TEST(Format, Bandwidth) {
  EXPECT_EQ(mu::formatBandwidth(22e9), "22.0 GB/s");
  EXPECT_EQ(mu::formatBandwidth(3.5e6), "3.50 MB/s");
}

TEST(TextTable, AlignsColumns) {
  mu::TextTable t({"a", "bbbb"});
  t.addRow({"xx", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("xx"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, RejectsBadRow) {
  mu::TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), mu::Error);
}

TEST(Cli, ParsesFlagsBothSyntaxes) {
  mu::Cli cli("test");
  cli.flag("alpha", "1", "an int").flag("name", "x", "a string").flag("on", "false", "a bool");
  const char* argv[] = {"prog", "--alpha=7", "--name", "hello", "--on=true"};
  ASSERT_TRUE(cli.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(cli.integer("alpha"), 7);
  EXPECT_EQ(cli.str("name"), "hello");
  EXPECT_TRUE(cli.boolean("on"));
}

TEST(Cli, RejectsUnknownFlag) {
  mu::Cli cli("test");
  cli.flag("a", "1", "x");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(cli.parse(2, const_cast<char**>(argv)), mu::Error);
}

TEST(Error, CheckMacroThrows) {
  EXPECT_THROW(MVIO_CHECK(false, "boom"), mu::Error);
  EXPECT_NO_THROW(MVIO_CHECK(true, "fine"));
}

TEST(WordHash, EverySingleBitFlipAndTruncationChangesTheHash) {
  // 30 bytes: three full words and a 6-byte tail, so the zero-padded
  // tail word is covered too.
  const std::string text = "POINT (3 3)\tattr-0\nPOINT (4 5)";
  ASSERT_EQ(text.size(), 30u);
  const std::uint64_t h = mu::wordHash(text);
  EXPECT_EQ(h, mu::wordHash(text.data(), text.size())) << "deterministic";
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(mu::wordHash(flipped), h) << "byte " << i << " bit " << bit;
    }
  }
  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_NE(mu::wordHash(text.data(), len), h) << "truncated to " << len;
  }
  // Zero padding must not make a shorter text collide with its
  // zero-extended self.
  EXPECT_NE(mu::wordHash(std::string("ab")), mu::wordHash(std::string("ab\0", 3)));
}
