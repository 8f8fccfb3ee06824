#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/check.h"
#include "util/fnv1a.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/word_checksum.h"
#include "util/zipf.h"

namespace aac {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Zipf, ThetaZeroIsUniform) {
  Rng rng(1);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[static_cast<size_t>(z.Sample(rng))]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Zipf, SkewFavorsSmallIds) {
  Rng rng(2);
  ZipfSampler z(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[static_cast<size_t>(z.Sample(rng))]++;
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], counts[99] * 10);
}

TEST(Zipf, SamplesInRange) {
  Rng rng(3);
  ZipfSampler z(7, 0.5);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = z.Sample(rng);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
  }
}

TEST(StatAccumulator, EmptyIsZero) {
  StatAccumulator s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(StatAccumulator, TracksMinMaxMean) {
  StatAccumulator s;
  s.Add(3.0);
  s.Add(-1.0);
  s.Add(4.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_EQ(s.min(), -1.0);
  EXPECT_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(StatAccumulator, MergeCombines) {
  StatAccumulator a, b;
  a.Add(1.0);
  a.Add(2.0);
  b.Add(10.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.max(), 10.0);
  EXPECT_EQ(a.min(), 1.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_NEAR(s.Percentile(0.5), 50.0, 1.0);
}

TEST(SimClock, AccumulatesCharges) {
  SimClock c;
  c.Charge(1000);
  c.Charge(500);
  EXPECT_EQ(c.TotalNanos(), 1500);
  EXPECT_DOUBLE_EQ(c.TotalMillis(), 1500.0 / 1e6);
}

TEST(SimClock, IgnoresNegativeCharges) {
  SimClock c;
  c.Charge(-100);
  EXPECT_EQ(c.TotalNanos(), 0);
}

TEST(SimClock, ResetClears) {
  SimClock c;
  c.Charge(10);
  c.Reset();
  EXPECT_EQ(c.TotalNanos(), 0);
}

TEST(Stopwatch, ElapsedIsNonNegativeAndMonotone) {
  Stopwatch w;
  int64_t a = w.ElapsedNanos();
  int64_t b = w.ElapsedNanos();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  w.Reset();
  EXPECT_GE(w.ElapsedNanos(), 0);
}

// The published 64-bit FNV-1a test vectors.
TEST(Fnv1a, MatchesThePublishedVectors) {
  EXPECT_EQ(Fnv1a("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar", 6), 0x85944171f73967e8ULL);
  // Continuing from a prefix's hash equals hashing the whole input.
  EXPECT_EQ(Fnv1a("bar", 3, Fnv1a("foo", 3)), Fnv1a("foobar", 6));
}

// Pinned sums: the codec trailer and the disk tier's extents use them, so
// a change to the algorithm is a deliberate one.
TEST(WordChecksum, MatchesPinnedValues) {
  uint8_t ramp[64];
  for (size_t i = 0; i < sizeof(ramp); ++i) ramp[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(WordChecksum("", 0), uint64_t{0x149aeec19b31d6cc});
  EXPECT_EQ(WordChecksum("a", 1), uint64_t{0xfa799a44981f7cb});
  EXPECT_EQ(WordChecksum("foobar", 6), uint64_t{0xf8ccc9ac4b22cf30});
  EXPECT_EQ(WordChecksum(ramp, sizeof(ramp)), uint64_t{0x7e594110d995220c});
  EXPECT_EQ(WordChecksum(ramp, 13), uint64_t{0x4f1e73bbc8e1a7ee});
}

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  return bytes;
}

// Each step is a bijection of the state, so a flip inside any one word
// must change the sum — every bit of a 64-byte and of a 3 KB buffer.
TEST(WordChecksum, EverySingleBitFlipChangesTheSum) {
  for (const size_t size : {size_t{64}, size_t{3072}}) {
    std::vector<uint8_t> bytes = RandomBytes(size, size);
    const uint64_t sum = WordChecksum(bytes.data(), bytes.size());
    for (size_t i = 0; i < size; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[i] ^= static_cast<uint8_t>(1u << bit);
        EXPECT_NE(WordChecksum(bytes.data(), bytes.size()), sum)
            << size << " bytes, bit " << bit << " of byte " << i;
        bytes[i] ^= static_cast<uint8_t>(1u << bit);
      }
    }
  }
}

TEST(WordChecksum, EveryTruncationByOneToEightBytesChangesTheSum) {
  for (const size_t size : {size_t{64}, size_t{3072}}) {
    const std::vector<uint8_t> bytes = RandomBytes(size, size + 1);
    const uint64_t sum = WordChecksum(bytes.data(), bytes.size());
    for (size_t cut = 1; cut <= 8; ++cut) {
      EXPECT_NE(WordChecksum(bytes.data(), size - cut), sum)
          << size << " bytes cut by " << cut;
    }
  }
  // Zero padding never aliases real zero bytes: the length is folded in.
  const uint8_t zeros[8] = {};
  for (size_t size = 0; size < 8; ++size) {
    EXPECT_NE(WordChecksum(zeros, size), WordChecksum(zeros, size + 1));
  }
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(TablePrinter, FmtFormatsDigits) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

TEST(Check, FullDcheckFamilyCompilesAndPassesOnTrueConditions) {
  // Compile coverage for every AAC_DCHECK variant in whichever mode this
  // test builds under (NDEBUG builds used to lack NE/GT/GE entirely). All
  // conditions hold, so this also runs clean in debug builds.
  const int lo = 1, hi = 2;
  AAC_DCHECK(lo < hi);
  AAC_DCHECK_EQ(lo, lo);
  AAC_DCHECK_NE(lo, hi);
  AAC_DCHECK_LT(lo, hi);
  AAC_DCHECK_LE(lo, lo);
  AAC_DCHECK_GT(hi, lo);
  AAC_DCHECK_GE(hi, hi);
  AAC_CHECK_NE(lo, hi);
  AAC_CHECK_GT(hi, lo);
  AAC_CHECK_GE(hi, lo);
  SUCCEED();
}

TEST(TablePrinterDeathTest, RowArityMismatchAborts) {
  TablePrinter t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only one"}), "AAC_CHECK");
}

}  // namespace
}  // namespace aac
