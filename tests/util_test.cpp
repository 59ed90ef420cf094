#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <string_view>
#include <vector>

#include "serve/wire.h"
#include "util/geometry.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace scap {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == child());
  EXPECT_LT(same, 2);
}

TEST(Rng, JumpIsDeterministic) {
  Rng a(2007), b(2007);
  a.jump();
  b.jump();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, JumpMovesToDisjointSubsequence) {
  Rng base(2007);
  Rng jumped(2007);
  jumped.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (base() == jumped());
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamShardIsIteratedJump) {
  // stream(seed, k) is defined as k applications of jump() to Rng(seed).
  Rng twice(2007);
  twice.jump();
  twice.jump();
  Rng shard2 = Rng::stream(2007, 2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(twice(), shard2());
}

TEST(Rng, LongJumpDiffersFromJump) {
  Rng j(5), lj(5);
  j.jump();
  lj.long_jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (j() == lj());
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamReproducibleAndShardSensitive) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  Rng c = Rng::stream(42, 8);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    same += (va == c());
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamShardZeroMatchesPlainSeed) {
  Rng plain(321);
  Rng s0 = Rng::stream(321, 0);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(plain(), s0());
}

TEST(Rng, AdjacentStreamsNeverCollideShortRange) {
  // 4 shards x 1000 draws: all 4000 values distinct (a collision among
  // uniform 64-bit draws at this sample size is ~1e-13 probable, so any
  // repeat indicates overlapping subsequences).
  std::vector<std::uint64_t> all;
  for (std::uint64_t shard = 0; shard < 4; ++shard) {
    Rng r = Rng::stream(77, shard);
    for (int i = 0; i < 1000; ++i) all.push_back(r());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(Geometry, RectBasics) {
  const Rect r{0, 0, 10, 5};
  EXPECT_DOUBLE_EQ(r.width(), 10);
  EXPECT_DOUBLE_EQ(r.height(), 5);
  EXPECT_DOUBLE_EQ(r.area(), 50);
  EXPECT_EQ(r.center(), (Point{5, 2.5}));
}

TEST(Geometry, RectContainsHalfOpen) {
  const Rect r{0, 0, 10, 5};
  EXPECT_TRUE(r.contains({0, 0}));
  EXPECT_TRUE(r.contains({9.999, 4.999}));
  EXPECT_FALSE(r.contains({10, 2}));
  EXPECT_FALSE(r.contains({5, 5}));
  EXPECT_FALSE(r.contains({-0.001, 2}));
}

TEST(Geometry, RectOverlap) {
  const Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.overlaps(Rect{5, 5, 15, 15}));
  EXPECT_FALSE(a.overlaps(Rect{10, 0, 20, 10}));  // share an edge only
  EXPECT_FALSE(a.overlaps(Rect{11, 11, 12, 12}));
}

TEST(Geometry, RectClamp) {
  const Rect r{0, 0, 10, 5};
  EXPECT_EQ(r.clamp({-3, 2}), (Point{0, 2}));
  EXPECT_EQ(r.clamp({20, 9}), (Point{10, 5}));
  EXPECT_EQ(r.clamp({4, 4}), (Point{4, 4}));
}

TEST(Geometry, Distances) {
  EXPECT_DOUBLE_EQ(manhattan({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(euclidean({0, 0}, {3, 4}), 5.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::array<double, 5> xs{1, 2, 3, 4, 10};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  // Sample variance of {1,2,3,4,10} = 12.5.
  EXPECT_NEAR(s.variance(), 12.5, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Quantile, Interpolates) {
  const std::array<double, 5> xs{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.125), 0.5);
}

TEST(Quantile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Histogram, BinsAndClamps) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.5);    // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(100.0);  // clamps to bin 9
  h.add(5.0);    // bin 5
  EXPECT_EQ(h.bins[0], 2u);
  EXPECT_EQ(h.bins[9], 2u);
  EXPECT_EQ(h.bins[5], 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.render().find("| x |"), std::string::npos);
}

TEST(TextTable, TooManyCellsThrows) {
  TextTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(TextTable, NumFormatsFixedPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

// The benchmark digest hashes WireWriter's bytes with fnv1a64, so both the
// hash and the byte layout are pinned here.
std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Wire, Fnv1a64KnownValue) {
  // Standard FNV-1a 64 vectors: "" is the offset basis, "a" one round on.
  EXPECT_EQ(serve::fnv1a64(as_bytes("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(serve::fnv1a64(as_bytes("a")), 0xaf63dc4c8601ec8cull);
}

TEST(Wire, WriterLittleEndianLayout) {
  serve::WireWriter w;
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1.25e-3);
  w.str32("hi");
  const std::vector<std::uint8_t> raw{1, 2, 3};
  w.bytes(raw);
  const std::vector<std::uint8_t> want{
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0x7B, 0x14, 0xAE, 0x47, 0xE1, 0x7A, 0x54, 0xBF,  // f64 bits
      0x02, 0x00, 0x00, 0x00, 'h', 'i',                // str32
      1, 2, 3};                                        // bytes
  EXPECT_EQ(w.data(), want);
}

}  // namespace
}  // namespace scap
