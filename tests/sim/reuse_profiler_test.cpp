#include "sim/cache/reuse_profiler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exact_replay_oracle.hpp"
#include "sim/cache/address_stream.hpp"
#include "util/rng.hpp"

namespace dicer::sim {
namespace {

constexpr std::uint64_t MB = 1024 * 1024;

// 20-way geometry with 2048 sets: small enough for fast tests, deep
// enough to exercise every way count of the paper's LLC associativity.
CacheGeometry small20() {
  return {.size_bytes = 5 * MB / 2, .ways = 20, .line_bytes = 64};
}

std::vector<std::pair<const char*, StreamFactory>> stream_families() {
  return {
      {"working_set",
       [] {
         return std::make_unique<WorkingSetStream>(MB, 0,
                                                   util::Xoshiro256(11));
       }},
      {"streaming",
       [] { return std::make_unique<StreamingStream>(64 * MB, 64, 0); }},
      {"bimodal",
       [] {
         return std::make_unique<BimodalStream>(MB / 2, 4 * MB, 0.8, 0,
                                                util::Xoshiro256(12));
       }},
      {"mixed",
       [] {
         return std::make_unique<MixedStream>(MB, 0.7, 0,
                                              util::Xoshiro256(13));
       }},
  };
}

MrcProfilerConfig base_config(double sampling_rate = 1.0) {
  MrcProfilerConfig config;
  config.geometry = small20();
  config.warmup_accesses = 50'000;
  config.measure_accesses = 100'000;
  config.sampling_rate = sampling_rate;
  return config;
}

TEST(ReuseProfiler, SinglePassMatchesExactReplayBitForBit) {
  for (const auto& [name, make_stream] : stream_families()) {
    SCOPED_TRACE(name);
    const auto exact = exact_replay_mrc(base_config(), make_stream);
    const auto fast = profile_mrc(base_config(), *make_stream());
    ASSERT_EQ(exact.size(), fast.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(exact.points()[i].first, fast.points()[i].first);
      // Byte-identical, not merely close: per-set LRU stack distances
      // reproduce the replay oracle's integer miss counts exactly.
      EXPECT_EQ(exact.points()[i].second, fast.points()[i].second);
    }
  }
}

TEST(ReuseProfiler, FixedRateSamplingWithinTolerance) {
  for (const auto& [name, make_stream] : stream_families()) {
    SCOPED_TRACE(name);
    const auto exact = profile_mrc(base_config(), *make_stream());
    const auto sampled = profile_mrc(base_config(0.125), *make_stream());
    ASSERT_EQ(exact.size(), sampled.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_NEAR(exact.points()[i].second, sampled.points()[i].second, 0.02);
    }
  }
}

TEST(ReuseProfiler, SamplingIsDeterministic) {
  const auto cfg = base_config(0.125);
  auto make_stream = [] {
    return std::make_unique<MixedStream>(MB, 0.6, 0, util::Xoshiro256(31));
  };
  const auto a = profile_mrc(cfg, *make_stream());
  const auto b = profile_mrc(cfg, *make_stream());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].second, b.points()[i].second);
  }
}

TEST(ReuseProfiler, SampledHistogramCarriesTheCountCorrection) {
  ReuseProfiler profiler(small20(), 0.25);
  WorkingSetStream stream(MB, 0, util::Xoshiro256(44));
  for (int i = 0; i < 10'000; ++i) profiler.access(stream.next());
  profiler.begin_measurement();
  for (int i = 0; i < 40'000; ++i) profiler.access(stream.next());
  const auto st = profiler.stats();
  EXPECT_LT(st.sampled_sets, st.sets);
  EXPECT_EQ(st.sample_rate, static_cast<double>(st.sampled_sets) /
                                static_cast<double>(st.sets));
  EXPECT_LT(st.sampled, st.measured);
  // SHARDS-adj: the corrected histogram holds exactly the expected sampled
  // count, and stats() reports the shift it applied to bucket 0.
  const auto hist = profiler.histogram();
  double total = 0.0;
  for (double h : hist) total += h;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(st.measured) * st.sample_rate);
  EXPECT_DOUBLE_EQ(total - static_cast<double>(st.sampled), st.correction);
}

TEST(ReuseProfiler, UnsampledHistogramAccountsEveryMeasuredAccess) {
  ReuseProfiler profiler(small20());
  WorkingSetStream stream(MB, 0, util::Xoshiro256(41));
  for (int i = 0; i < 10'000; ++i) profiler.access(stream.next());
  profiler.begin_measurement();
  for (int i = 0; i < 20'000; ++i) profiler.access(stream.next());
  const auto st = profiler.stats();
  EXPECT_EQ(st.accesses, 30'000u);
  EXPECT_EQ(st.measured, 20'000u);
  EXPECT_EQ(st.sampled, 20'000u);  // every set sampled
  EXPECT_EQ(st.sample_rate, 1.0);
  EXPECT_EQ(st.sampled_sets, st.sets);
  EXPECT_EQ(st.correction, 0.0);
  const auto hist = profiler.histogram();
  double total = 0.0;
  for (double h : hist) total += h;
  EXPECT_DOUBLE_EQ(total, 20'000.0);
}

TEST(ReuseProfiler, WarmupOnlyBuildsStateNotCounts) {
  ReuseProfiler profiler(small20());
  WorkingSetStream stream(MB, 0, util::Xoshiro256(42));
  for (int i = 0; i < 10'000; ++i) profiler.access(stream.next());
  // Never began measurement: histogram must be all zero.
  for (double h : profiler.histogram()) EXPECT_EQ(h, 0.0);
  EXPECT_EQ(profiler.stats().measured, 0u);
}

TEST(ReuseProfiler, RejectsBadConfigs) {
  EXPECT_THROW(ReuseProfiler(small20(), 0.0), std::invalid_argument);
  EXPECT_THROW(ReuseProfiler(small20(), 1.5), std::invalid_argument);
  EXPECT_THROW(ReuseProfiler(small20(), std::nan("")),
               std::invalid_argument);
  EXPECT_THROW(
      ReuseProfiler({.size_bytes = MB, .ways = 33, .line_bytes = 64}),
      std::invalid_argument);
  EXPECT_THROW(
      ReuseProfiler({.size_bytes = MB, .ways = 4, .line_bytes = 48}),
      std::invalid_argument);
}

TEST(ReuseProfiler, TinyRateStillSamplesAtLeastOneSet) {
  ReuseProfiler profiler(small20(), 1e-12);
  WorkingSetStream stream(MB, 0, util::Xoshiro256(43));
  for (int i = 0; i < 1'000; ++i) profiler.access(stream.next());
  profiler.begin_measurement();
  for (int i = 0; i < 50'000; ++i) profiler.access(stream.next());
  EXPECT_EQ(profiler.stats().sampled_sets, 1u);
  // The curve is still a valid MRC (degenerate but in range).
  const auto mrc = profiler.mrc();
  for (const auto& [bytes, miss] : mrc.points()) {
    EXPECT_GE(miss, 0.0);
    EXPECT_LE(miss, 1.0);
  }
}

}  // namespace
}  // namespace dicer::sim
