#include "sim/cache/occupancy_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace dicer::sim {
namespace {

constexpr double MB = 1024.0 * 1024.0;
constexpr double GBs = 1024.0 * 1024.0 * 1024.0;

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(DecomposeRegions, SingleSharedRegion) {
  std::vector<WayMask> masks(3, WayMask::full(20));
  const auto regions = decompose_regions(masks, 20, MB);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_DOUBLE_EQ(regions[0].capacity_bytes, 20 * MB);
  EXPECT_EQ(regions[0].sharers, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(DecomposeRegions, DisjointPartitions) {
  std::vector<WayMask> masks = {WayMask::high(19, 20), WayMask::low(1),
                                WayMask::low(1)};
  const auto regions = decompose_regions(masks, 20, MB);
  ASSERT_EQ(regions.size(), 2u);
  // Region order: by sharer bitmask value — BE region {1,2} has mask 0b110,
  // HP region {0} has mask 0b001.
  double hp_cap = 0.0, be_cap = 0.0;
  for (const auto& r : regions) {
    if (r.sharers == std::vector<std::size_t>{0}) hp_cap = r.capacity_bytes;
    if (r.sharers == (std::vector<std::size_t>{1, 2})) {
      be_cap = r.capacity_bytes;
    }
  }
  EXPECT_DOUBLE_EQ(hp_cap, 19 * MB);
  EXPECT_DOUBLE_EQ(be_cap, 1 * MB);
}

TEST(DecomposeRegions, OverlappingMasksSplit) {
  // App 0: ways 0-9; app 1: ways 5-14 -> three regions.
  std::vector<WayMask> masks = {WayMask::span(0, 10), WayMask::span(5, 10)};
  const auto regions = decompose_regions(masks, 20, MB);
  ASSERT_EQ(regions.size(), 3u);
  double cap_sum = 0.0;
  for (const auto& r : regions) cap_sum += r.capacity_bytes;
  EXPECT_DOUBLE_EQ(cap_sum, 15 * MB);  // ways 15-19 unused, dropped
}

TEST(DecomposeRegions, UnusedWaysDropped) {
  std::vector<WayMask> masks = {WayMask::low(4)};
  const auto regions = decompose_regions(masks, 20, MB);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_DOUBLE_EQ(regions[0].capacity_bytes, 4 * MB);
}

TEST(DecomposeRegions, TooManyAppsThrows) {
  std::vector<WayMask> masks(65, WayMask::full(20));
  EXPECT_THROW(decompose_regions(masks, 20, MB), std::invalid_argument);
}

// One app's demand in nested form: the tests build and nudge demands this
// way, the solver reads them through flat(), and the oracle below reads
// the nested form directly, so the flat layout is checked as well.
struct AppDemand {
  double stream = 0.0;
  std::vector<std::pair<double, double>> reuse;  ///< (rate, footprint)
};

AppDemand reuse_app(double rate, double footprint) {
  return AppDemand{0.0, {{rate, footprint}}};
}

AppDemand stream_app(double rate) { return AppDemand{rate, {}}; }

OccupancyDemand flat(const std::vector<AppDemand>& apps) {
  OccupancyDemand demand;
  for (const auto& app : apps) {
    demand.add_app(app.stream);
    for (const auto& [rate, footprint] : app.reuse) {
      demand.add_reuse(rate, footprint);
    }
  }
  return demand;
}

std::vector<double> solve_occupancy(const std::vector<CacheRegion>& regions,
                                    std::size_t num_apps,
                                    const std::vector<AppDemand>& apps,
                                    const OccupancySolverConfig& config = {}) {
  return sim::solve_occupancy(regions, num_apps, flat(apps), config);
}

TEST(OccupancyDemand, FlatLayout) {
  const auto demand =
      flat({stream_app(5.0), AppDemand{1.0, {{2.0, 3.0}, {4.0, 6.0}}},
            reuse_app(7.0, 8.0)});
  ASSERT_EQ(demand.num_apps(), 3u);
  EXPECT_EQ(demand.values(),
            (std::vector<double>{5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 0.0, 7.0, 8.0}));
  EXPECT_EQ(demand.begin(0), 0u);
  EXPECT_EQ(demand.end(0), 1u);
  EXPECT_EQ(demand.begin(1), 1u);
  EXPECT_EQ(demand.end(1), 6u);
  EXPECT_EQ(demand.begin(2), 6u);
  EXPECT_EQ(demand.end(2), 9u);
  OccupancyDemand empty;
  EXPECT_THROW(empty.add_reuse(1.0, 1.0), std::logic_error);
}

TEST(SolveOccupancy, LoneStreamerFillsRegion) {
  std::vector<WayMask> masks = {WayMask::full(20)};
  const auto regions = decompose_regions(masks, 20, MB);
  const auto occ = solve_occupancy(regions, 1, {stream_app(1 * GBs)});
  EXPECT_NEAR(occ[0], 20 * MB, 0.01 * MB);
}

TEST(SolveOccupancy, LoneSmallFootprintDoesNotFill) {
  std::vector<WayMask> masks = {WayMask::full(20)};
  const auto regions = decompose_regions(masks, 20, MB);
  const auto occ = solve_occupancy(regions, 1, {reuse_app(1 * GBs, 3 * MB)});
  EXPECT_NEAR(occ[0], 3 * MB, 0.01 * MB);
}

TEST(SolveOccupancy, CapacityConserved) {
  std::vector<WayMask> masks(4, WayMask::full(20));
  const auto regions = decompose_regions(masks, 20, MB);
  std::vector<AppDemand> demand = {
      stream_app(2 * GBs), reuse_app(1 * GBs, 40 * MB),
      reuse_app(0.5 * GBs, 10 * MB), stream_app(1 * GBs)};
  const auto occ = solve_occupancy(regions, 4, demand);
  EXPECT_NEAR(total(occ), 20 * MB, 0.05 * MB);
  for (double o : occ) EXPECT_GE(o, 0.0);
}

TEST(SolveOccupancy, HotSmallSetStaysResidentNextToStorm) {
  // The physics that makes CT-Thwarted workloads exist: an L2-resident
  // victim keeps its working set even next to nine streaming aggressors.
  std::vector<WayMask> masks(10, WayMask::full(20));
  const auto regions = decompose_regions(masks, 20, MB);
  std::vector<AppDemand> demand;
  demand.push_back(reuse_app(0.5 * GBs, 1 * MB));  // hot victim
  for (int i = 0; i < 9; ++i) demand.push_back(stream_app(3 * GBs));
  const auto occ = solve_occupancy(regions, 10, demand);
  EXPECT_GT(occ[0], 0.3 * MB);  // victim retains a useful fraction
}

TEST(SolveOccupancy, HigherRateEarnsMoreCache) {
  std::vector<WayMask> masks(2, WayMask::full(20));
  const auto regions = decompose_regions(masks, 20, MB);
  const auto occ = solve_occupancy(
      regions, 2, {reuse_app(4 * GBs, 100 * MB), reuse_app(1 * GBs, 100 * MB)});
  EXPECT_GT(occ[0], occ[1]);
  EXPECT_NEAR(occ[0] / occ[1], 4.0, 0.2);
}

TEST(SolveOccupancy, IsolatedPartitionUnaffectedByNeighbourStorm) {
  std::vector<WayMask> masks = {WayMask::high(19, 20), WayMask::low(1)};
  const auto regions = decompose_regions(masks, 20, MB);
  const auto occ = solve_occupancy(
      regions, 2, {reuse_app(1 * GBs, 5 * MB), stream_app(50 * GBs)});
  EXPECT_NEAR(occ[0], 5 * MB, 0.05 * MB);  // full footprint, protected
  EXPECT_NEAR(occ[1], 1 * MB, 0.05 * MB);  // storm confined to one way
}

TEST(SolveOccupancy, ZeroDemandGetsZero) {
  std::vector<WayMask> masks(2, WayMask::full(20));
  const auto regions = decompose_regions(masks, 20, MB);
  const auto occ =
      solve_occupancy(regions, 2, {reuse_app(1 * GBs, 50 * MB), AppDemand{}});
  EXPECT_DOUBLE_EQ(occ[1], 0.0);
}

TEST(SolveOccupancy, DemandSizeMismatchThrows) {
  std::vector<WayMask> masks(2, WayMask::full(20));
  const auto regions = decompose_regions(masks, 20, MB);
  EXPECT_THROW(solve_occupancy(regions, 2, {AppDemand{}}),
               std::invalid_argument);
  // A region naming an app the demand does not hold.
  EXPECT_THROW(solve_occupancy(regions, 1, {AppDemand{}}),
               std::invalid_argument);
}

TEST(SolveOccupancy, MultiComponentHotFillsBeforeTail) {
  std::vector<WayMask> masks(2, WayMask::full(4));
  const auto regions = decompose_regions(masks, 4, MB);  // 4 MB total
  AppDemand app;
  app.reuse = {{1 * GBs, 1 * MB},      // hot: covered fast
               {0.05 * GBs, 20 * MB}}; // lukewarm tail
  const auto occ =
      solve_occupancy(regions, 2, {app, stream_app(2 * GBs)});
  // The hot MB should be (nearly) fully covered despite the streamer.
  EXPECT_GT(occ[0], 0.9 * MB);
}

// --- oracle: the bisection evaluating every mid --------------------------
//
// The production solver skips each bisection evaluation whose outcome
// monotonicity already decides. The reference below is the same solve
// evaluating all of them, read straight off the nested demand: the same 48
// mids and the same (rate*frac)*t and min((rate*frac)*t, footprint*frac)
// products summed in the same order, so every occupancy must match it bit
// for bit, NaN payloads included.

std::vector<double> oracle_occ(const std::vector<CacheRegion>& regions,
                               const std::vector<AppDemand>& demand,
                               const OccupancySolverConfig& config = {}) {
  const std::size_t num_apps = demand.size();
  std::vector<double> occ(num_apps, 0.0);
  std::vector<double> avail(num_apps, 0.0);
  for (const auto& r : regions) {
    for (std::size_t a : r.sharers) avail[a] += r.capacity_bytes;
  }
  const double t_max = config.max_characteristic_time_sec;
  for (const auto& r : regions) {
    if (r.sharers.empty() || r.capacity_bytes <= 0.0) continue;
    // `*` is left-associative: stream*f*t groups as (stream*f)*t.
    auto app_at = [&](std::size_t a, double t) {
      const double f = avail[a] > 0.0 ? r.capacity_bytes / avail[a] : 0.0;
      double app_occ = demand[a].stream * f * t;
      for (const auto& [rate, footprint] : demand[a].reuse) {
        app_occ += std::min(rate * f * t, footprint * f);
      }
      return app_occ;
    };
    auto total_at = [&](double t) {
      double sum = 0.0;
      for (std::size_t a : r.sharers) sum += app_at(a, t);
      return sum;
    };
    double t_c = t_max;
    if (!(total_at(t_max) <= r.capacity_bytes)) {
      double lo = 0.0, hi = t_max;
      for (unsigned i = 0; i < config.bisection_steps; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (total_at(mid) < r.capacity_bytes) lo = mid;
        else hi = mid;
      }
      t_c = 0.5 * (lo + hi);
    }
    for (std::size_t a : r.sharers) occ[a] += app_at(a, t_c);
  }
  return occ;
}

std::vector<double> solve_with_scratch(
    const std::vector<CacheRegion>& regions,
    const std::vector<AppDemand>& demand, OccupancyScratch& scratch,
    const OccupancySolverConfig& config = {}) {
  std::vector<double> occ;
  sim::solve_occupancy(regions, flat(demand), config, scratch, occ);
  return occ;
}

// Bit patterns, so -0.0 vs 0.0 and NaN payloads count as differences.
void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& what = "") {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " app " << i << ": " << got[i] << " vs " << want[i];
  }
}

// A fresh scratch and a reused one, whose Newton start is a stale T_c from
// an unrelated region, must both match the oracle.
void expect_matches_oracle(const std::vector<CacheRegion>& regions,
                           const std::vector<AppDemand>& demand,
                           OccupancyScratch& reused, const std::string& what,
                           const OccupancySolverConfig& config = {}) {
  const auto want = oracle_occ(regions, demand, config);
  OccupancyScratch fresh;
  expect_bitwise_equal(solve_with_scratch(regions, demand, fresh, config),
                       want, what + " (fresh scratch)");
  expect_bitwise_equal(solve_with_scratch(regions, demand, reused, config),
                       want, what + " (reused scratch)");
}

constexpr unsigned kWays = 20;
constexpr double kWayBytes = 1.25 * MB;

// Log-uniform in [lo, hi).
double log_uniform(util::Xoshiro256& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

std::vector<AppDemand> random_demand(util::Xoshiro256& rng,
                                     std::size_t sharers) {
  std::vector<AppDemand> demand(sharers);
  for (auto& d : demand) {
    d.stream = rng.bernoulli(0.3) ? 0.0 : log_uniform(rng, 1e3, 2e10);
    d.reuse.resize(rng.below(4));
    for (auto& [rate, footprint] : d.reuse) {
      rate = log_uniform(rng, 1e4, 5e10);
      footprint = log_uniform(rng, 1e3, 2e9);
    }
  }
  return demand;
}

// Shared (every app on every way), CT-split (app 0 on the high k ways, the
// rest on the low 20-k) and random overlapping spans.
std::vector<WayMask> random_layout(util::Xoshiro256& rng, std::size_t apps,
                                   int kind) {
  std::vector<WayMask> masks(apps, WayMask::full(kWays));
  if (kind == 1 && apps > 1) {
    const auto hp = static_cast<unsigned>(1 + rng.below(kWays - 1));
    masks[0] = WayMask::high(hp, kWays);
    for (std::size_t a = 1; a < apps; ++a) masks[a] = WayMask::low(kWays - hp);
  } else if (kind == 2) {
    for (auto& m : masks) {
      const auto first = static_cast<unsigned>(rng.below(kWays));
      const auto count =
          static_cast<unsigned>(1 + rng.below(kWays - first));
      m = WayMask::span(first, count);
    }
  }
  return masks;
}

// `count` regions over `apps` apps, each with a log-uniform capacity and a
// random non-empty ascending sharer set (regions may overlap).
std::vector<CacheRegion> random_regions(util::Xoshiro256& rng,
                                        std::size_t apps, std::size_t count) {
  std::vector<CacheRegion> regions(count);
  for (auto& r : regions) {
    r.capacity_bytes = log_uniform(rng, kWayBytes, kWays * kWayBytes);
    for (std::size_t a = 0; a < apps; ++a) {
      if (rng.bernoulli(0.5)) r.sharers.push_back(a);
    }
    if (r.sharers.empty()) r.sharers.push_back(rng.below(apps));
  }
  return regions;
}

// --- scratch reuse ---------------------------------------------------------

TEST(OccupancyScratchSolver, MatchesAllocatingSolverBitwise) {
  std::vector<WayMask> masks = {WayMask::high(19, 20), WayMask::low(1),
                                WayMask::low(1)};
  const auto regions = decompose_regions(masks, 20, MB);
  OccupancyScratch scratch;
  // A sequence of changing demands through one reused scratch must be
  // byte-identical to fresh allocating solves at every step.
  for (int it = 0; it < 5; ++it) {
    std::vector<AppDemand> demand = {
        reuse_app((1.0 + 0.3 * it) * GBs, 5 * MB),
        stream_app((2.0 + it) * GBs),
        reuse_app(0.5 * GBs, (10.0 + it) * MB)};
    expect_bitwise_equal(solve_with_scratch(regions, demand, scratch),
                         solve_occupancy(regions, 3, demand));
  }
}

TEST(OccupancyScratchSolver, RepeatSolveIsBitwiseEqual) {
  std::vector<WayMask> masks(4, WayMask::full(20));
  const auto regions = decompose_regions(masks, 20, MB);
  const std::vector<AppDemand> demand = {
      stream_app(2 * GBs), reuse_app(1 * GBs, 40 * MB),
      reuse_app(0.5 * GBs, 10 * MB), stream_app(1 * GBs)};
  OccupancyScratch scratch;
  const auto first = solve_with_scratch(regions, demand, scratch);
  // The repeat starts Newton from the first solve's T_c.
  expect_bitwise_equal(solve_with_scratch(regions, demand, scratch), first);
  // A one-ulp nudge of a single rate: the result has to match a fresh
  // solve of the nudged demand, not the previous one.
  auto nudged = demand;
  nudged[1].reuse[0].first = std::nextafter(nudged[1].reuse[0].first, 2e18);
  expect_bitwise_equal(solve_with_scratch(regions, nudged, scratch),
                       solve_occupancy(regions, 4, nudged));
}

// The scratch has no invalidate(): a layout change with the same region
// and app counts but other capacities is picked up on the next call.
TEST(OccupancyScratchSolver, InvalidateTracksLayoutChange) {
  OccupancyScratch scratch;
  const std::vector<AppDemand> demand = {reuse_app(1 * GBs, 30 * MB),
                                         stream_app(5 * GBs)};
  const auto regions_a =
      decompose_regions({WayMask::high(19, 20), WayMask::low(1)}, 20, MB);
  const auto regions_b =
      decompose_regions({WayMask::high(10, 20), WayMask::low(10)}, 20, MB);
  expect_bitwise_equal(solve_with_scratch(regions_a, demand, scratch),
                       solve_occupancy(regions_a, 2, demand), "19/1 split");
  expect_bitwise_equal(solve_with_scratch(regions_b, demand, scratch),
                       solve_occupancy(regions_b, 2, demand), "10/10 split");
}

TEST(OccupancyScratchSolver, ShapeChangeDetectedWithoutInvalidate) {
  // Region-count and app-count changes through one scratch.
  OccupancyScratch scratch;
  const auto regions_one = decompose_regions({WayMask::full(20)}, 20, MB);
  const auto regions_three = decompose_regions(
      {WayMask::high(19, 20), WayMask::low(1), WayMask::low(1)}, 20, MB);
  const std::vector<AppDemand> d1 = {stream_app(1 * GBs)};
  const std::vector<AppDemand> d3 = {reuse_app(1 * GBs, 5 * MB),
                                     stream_app(2 * GBs),
                                     stream_app(3 * GBs)};
  expect_bitwise_equal(solve_with_scratch(regions_one, d1, scratch),
                       solve_occupancy(regions_one, 1, d1), "one region");
  expect_bitwise_equal(solve_with_scratch(regions_three, d3, scratch),
                       solve_occupancy(regions_three, 3, d3), "two regions");
}

// One scratch through layout changes, with nothing telling it the layout
// moved: the capacity split is derived on every call, and the Newton start
// it carries per region index may come from a region with other sharers
// and another capacity. Every call must still equal a fresh solve bit for
// bit.
TEST(OccupancyScratchSolver, LayoutChangesMatchFreshSolveBitwise) {
  OccupancyScratch scratch;
  auto check = [&](const std::vector<CacheRegion>& regions,
                   const std::vector<AppDemand>& demand,
                   const std::string& what) {
    expect_bitwise_equal(solve_with_scratch(regions, demand, scratch),
                         solve_occupancy(regions, demand.size(), demand),
                         what);
  };
  // Random layouts with three regions each; every demand is solved under
  // several layouts in a row, so identical inputs meet a changed layout.
  util::Xoshiro256 rng(31);
  for (int it = 0; it < 200; ++it) {
    const auto apps = static_cast<std::size_t>(1 + rng.below(10));
    const auto demand = random_demand(rng, apps);
    for (int layout = 0; layout < 3; ++layout) {
      check(random_regions(rng, apps, 3), demand,
            "case " + std::to_string(it) + " layout " +
                std::to_string(layout));
    }
  }
}

TEST(OccupancyOracle, RandomDemandsMatchBitwise) {
  util::Xoshiro256 rng(2024);
  OccupancyScratch reused;
  for (int it = 0; it < 600; ++it) {
    const auto sharers = static_cast<std::size_t>(1 + rng.below(10));
    const int kind = it % 3;
    const auto regions = decompose_regions(random_layout(rng, sharers, kind),
                                           kWays, kWayBytes);
    const auto demand = random_demand(rng, sharers);
    expect_matches_oracle(regions, demand, reused,
                          "case " + std::to_string(it));
  }
}

// Step counts past ~52 drive the bisection into adjacent floats, where a
// mid rounds onto lo or hi; a short t_max moves every mid.
TEST(OccupancyOracle, RandomDemandsMatchBitwiseAcrossSolverConfigs) {
  util::Xoshiro256 rng(77);
  OccupancyScratch reused;
  for (const auto& [steps, t_max] :
       {std::pair{1u, 1e3}, std::pair{20u, 1e3}, std::pair{60u, 1e3},
        std::pair{1100u, 1e3}, std::pair{48u, 1e-3}, std::pair{48u, 5e5}}) {
    const OccupancySolverConfig config{steps, t_max};
    for (int it = 0; it < 60; ++it) {
      const auto sharers = static_cast<std::size_t>(1 + rng.below(10));
      const auto regions = decompose_regions(
          random_layout(rng, sharers, it % 3), kWays, kWayBytes);
      const auto demand = random_demand(rng, sharers);
      expect_matches_oracle(regions, demand, reused,
                            "steps " + std::to_string(steps) + " t_max " +
                                std::to_string(t_max) + " case " +
                                std::to_string(it),
                            config);
    }
  }
}

CacheRegion region_of(double capacity, std::size_t sharers) {
  CacheRegion r;
  r.capacity_bytes = capacity;
  for (std::size_t a = 0; a < sharers; ++a) r.sharers.push_back(a);
  return r;
}

TEST(OccupancyOracle, AdversarialCasesMatchBitwise) {
  OccupancyScratch reused;
  const double cap = kWays * kWayBytes;
  const std::vector<CacheRegion> one_region = {region_of(cap, 4)};

  // Zero rates and zero stream: a silent sharer, a zero-rate component
  // and a region that fills on footprints alone (slope 0 past the last
  // breakpoint).
  {
    AppDemand silent;
    AppDemand zero_rate;
    zero_rate.reuse = {{0.0, 8 * MB}, {2 * GBs, 3 * MB}};
    AppDemand footprints;
    footprints.reuse = {{1 * GBs, 15 * MB}, {0.2 * GBs, 9 * MB}};
    AppDemand zero_stream;
    zero_stream.reuse = {{0.7 * GBs, 6 * MB}};
    expect_matches_oracle(one_region,
                          {silent, zero_rate, footprints, zero_stream},
                          reused, "zero rates, zero stream");
    expect_matches_oracle(one_region,
                          {silent, silent, silent, stream_app(3 * GBs)},
                          reused, "one streamer among silent sharers");
  }

  // Equal F/r breakpoints: every component saturates at the same t.
  {
    std::vector<AppDemand> demand(4);
    for (std::size_t a = 0; a < demand.size(); ++a) {
      const double k = static_cast<double>(a + 1);
      demand[a].reuse = {{k * GBs, k * 4 * MB}, {2 * k * GBs, k * 8 * MB}};
    }
    expect_matches_oracle(one_region, demand, reused, "equal breakpoints");
    demand[3].stream = 0.5 * GBs;
    expect_matches_oracle(one_region, demand, reused,
                          "equal breakpoints + stream");
  }

  // A root within an ulp or two of a bisection mid: a lone streamer with
  // capacity / rate on the dyadic point m = t_max * 2^-20, the 20th mid on
  // the way down, nudged across it one ulp at a time.
  {
    const std::vector<CacheRegion> lone = {region_of(cap, 1)};
    const double m = 1e3 * std::ldexp(1.0, -20);
    double rate = cap / m;
    for (int u = 0; u < 4; ++u) rate = std::nextafter(rate, 0.0);
    for (int u = 0; u < 9; ++u, rate = std::nextafter(rate, 1e300)) {
      expect_matches_oracle(lone, {stream_app(rate)}, reused,
                            "root at a mid, ulp " + std::to_string(u));
    }
    // The same point reached by two sharers' sum.
    const std::vector<CacheRegion> pair = {region_of(cap, 2)};
    double half = 0.5 * cap / m;
    for (int u = 0; u < 4; ++u) half = std::nextafter(half, 0.0);
    for (int u = 0; u < 9; ++u, half = std::nextafter(half, 1e300)) {
      expect_matches_oracle(pair, {stream_app(half), stream_app(half)},
                            reused, "pair root at a mid, ulp " +
                                        std::to_string(u));
    }
  }

  // A root near t_max: the region just barely fills inside the bracket.
  {
    const std::vector<CacheRegion> lone = {region_of(cap, 1)};
    double rate = cap / 1e3;
    for (int u = 0; u < 6; ++u, rate = std::nextafter(rate, 1e300)) {
      expect_matches_oracle(lone, {stream_app(rate)}, reused,
                            "root at t_max, ulp " + std::to_string(u));
    }
    AppDemand d;
    d.reuse = {{cap, 0.5 * cap}};
    d.stream = 0.5 * cap / 1e3 * (1.0 + 1e-13);
    expect_matches_oracle(lone, {d}, reused, "saturated + stream at t_max");
  }

  // Ill-conditioned roots: footprints fill all but a sliver of the region
  // and a thin stream decides t_c, so Newton's answer is only good to
  // ~1e-10 relative, wider than the probes around it; and a staircase of
  // breakpoints that Newton crosses one per pass from a start of 0.
  {
    const std::vector<CacheRegion> lone = {region_of(cap, 1)};
    for (const double sliver : {1e-6, 1e-9, 1e-12}) {
      AppDemand d;
      d.reuse = {{40 * GBs, cap * (1.0 - sliver)}};
      d.stream = 1e-2 * sliver * cap;  // t_c = 100 s
      expect_matches_oracle(lone, {d}, reused,
                            "sliver " + std::to_string(sliver));
    }
    AppDemand stairs;
    double footprint = cap;
    for (int c = 0; c < 3; ++c) {
      footprint *= 0.5;
      stairs.reuse.push_back({footprint * std::pow(4.0, c), footprint});
    }
    stairs.stream = 1e-6 * cap;
    std::vector<AppDemand> staircase(4, stairs);
    for (std::size_t a = 0; a < staircase.size(); ++a) {
      for (auto& c : staircase[a].reuse) {
        c.first *= std::pow(16.0, static_cast<double>(a));
        c.second *= 0.25;
      }
    }
    expect_matches_oracle(one_region, staircase, reused, "staircase");
  }

  // Subnormal rates, footprints and capacities.
  {
    const double sub = std::numeric_limits<double>::denorm_min();
    AppDemand tiny;
    tiny.stream = sub;
    tiny.reuse = {{1e-310, 1e-312}, {sub, sub}};
    expect_matches_oracle(one_region,
                          {tiny, stream_app(2 * GBs), tiny,
                           reuse_app(1e-309, 2 * MB)},
                          reused, "subnormals beside a streamer");
    const std::vector<CacheRegion> sub_region = {region_of(1e-320, 2)};
    expect_matches_oracle(sub_region, {tiny, stream_app(1e-310)}, reused,
                          "subnormal region");
  }
}

// Inputs the seeded bracket must not trust (negative or non-finite):
// the solver evaluates every mid, exactly as the oracle does.
TEST(OccupancyOracle, NonMonotoneInputsMatchBitwise) {
  OccupancyScratch reused;
  const double cap = kWays * kWayBytes;
  const std::vector<CacheRegion> region = {region_of(cap, 3)};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double odd : {-1 * GBs, -0.0, inf, -inf, nan}) {
    AppDemand a = reuse_app(1 * GBs, 12 * MB);
    a.stream = odd;
    AppDemand b = reuse_app(odd, 30 * MB);
    AppDemand c = reuse_app(2 * GBs, odd);
    const std::vector<AppDemand> normal = {stream_app(3 * GBs),
                                             reuse_app(1 * GBs, 40 * MB),
                                             stream_app(0.5 * GBs)};
    for (std::size_t slot = 0; slot < 3; ++slot) {
      for (const auto& bad : {a, b, c}) {
        auto demand = normal;
        demand[slot] = bad;
        expect_matches_oracle(region, demand, reused,
                              "odd " + std::to_string(odd) + " slot " +
                                  std::to_string(slot));
      }
    }
  }
  // Rates that cancel: total(t) = fl(3 (1 + 2^-40) t) - fl(3 t), a trend
  // of 3 * 2^-40 under the two products' independent rounding jitter, so
  // in floating point it crosses the capacity back and forth; only
  // evaluating every mid reproduces the oracle's walk.
  {
    AppDemand cancel;
    cancel.stream = 3.0 * (1.0 + 0x1p-40);
    cancel.reuse = {{-3.0, 1e300}};
    for (const double c : {0x1p-40 * 3.0, 0x1p-40 * 4.0, 1e-12}) {
      expect_matches_oracle({region_of(c, 1)}, {cancel}, reused,
                            "cancelling rates, capacity " +
                                std::to_string(c));
    }
  }
  expect_matches_oracle({region_of(inf, 3)},
                        {stream_app(1 * GBs), stream_app(2 * GBs),
                         reuse_app(1 * GBs, 3 * MB)},
                        reused, "infinite capacity");
  expect_matches_oracle({region_of(nan, 3)},
                        {stream_app(1 * GBs), stream_app(2 * GBs),
                         reuse_app(1 * GBs, 3 * MB)},
                        reused, "NaN capacity");
  for (const double t_max : {inf, nan, -1.0, 0.0}) {
    expect_matches_oracle(region,
                          {stream_app(1 * GBs), reuse_app(1 * GBs, 3 * MB),
                           stream_app(2 * GBs)},
                          reused, "t_max " + std::to_string(t_max),
                          OccupancySolverConfig{48, t_max});
  }
}

// The machine's convergence tail: the fixed point re-solves with rates
// that move by geometrically shrinking amounts, down to single ulps, all
// through one scratch whose Newton start is the previous quantum's t_c.
TEST(OccupancyOracle, DriftThroughReusedScratchMatchesBitwise) {
  util::Xoshiro256 rng(9);
  for (const int kind : {0, 1}) {
    const std::size_t sharers = 10;
    const auto regions = decompose_regions(random_layout(rng, sharers, kind),
                                           kWays, kWayBytes);
    auto demand = random_demand(rng, sharers);
    OccupancyScratch scratch;
    double rel = 1e-3;
    for (int q = 0; q < 120; ++q) {
      // Relative nudges shrink 2x per solve; past ~1e-16 they become
      // single-ulp steps up or down.
      for (auto& d : demand) {
        const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        auto nudge = [&](double& x) {
          if (x == 0.0) return;
          const double next = x * (1.0 + sign * rel);
          x = next != x ? next : std::nextafter(x, sign * 1e300);
        };
        nudge(d.stream);
        for (auto& c : d.reuse) nudge(c.first);
      }
      rel *= 0.5;
      const auto want = oracle_occ(regions, demand);
      expect_bitwise_equal(solve_with_scratch(regions, demand, scratch), want,
                           "layout " + std::to_string(kind) + " solve " +
                               std::to_string(q));
    }
  }
}

// Conservation holds across arbitrary mask layouts.
class OccupancyConservation : public ::testing::TestWithParam<int> {};

TEST_P(OccupancyConservation, NeverExceedsEligibleCapacity) {
  const int layout = GetParam();
  std::vector<WayMask> masks;
  switch (layout) {
    case 0: masks = {WayMask::full(20), WayMask::full(20)}; break;
    case 1: masks = {WayMask::high(19, 20), WayMask::low(1)}; break;
    case 2: masks = {WayMask::span(0, 10), WayMask::span(5, 10)}; break;
    default: masks = {WayMask::low(2), WayMask::span(2, 2)}; break;
  }
  const auto regions = decompose_regions(masks, 20, MB);
  double capacity = 0.0;
  for (const auto& r : regions) capacity += r.capacity_bytes;
  const auto occ = solve_occupancy(
      regions, 2, {stream_app(20 * GBs), stream_app(10 * GBs)});
  EXPECT_LE(total(occ), capacity * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Layouts, OccupancyConservation,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace dicer::sim
