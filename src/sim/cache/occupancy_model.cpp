#include "sim/cache/occupancy_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dicer::sim {

namespace {

/// One region's demand scaled by each sharer's capacity fraction: sharer
/// k's entries end at end[k] and hold its stream rate, then (rate,
/// footprint) pairs. sharer_at is the solve's one occupancy evaluator: the
/// never-fills test, Newton's passes and probes, the bisection and the
/// per-sharer result all read the same products in the same order.
struct ScaledRegion {
  const double* h;
  const std::size_t* end;
  std::size_t sharers;

  /// Occupancy sharer k holds at characteristic time t. When `slope` is
  /// given, the sharer's d(occupancy)/dt at t is added to it too.
  double sharer_at(std::size_t k, double t, double* slope = nullptr) const {
    std::size_t j = k == 0 ? 0 : end[k - 1];
    double occ = h[j] * t;
    if (slope) *slope += h[j];
    for (++j; j < end[k]; j += 2) {
      const double fill = h[j] * t;
      occ += std::min(fill, h[j + 1]);
      if (slope && fill < h[j + 1]) *slope += h[j];
    }
    return occ;
  }

  /// Total occupancy the region would hold at characteristic time t. With
  /// every constant finite and >= 0 it is monotone non-decreasing in t even
  /// in floating point: each h*t rounds monotonically, min and + are
  /// monotone.
  double total_at(double t, double* slope = nullptr) const {
    double sum = 0.0;
    for (std::size_t k = 0; k < sharers; ++k) sum += sharer_at(k, t, slope);
    return sum;
  }

  /// Newton's method on total_at(t) = cap from `t`. The sum is concave and
  /// piecewise linear, so every tangent root lies at or below the root: a
  /// pass either lands on the root's segment (the next pass then moves a
  /// few ulps) or crosses a breakpoint. It only seeds the bisection's
  /// known bracket, so an unconverged answer costs evaluations, not bits.
  double newton_root(double t, double cap, double t_max) const {
    constexpr unsigned kMaxPasses = 8;
    for (unsigned pass = 0; pass < kMaxPasses; ++pass) {
      double slope = 0.0;
      const double sum = total_at(t, &slope);
      if (!(slope > 0.0)) {
        // Flat: every component saturated and no stream, so the root lies
        // below t. The slope at 0 is positive whenever the region fills.
        if (t == 0.0) break;
        t = 0.0;
        continue;
      }
      const double step = (cap - sum) / slope;
      const bool converged = !(std::abs(step) > 1e-13 * t);
      t = std::clamp(t + step, 0.0, t_max);
      if (converged) break;
    }
    return t;
  }

  /// T_c of a region that fills before t_max: `steps` halvings of
  /// [0, t_max], so the mids, and with them every bit of T_c, are fixed by
  /// the step count alone. An evaluation whose outcome is already known is
  /// skipped, never the step itself. With finite non-negative constants
  /// total_at is monotone, so total < cap at lo_known decides every
  /// mid <= lo_known, and total >= cap at hi_known every mid >= hi_known.
  /// Newton's method from `start` lands a few ulps from the root, and two
  /// probes around it seed that bracket; most mids then fall outside it.
  /// Any other input keeps both ends NaN: every mid is evaluated, except a
  /// repeat of a point already evaluated (a mid equal to lo or hi), whose
  /// outcome is its own.
  double bisect(double cap, double t_max, double start, unsigned steps) const {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    double lo_known = kNaN, hi_known = kNaN;
    bool monotone = std::isfinite(cap) && std::isfinite(t_max);
    for (std::size_t j = 0; j < end[sharers - 1]; ++j) {
      monotone = monotone && h[j] >= 0.0 && std::isfinite(h[j]);
    }
    if (monotone) {
      const double t =
          newton_root(start > 0.0 && start <= t_max ? start : 0.0, cap, t_max);
      for (const double probe : {t * (1.0 - 1e-12), t * (1.0 + 1e-12)}) {
        if (total_at(probe) < cap) lo_known = probe;
        else if (!(probe >= hi_known)) hi_known = probe;
      }
    }
    double lo = 0.0, hi = t_max;
    for (unsigned i = 0; i < steps; ++i) {
      const double mid = 0.5 * (lo + hi);
      bool below;
      if (mid <= lo_known) {
        below = true;
      } else if (mid >= hi_known) {
        below = false;
      } else {
        below = total_at(mid) < cap;
        (below ? lo_known : hi_known) = mid;
      }
      if (below) lo = mid;
      else hi = mid;
    }
    return 0.5 * (lo + hi);
  }
};

}  // namespace

std::vector<CacheRegion> decompose_regions(const std::vector<WayMask>& masks,
                                           unsigned total_ways,
                                           double way_bytes) {
  // Group ways by the exact set of apps eligible to fill them. Encode the
  // sharer set as a bitmask over apps (supports up to 64 apps; the machine
  // has at most 10 cores). Regions come back ordered by ascending sharer
  // set — callers (and the sweep's determinism invariant) rely on that.
  if (masks.size() > 64) {
    throw std::invalid_argument("decompose_regions: more than 64 apps");
  }
  if (total_ways > kMaxWays) {
    throw std::invalid_argument("decompose_regions: more ways than kMaxWays");
  }
  std::array<std::uint64_t, kMaxWays> sharers_of_way{};
  for (std::size_t a = 0; a < masks.size(); ++a) {
    std::uint32_t bits = masks[a].bits();
    while (bits != 0) {
      const unsigned w = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      if (w < total_ways) sharers_of_way[w] |= (1ull << a);
    }
  }

  // Sort the per-way sharer sets; each run of equal values is one region.
  std::array<std::uint64_t, kMaxWays> sets;
  unsigned n = 0;
  for (unsigned w = 0; w < total_ways; ++w) {
    if (sharers_of_way[w] != 0) sets[n++] = sharers_of_way[w];
  }
  std::sort(sets.begin(), sets.begin() + n);

  std::vector<CacheRegion> regions;
  for (unsigned i = 0; i < n;) {
    unsigned j = i;
    while (j < n && sets[j] == sets[i]) ++j;
    CacheRegion r;
    r.capacity_bytes = way_bytes * (j - i);
    for (std::size_t a = 0; a < masks.size(); ++a) {
      if (sets[i] & (1ull << a)) r.sharers.push_back(a);
    }
    regions.push_back(std::move(r));
    i = j;
  }
  return regions;
}

void solve_occupancy(const std::vector<CacheRegion>& regions,
                     const OccupancyDemand& demand,
                     const OccupancySolverConfig& config,
                     OccupancyScratch& scratch, std::vector<double>& occ) {
  const std::size_t num_apps = demand.num_apps();
  const std::vector<double>& values = demand.values();
  occ.assign(num_apps, 0.0);

  // An app eligible for several regions splits its rates across them in
  // proportion to region capacity.
  scratch.avail.assign(num_apps, 0.0);
  for (const auto& r : regions) {
    for (std::size_t a : r.sharers) scratch.avail[a] += r.capacity_bytes;
  }
  scratch.t_c.resize(regions.size(), 0.0);
  const double t_max = config.max_characteristic_time_sec;

  for (std::size_t ri = 0; ri < regions.size(); ++ri) {
    const auto& r = regions[ri];
    if (r.sharers.empty() || r.capacity_bytes <= 0.0) continue;
    const std::size_t num_sharers = r.sharers.size();
    auto& h = scratch.scaled;
    auto& he = scratch.scaled_end;
    h.clear();
    he.resize(num_sharers);
    for (std::size_t k = 0; k < num_sharers; ++k) {
      const std::size_t a = r.sharers[k];
      const double f =
          scratch.avail[a] > 0.0 ? r.capacity_bytes / scratch.avail[a] : 0.0;
      for (std::size_t j = demand.begin(a); j < demand.end(a); ++j) {
        h.push_back(values[j] * f);
      }
      he[k] = h.size();
    }
    const ScaledRegion region{h.data(), he.data(), num_sharers};

    // A region that never fills keeps every sharer's full (scaled)
    // footprint plus its entire streaming window: T_c = t_max.
    double t_c = t_max;
    if (!(region.total_at(t_max) <= r.capacity_bytes)) {
      t_c = region.bisect(r.capacity_bytes, t_max, scratch.t_c[ri],
                          config.bisection_steps);
    }
    scratch.t_c[ri] = t_c;
    for (std::size_t k = 0; k < num_sharers; ++k) {
      occ[r.sharers[k]] += region.sharer_at(k, t_c);
    }
  }
}

std::vector<double> solve_occupancy(const std::vector<CacheRegion>& regions,
                                    std::size_t num_apps,
                                    const OccupancyDemand& demand,
                                    const OccupancySolverConfig& config) {
  if (demand.num_apps() != num_apps) {
    throw std::invalid_argument("solve_occupancy: demand size mismatch");
  }
  for (const auto& r : regions) {
    for (std::size_t a : r.sharers) {
      if (a >= num_apps) {
        throw std::invalid_argument("solve_occupancy: sharer out of range");
      }
    }
  }
  OccupancyScratch scratch;
  std::vector<double> occ;
  solve_occupancy(regions, demand, config, scratch, occ);
  return occ;
}

}  // namespace dicer::sim
