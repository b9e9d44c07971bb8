#include "sim/cache/occupancy_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dicer::sim {

namespace {

/// One region's bisection constants: per sharer, stream*frac followed by
/// (rate*frac, footprint*frac) pairs, sharer k's entries ending at end[k].
struct HoistedRegion {
  const double* h;
  const std::size_t* end;
  std::size_t sharers;

  /// Total occupancy the region would hold at characteristic time t. With
  /// every constant finite and >= 0 it is monotone non-decreasing in t even
  /// in floating point: each h*t rounds monotonically, min and + are
  /// monotone.
  double total_at(double t) const {
    double sum = 0.0;
    std::size_t j = 0;
    for (std::size_t k = 0; k < sharers; ++k) {
      double app_occ = h[j++] * t;
      for (; j < end[k]; j += 2) {
        app_occ += std::min(h[j] * t, h[j + 1]);
      }
      sum += app_occ;
    }
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
      double sum = 0.0, slope = 0.0;
      std::size_t j = 0;
      for (std::size_t k = 0; k < sharers; ++k) {
        double app_occ = h[j] * t;
        slope += h[j++];
        for (; j < end[k]; j += 2) {
          const double fill = h[j] * t;
          if (fill < h[j + 1]) {
            app_occ += fill;
            slope += h[j];
          } else {
            app_occ += h[j + 1];
          }
        }
        sum += app_occ;
      }
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
                     const std::vector<CacheDemand>& demand,
                     const OccupancySolverConfig& config,
                     OccupancyScratch& scratch, std::vector<double>& occ) {
  const std::size_t num_apps = demand.size();
  occ.assign(num_apps, 0.0);

  if (!scratch.layout_valid || scratch.avail.size() != num_apps ||
      scratch.regions.size() != regions.size()) {
    // An app eligible for several regions splits its rates proportionally
    // to region capacity; both the per-app totals and the resulting
    // per-region fractions depend only on the layout, so they are computed
    // once per decomposition, not once per solve.
    scratch.avail.assign(num_apps, 0.0);
    for (const auto& r : regions) {
      for (std::size_t a : r.sharers) scratch.avail[a] += r.capacity_bytes;
    }
    scratch.regions.resize(regions.size());
    for (std::size_t ri = 0; ri < regions.size(); ++ri) {
      const auto& r = regions[ri];
      auto& rs = scratch.regions[ri];
      rs.memo_valid = false;
      rs.inputs.clear();
      rs.frac.assign(r.sharers.size(), 0.0);
      for (std::size_t k = 0; k < r.sharers.size(); ++k) {
        const std::size_t a = r.sharers[k];
        rs.frac[k] =
            scratch.avail[a] > 0.0 ? r.capacity_bytes / scratch.avail[a] : 0.0;
      }
    }
    scratch.layout_valid = true;
  }

  for (std::size_t ri = 0; ri < regions.size(); ++ri) {
    const auto& r = regions[ri];
    if (r.sharers.empty() || r.capacity_bytes <= 0.0) continue;
    auto& rs = scratch.regions[ri];

    // Flatten this region's inputs (per sharer: stream rate, then each
    // reuse component) to detect a bit-identical re-solve.
    auto& cur = scratch.flat;
    cur.clear();
    for (std::size_t a : r.sharers) {
      const auto& d = demand[a];
      cur.push_back(d.stream_bytes_per_sec);
      for (const auto& c : d.reuse) {
        cur.push_back(c.rate_bytes_per_sec);
        cur.push_back(c.footprint_bytes);
      }
    }

    if (rs.memo_valid && rs.inputs == cur) {
      // Warm start: identical inputs reach the identical fixed point, so
      // the stored solution is reused verbatim and the bisection skipped.
      for (std::size_t k = 0; k < r.sharers.size(); ++k) {
        occ[r.sharers[k]] += rs.contrib[k];
      }
      continue;
    }
    rs.memo_valid = false;
    rs.inputs = cur;
    const std::size_t num_sharers = r.sharers.size();
    // Total occupancy the region would hold at characteristic time t,
    // reading straight from the nested demand vectors. `*` is
    // left-associative, so stream*frac*t groups as (stream*frac)*t —
    // bit-identical to the hoisted form used by the bisection below.
    auto total_at_inline = [&](double t) {
      double sum = 0.0;
      for (std::size_t k = 0; k < num_sharers; ++k) {
        const auto& d = demand[r.sharers[k]];
        const double f = rs.frac[k];
        double app_occ = d.stream_bytes_per_sec * f * t;
        for (const auto& c : d.reuse) {
          app_occ +=
              std::min(c.rate_bytes_per_sec * f * t, c.footprint_bytes * f);
        }
        sum += app_occ;
      }
      return sum;
    };
    double t_c;
    const double t_max = config.max_characteristic_time_sec;
    if (total_at_inline(t_max) <= r.capacity_bytes) {
      // The region never fills: every sharer keeps its full (scaled)
      // footprint plus its entire streaming window. One evaluation, no
      // bisection — and no point paying for the hoisted arrays below.
      t_c = t_max;
    } else {
      // Hoist the frac products out of the t-sweep so each evaluation
      // walks one flat array instead of re-deriving rate*frac /
      // footprint*frac from the nested demand vectors. The raw inputs are
      // already saved in rs.inputs, so the flattening buffer is scaled in
      // place — no extra allocation. Same operand pairs, same rounding,
      // same summation order as the inline evaluation — byte-identical t_c
      // and contributions.
      auto& h = cur;
      auto& he = scratch.flat_end;
      std::size_t s = 0;
      for (std::size_t k = 0; k < num_sharers; ++k) {
        const double f = rs.frac[k];
        h[s++] *= f;
        const std::size_t comps = demand[r.sharers[k]].reuse.size();
        for (std::size_t c = 0; c < comps; ++c) {
          h[s++] *= f;
          h[s++] *= f;
        }
        he[k] = s;
      }
      const HoistedRegion region{h.data(), he.data(), num_sharers};
      const double cap = r.capacity_bytes;

      // The bisection below fixes t_c bit for bit; an evaluation whose
      // outcome is already known is skipped, never the step itself. With
      // finite non-negative constants total_at is monotone, so total < cap
      // at lo_known decides every mid <= lo_known, and total >= cap at
      // hi_known every mid >= hi_known. Newton's method lands a few ulps
      // from the root, and two probes around it seed that bracket; most
      // mids then fall outside it. Any other input keeps both ends NaN:
      // every mid is evaluated, except a repeat of a point already
      // evaluated (a mid equal to lo or hi), whose outcome is its own.
      constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
      double lo_known = kNaN, hi_known = kNaN;
      bool monotone = std::isfinite(cap) && std::isfinite(t_max);
      for (std::size_t j = 0; j < s; ++j) {
        monotone = monotone && h[j] >= 0.0 && std::isfinite(h[j]);
      }
      if (monotone) {
        const double start = rs.t_c > 0.0 && rs.t_c <= t_max ? rs.t_c : 0.0;
        const double t = region.newton_root(start, cap, t_max);
        for (const double probe : {t * (1.0 - 1e-12), t * (1.0 + 1e-12)}) {
          if (region.total_at(probe) < cap) lo_known = probe;
          else if (!(probe >= hi_known)) hi_known = probe;
        }
      }
      double lo = 0.0, hi = t_max;
      for (unsigned i = 0; i < config.bisection_steps; ++i) {
        const double mid = 0.5 * (lo + hi);
        bool below;
        if (mid <= lo_known) {
          below = true;
        } else if (mid >= hi_known) {
          below = false;
        } else {
          below = region.total_at(mid) < cap;
          (below ? lo_known : hi_known) = mid;
        }
        if (below) lo = mid;
        else hi = mid;
      }
      t_c = 0.5 * (lo + hi);
    }
    rs.t_c = t_c;
    rs.memo_valid = true;

    rs.contrib.resize(num_sharers);
    for (std::size_t k = 0; k < num_sharers; ++k) {
      const auto& d = demand[r.sharers[k]];
      const double f = rs.frac[k];
      double app_occ = d.stream_bytes_per_sec * f * t_c;
      for (const auto& c : d.reuse) {
        app_occ +=
            std::min(c.rate_bytes_per_sec * f * t_c, c.footprint_bytes * f);
      }
      rs.contrib[k] = app_occ;
      occ[r.sharers[k]] += app_occ;
    }
  }
}

std::vector<double> solve_occupancy(const std::vector<CacheRegion>& regions,
                                    std::size_t num_apps,
                                    const std::vector<CacheDemand>& demand,
                                    const OccupancySolverConfig& config) {
  if (demand.size() != num_apps) {
    throw std::invalid_argument("solve_occupancy: demand size mismatch");
  }
  OccupancyScratch scratch;
  std::vector<double> occ;
  solve_occupancy(regions, demand, config, scratch, occ);
  return occ;
}

}  // namespace dicer::sim
