// Analytic shared-cache occupancy model (Che's approximation).
//
// Within a set of ways that several applications may fill (a "region"),
// steady-state LRU occupancy is well described by the characteristic-time
// approximation [Che et al.]: a cache line survives iff it is re-referenced
// within the cache's characteristic time T_c, so application i occupies the
// unique bytes it touches within T_c:
//
//     occ_i(T) = min(reuse_rate_i * T, footprint_i) + stream_rate_i * T
//
// where reuse_rate is the touch rate of its re-used data (capped by its
// working-set footprint — a hot 1 MB set never holds more than 1 MB, and
// conversely is fully resident once T_c covers it, which is why an
// L2-resident app keeps its data even next to nine miss-storming
// neighbours), and stream_rate is compulsory/streaming traffic whose
// lines are unique forever. T_c solves sum_i occ_i(T_c) = capacity and is
// found by bisection (occ_i is monotonically non-decreasing in T). The
// bisection's mids, and so T_c's every bit, are fixed by the step count;
// a Newton-seeded bracket only skips evaluations whose outcome
// monotonicity already decides, nearly all 48 in practice.
//
// This reproduces the paper's UM observations (milc left unmanaged "gains
// control of around 26% of the LLC" against nine gcc BEs) and the crucial
// classification physics: isolating a small-footprint HP with CAT buys it
// nothing (CT-Thwarted), while isolating a cache-hungry HP against
// cache-aggressive BEs buys a lot (CT-Favoured).
//
// CAT masks generalise the model: ways are decomposed into maximal regions
// whose eligible-sharer sets are identical (an isolated partition is a
// region with one sharer), each region solves its own T_c, and an app
// eligible for several regions splits its rates across them in proportion
// to region capacity.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/cache/way_mask.hpp"

namespace dicer::sim {

/// Per-application cache demand for one solver call, every app in one flat
/// array. App a's entries are values()[begin(a), end(a)): its
/// compulsory/streaming fill rate (bytes/s), then one (touch rate in
/// bytes/s, footprint in bytes) pair per re-used working set. Splitting an
/// app's reuse into components matters because coverage is
/// rate-proportional — a hot 1 MB set touched constantly is fully resident
/// long before a lukewarm 20 MB tail gets anywhere, so the tail cannot
/// dilute the hot set's stickiness. clear() keeps the capacity, so a
/// caller that refills it every round allocates nothing in steady state.
class OccupancyDemand {
 public:
  void clear() noexcept {
    values_.clear();
    end_.clear();
  }
  /// Append an app with no reuse components yet.
  void add_app(double stream_bytes_per_sec) {
    values_.push_back(stream_bytes_per_sec);
    end_.push_back(values_.size());
  }
  /// Append a re-used working set to the app added last.
  void add_reuse(double rate_bytes_per_sec, double footprint_bytes) {
    if (end_.empty()) {
      throw std::logic_error("OccupancyDemand::add_reuse: no app added");
    }
    values_.push_back(rate_bytes_per_sec);
    values_.push_back(footprint_bytes);
    end_.back() = values_.size();
  }

  std::size_t num_apps() const noexcept { return end_.size(); }
  std::size_t begin(std::size_t app) const noexcept {
    return app == 0 ? 0 : end_[app - 1];
  }
  std::size_t end(std::size_t app) const noexcept { return end_[app]; }
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
  std::vector<std::size_t> end_;  ///< per app, one past its last entry
};

/// A contiguous-capacity region of the LLC and the apps eligible to fill it.
struct CacheRegion {
  double capacity_bytes = 0.0;
  std::vector<std::size_t> sharers;  ///< app indices, ascending
};

/// Decompose per-app way masks into maximal regions with identical sharer
/// sets. Ways eligible to no app are dropped (their capacity is unused).
std::vector<CacheRegion> decompose_regions(const std::vector<WayMask>& masks,
                                           unsigned total_ways,
                                           double way_bytes);

struct OccupancySolverConfig {
  unsigned bisection_steps = 48;
  /// Upper bound on the characteristic time (seconds). Past this the cache
  /// is considered not filling (all footprints resident, spare unused).
  double max_characteristic_time_sec = 1e3;
};

/// Reusable buffers for solve_occupancy, plus each region's last T_c as
/// the next call's Newton start. Owned by the caller, one per solver
/// stream (e.g. one per sim::Machine). The result is a pure function of
/// (regions, demand, config): the start only decides how many bisection
/// mids need evaluating, never where they fall, so any layout and any
/// demand may follow any other through one scratch.
struct OccupancyScratch {
  std::vector<double> avail;  ///< per-app total eligible capacity
  /// One region's demand with every entry scaled by its sharer's capacity
  /// fraction, laid out like OccupancyDemand; sharer k's entries end at
  /// scaled_end[k].
  std::vector<double> scaled;
  std::vector<std::size_t> scaled_end;
  std::vector<double> t_c;  ///< per region, the last solve's T_c
};

/// Solve the characteristic-time fixed point. Returns per-app effective
/// cache bytes; an app sharing no region gets 0. Throws
/// std::invalid_argument when demand does not hold `num_apps` apps or a
/// region names a sharer outside them.
std::vector<double> solve_occupancy(const std::vector<CacheRegion>& regions,
                                    std::size_t num_apps,
                                    const OccupancyDemand& demand,
                                    const OccupancySolverConfig& config = {});

/// Allocation-free variant: byte-identical results, but reuses `scratch`
/// and writes into `occ`, resized to demand.num_apps(). Every sharer index
/// must be below demand.num_apps(). The steady-state path performs no heap
/// allocation.
void solve_occupancy(const std::vector<CacheRegion>& regions,
                     const OccupancyDemand& demand,
                     const OccupancySolverConfig& config,
                     OccupancyScratch& scratch, std::vector<double>& occ);

}  // namespace dicer::sim
