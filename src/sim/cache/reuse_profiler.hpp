// Single-pass reuse-distance MRC profiling.
//
// `profile_mrc` turns an address stream into an empirical per-way MRC in
// ONE pass:
//
//  * `ReuseProfiler` — a set-aware Mattson stack profiler. Every cache set
//    keeps its blocks in LRU order; an access at per-set stack distance d
//    hits a w-way partition iff d < w (the LRU inclusion property, applied
//    per set exactly as `SetAssocCache` evicts). One pass therefore yields
//    the miss count of *every* way count simultaneously. Distances saturate
//    at the associativity (deeper is a miss at every way count), so the
//    stack walk is O(min(d, ways)).
//
//  * SHARDS-style spatial hash sampling over SETS: a set is profiled iff
//    hash(set) < rate·2^64 (plus the minimum-hash set, so any rate measures
//    something), so the sample is chosen spatially, never by behaviour.
//    The standard sampled-count correction (SHARDS-adj) shifts the
//    difference between expected and actual sampled references into the
//    distance-0 bucket. At rate 1 every set is profiled, the correction is
//    exactly zero and the curve is byte-identical to replaying the stream
//    once per way count through `SetAssocCache`.
//
// `profile_mrc` times itself into trace::TimerRegistry::global()
// ("mrc.profile") and tallies a "profiler.*" counter group (accesses,
// sampled accesses, distinct blocks, sample rate) surfaced by the bench
// harness under --profile.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cache/address_stream.hpp"
#include "sim/cache/mrc.hpp"
#include "sim/cache/set_assoc_cache.hpp"

namespace dicer::sim {

struct ReuseProfilerStats {
  std::uint64_t accesses = 0;        ///< stream accesses consumed in total
  std::uint64_t measured = 0;        ///< accesses inside the measure window
  std::uint64_t sampled = 0;         ///< measured accesses in sampled sets
  std::uint64_t distinct_blocks = 0; ///< tracked blocks (stack entries) at the end
  std::uint64_t sets = 0;            ///< total sets of the geometry
  std::uint64_t sampled_sets = 0;    ///< sets in the sample
  double sample_rate = 1.0;          ///< sampled_sets / sets
  double correction = 0.0;           ///< count correction applied to bucket 0
};

/// Set-aware single-pass reuse-distance profiler (see file comment).
class ReuseProfiler {
 public:
  /// Throws std::invalid_argument for geometry `SetAssocCache` rejects,
  /// and for a sampling rate outside (0, 1].
  explicit ReuseProfiler(const CacheGeometry& geometry,
                         double sampling_rate = 1.0);

  /// Feed one byte address.
  void access(std::uint64_t address);

  /// End the warmup window: accesses so far only warmed the stacks; from
  /// now on distances are recorded.
  void begin_measurement() noexcept { measuring_ = true; }

  /// Empirical MRC with one point per way count 1..geometry.ways.
  EmpiricalMrc mrc() const;

  /// Sampled-count-corrected distance histogram: bucket d < ways holds
  /// measured accesses at per-set stack distance d; bucket [ways] holds
  /// deeper-or-cold accesses (a miss at every way count).
  std::vector<double> histogram() const;

  ReuseProfilerStats stats() const;

 private:
  static constexpr std::int32_t kUnsampled = -1;  ///< set outside the sample

  std::uint64_t sampled_accesses() const;
  double sample_rate() const;

  CacheGeometry geom_;
  std::uint64_t set_mask_ = 0;
  unsigned line_shift_ = 0;
  unsigned ways_ = 0;
  bool measuring_ = false;

  std::uint64_t accesses_ = 0;
  std::uint64_t measured_ = 0;
  std::uint64_t tracked_blocks_ = 0;
  std::uint64_t sampled_sets_ = 0;

  std::vector<std::int32_t> set_slot_;  ///< per set: stack slot or kUnsampled
  std::vector<std::uint64_t> stack_;    ///< slot-major, `ways_` blocks each
  std::vector<std::uint8_t> depth_;     ///< per slot
  std::vector<std::uint64_t> hist_;     ///< ways_+1 distance buckets
};

struct MrcProfilerConfig {
  CacheGeometry geometry{};
  std::uint64_t warmup_accesses = 200'000;   ///< discarded (state only)
  std::uint64_t measure_accesses = 400'000;  ///< counted
  /// Fraction of sets profiled, in (0, 1]; 1 profiles every set.
  double sampling_rate = 1.0;
};

/// Profile `stream` (warmup, then measure window) into an empirical MRC
/// with one point per way count 1..geometry.ways.
EmpiricalMrc profile_mrc(const MrcProfilerConfig& config,
                         AddressStream& stream);

}  // namespace dicer::sim
