// Test oracle for the MRC profiler: the brute-force per-way replay. For
// every way count w it replays a fresh, identically-seeded stream through
// the trace-driven `SetAssocCache` restricted to the w lowest ways —
// warmup, reset, measure — and reads the miss ratio. `profile_mrc` at
// sampling rate 1 must reproduce this curve bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/cache/address_stream.hpp"
#include "sim/cache/mrc.hpp"
#include "sim/cache/reuse_profiler.hpp"
#include "sim/cache/set_assoc_cache.hpp"
#include "sim/cache/way_mask.hpp"

namespace dicer::sim {

using StreamFactory = std::function<std::unique_ptr<AddressStream>()>;

/// One point per way count 1..geometry.ways; `config.sampling_rate` is
/// ignored (the oracle replays every set).
inline EmpiricalMrc exact_replay_mrc(const MrcProfilerConfig& config,
                                     const StreamFactory& make_stream) {
  std::vector<std::pair<double, double>> points;
  for (unsigned ways = 1; ways <= config.geometry.ways; ++ways) {
    SetAssocCache cache(config.geometry, /*num_owners=*/1);
    const WayMask mask = WayMask::low(ways);
    auto stream = make_stream();
    for (std::uint64_t i = 0; i < config.warmup_accesses; ++i) {
      cache.access(stream->next(), 0, mask);
    }
    cache.reset_stats();
    for (std::uint64_t i = 0; i < config.measure_accesses; ++i) {
      cache.access(stream->next(), 0, mask);
    }
    points.emplace_back(
        static_cast<double>(config.geometry.way_bytes()) * ways,
        cache.stats(0).miss_ratio());
  }
  return EmpiricalMrc(std::move(points));
}

}  // namespace dicer::sim
