// Synthetic address streams for exercising the trace-driven cache.
//
// The reproduction uses the analytic MRC model for whole-figure experiments;
// these streams exist to *validate* that model: a working-set stream of W
// bytes should show the same knee at W that the hill-curve MRC encodes, and
// a streaming pattern should miss regardless of allocation. They also feed
// the MRC profiler (reuse_profiler.hpp).
#pragma once

#include <cstdint>
#include <memory>

#include "util/rng.hpp"

namespace dicer::sim {

/// Interface: an infinite stream of byte addresses.
class AddressStream {
 public:
  virtual ~AddressStream() = default;
  virtual std::uint64_t next() = 0;
};

/// Uniform random accesses over a fixed working set — the classic model for
/// an app whose reuse fits in `ws_bytes`.
class WorkingSetStream final : public AddressStream {
 public:
  WorkingSetStream(std::uint64_t ws_bytes, std::uint64_t base,
                   util::Xoshiro256 rng);
  std::uint64_t next() override;

 private:
  std::uint64_t ws_bytes_;
  std::uint64_t base_;
  util::Xoshiro256 rng_;
};

/// Sequential scan over a region far larger than any LLC: every access to a
/// new line misses (streaming / no temporal reuse).
class StreamingStream final : public AddressStream {
 public:
  StreamingStream(std::uint64_t region_bytes, std::uint64_t stride,
                  std::uint64_t base);
  std::uint64_t next() override;

 private:
  std::uint64_t region_bytes_;
  std::uint64_t stride_;
  std::uint64_t base_;
  std::uint64_t pos_ = 0;
};

/// Two working sets touched with complementary probabilities — produces a
/// double-knee MRC.
class BimodalStream final : public AddressStream {
 public:
  BimodalStream(std::uint64_t hot_bytes, std::uint64_t cold_bytes,
                double hot_fraction, std::uint64_t base,
                util::Xoshiro256 rng);
  std::uint64_t next() override;

 private:
  WorkingSetStream hot_;
  WorkingSetStream cold_;
  double hot_fraction_;
  util::Xoshiro256 rng_;
};

/// Mixes a working-set component with a streaming component, the generic
/// shape for SPEC-like apps (some reuse + some traffic that never fits).
class MixedStream final : public AddressStream {
 public:
  MixedStream(std::uint64_t ws_bytes, double reuse_fraction,
              std::uint64_t base, util::Xoshiro256 rng);
  std::uint64_t next() override;

 private:
  WorkingSetStream reuse_;
  StreamingStream stream_;
  double reuse_fraction_;
  util::Xoshiro256 rng_;
};

}  // namespace dicer::sim
