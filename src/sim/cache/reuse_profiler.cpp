#include "sim/cache/reuse_profiler.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/timer.hpp"

namespace dicer::sim {

namespace {

constexpr double kTwoPow64 = 18446744073709551616.0;

/// Seed of the spatial set hash: same seed -> same sample.
constexpr std::uint64_t kSampleSeed = 0x5348415244ULL;

/// SplitMix64 finalizer: the spatial hash behind SHARDS sampling. The
/// sample is a pure function of the set id — never of access order —
/// which is what makes hash sampling unbiased for reuse.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t set_hash(std::uint64_t set) {
  return mix64(kSampleSeed ^ mix64(set));
}

std::uint64_t rate_threshold(double rate) {
  const double scaled = rate * kTwoPow64;
  return scaled >= kTwoPow64 - 1.0 ? ~0ull
                                   : static_cast<std::uint64_t>(scaled);
}

}  // namespace

ReuseProfiler::ReuseProfiler(const CacheGeometry& geometry,
                             double sampling_rate)
    : geom_(geometry) {
  if (geom_.ways == 0 || geom_.ways > kMaxWays) {
    throw std::invalid_argument("ReuseProfiler: unsupported way count");
  }
  if (geom_.line_bytes == 0 || !std::has_single_bit(geom_.line_bytes)) {
    throw std::invalid_argument("ReuseProfiler: line size must be 2^k > 0");
  }
  const std::uint64_t sets = geom_.num_sets();
  if (sets == 0 || !std::has_single_bit(sets)) {
    throw std::invalid_argument(
        "ReuseProfiler: set count must be a power of two > 0");
  }
  if (!(sampling_rate > 0.0 && sampling_rate <= 1.0)) {
    throw std::invalid_argument(
        "ReuseProfiler: sampling rate must be in (0, 1]");
  }
  set_mask_ = sets - 1;
  line_shift_ = static_cast<unsigned>(std::countr_zero(geom_.line_bytes));
  ways_ = geom_.ways;

  // Each sampled set gets a stack slot up front. At rate 1 that is every
  // set; below it, the sets hashing under the rate threshold, or — however
  // small the rate — at least the set with the smallest hash.
  const std::uint64_t threshold = rate_threshold(sampling_rate);
  set_slot_.assign(sets, kUnsampled);
  std::uint64_t min_hash = ~0ull;
  std::uint64_t argmin = 0;
  for (std::uint64_t s = 0; s < sets; ++s) {
    const std::uint64_t h = set_hash(s);
    if (sampling_rate >= 1.0 || h < threshold) {
      set_slot_[s] = static_cast<std::int32_t>(sampled_sets_++);
    }
    if (h < min_hash) {
      min_hash = h;
      argmin = s;
    }
  }
  if (sampled_sets_ == 0) set_slot_[argmin] = static_cast<std::int32_t>(sampled_sets_++);
  stack_.assign(sampled_sets_ * ways_, 0);
  depth_.assign(sampled_sets_, 0);
  hist_.assign(ways_ + 1, 0);
}

void ReuseProfiler::access(std::uint64_t address) {
  ++accesses_;
  if (measuring_) ++measured_;
  const std::uint64_t block = address >> line_shift_;
  const std::int32_t slot = set_slot_[block & set_mask_];
  if (slot == kUnsampled) return;
  std::uint64_t* st = stack_.data() + static_cast<std::size_t>(slot) * ways_;
  std::uint8_t& depth = depth_[static_cast<std::size_t>(slot)];
  unsigned d = 0;
  while (d < depth && st[d] != block) ++d;
  // A hit at per-set stack distance d hits every partition of > d ways; a
  // cold block (or one fallen off the ways_-deep stack) misses at every
  // way count.
  if (measuring_) ++hist_[d < depth ? d : ways_];
  if (d == depth) {
    if (depth < ways_) {
      ++depth;
      ++tracked_blocks_;
    }
    d = depth - 1u;  // a full stack drops its LRU block
  }
  for (unsigned i = d; i > 0; --i) st[i] = st[i - 1];
  st[0] = block;
}

std::uint64_t ReuseProfiler::sampled_accesses() const {
  return std::accumulate(hist_.begin(), hist_.end(), std::uint64_t{0});
}

double ReuseProfiler::sample_rate() const {
  return static_cast<double>(sampled_sets_) /
         static_cast<double>(set_mask_ + 1);
}

std::vector<double> ReuseProfiler::histogram() const {
  std::vector<double> out(hist_.begin(), hist_.end());
  // SHARDS-adj: the shortfall between the expected and the actual sampled
  // references counts as distance-0 hits. At rate 1 it is exactly zero.
  const double expected = static_cast<double>(measured_) * sample_rate();
  const double diff = expected - static_cast<double>(sampled_accesses());
  out[0] = std::max(out[0] + diff, 0.0);
  return out;
}

EmpiricalMrc ReuseProfiler::mrc() const {
  // At rate 1 every bucket is an integer count below 2^53 and they sum to
  // `measured_`, so each ratio is the same single misses/accesses division
  // the exact replay makes, bit for bit.
  const std::vector<double> hist = histogram();
  double total = 0.0;
  for (double h : hist) total += h;
  std::vector<std::pair<double, double>> points;
  points.reserve(ways_);
  const double way_bytes = static_cast<double>(geom_.way_bytes());
  double hits = 0.0;
  for (unsigned w = 1; w <= ways_; ++w) {
    hits += hist[w - 1];
    const double ratio =
        total > 0.0 ? std::clamp((total - hits) / total, 0.0, 1.0) : 0.0;
    points.emplace_back(way_bytes * w, ratio);
  }
  return EmpiricalMrc(std::move(points));
}

ReuseProfilerStats ReuseProfiler::stats() const {
  ReuseProfilerStats st;
  st.accesses = accesses_;
  st.measured = measured_;
  st.sampled = sampled_accesses();
  st.distinct_blocks = tracked_blocks_;
  st.sets = set_mask_ + 1;
  st.sampled_sets = sampled_sets_;
  st.sample_rate = sample_rate();
  st.correction = histogram()[0] - static_cast<double>(hist_[0]);
  return st;
}

EmpiricalMrc profile_mrc(const MrcProfilerConfig& config,
                         AddressStream& stream) {
  trace::ScopedTimer timer("mrc.profile");
  ReuseProfiler profiler(config.geometry, config.sampling_rate);
  for (std::uint64_t i = 0; i < config.warmup_accesses; ++i) {
    profiler.access(stream.next());
  }
  profiler.begin_measurement();
  for (std::uint64_t i = 0; i < config.measure_accesses; ++i) {
    profiler.access(stream.next());
  }
  const ReuseProfilerStats st = profiler.stats();
  auto& reg = trace::TimerRegistry::global();
  reg.add_count("profiler.runs", 1);
  reg.add_count("profiler.accesses", st.accesses);
  reg.add_count("profiler.sampled_accesses", st.sampled);
  reg.add_count("profiler.distinct_blocks", st.distinct_blocks);
  reg.add_count("profiler.sets", st.sets);
  reg.add_count("profiler.sampled_sets", st.sampled_sets);
  // Parts-per-million, summed over runs; divide by profiler.runs for the
  // mean rate.
  reg.add_count("profiler.sample_rate_ppm",
                static_cast<std::uint64_t>(st.sample_rate * 1e6 + 0.5));
  return profiler.mrc();
}

}  // namespace dicer::sim
