#include "sim/core/trace_apps.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"
#include "util/result_cache.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dicer::sim {

namespace {

std::string profile_key(const std::vector<TraceAppSpec>& specs,
                        const MrcProfilerConfig& config) {
  // Versioned key over everything that shapes the cached tables: the
  // profiling geometry/windows/sampling rate plus every stream-
  // shaping spec field. Phase parameters (cpi, api, ...) are applied
  // after loading, so they are deliberately excluded.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  for (const auto& s : specs) {
    mix(s.name);
    mix(to_string(s.pattern));
    char buf[192];
    std::snprintf(buf, sizeof buf, "%llu:%llu:%g:%g:%llu:%llu",
                  static_cast<unsigned long long>(s.ws_bytes),
                  static_cast<unsigned long long>(s.cold_bytes),
                  s.hot_fraction, s.reuse_fraction,
                  static_cast<unsigned long long>(s.stream_seed),
                  static_cast<unsigned long long>(s.base));
    mix(buf);
  }
  const auto& g = config.geometry;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "dicer-trace-mrc-v2:%016llx:%llu:%u:%u:%llu:%llu:%.17g",
                static_cast<unsigned long long>(h),
                static_cast<unsigned long long>(g.size_bytes), g.ways,
                g.line_bytes,
                static_cast<unsigned long long>(config.warmup_accesses),
                static_cast<unsigned long long>(config.measure_accesses),
                config.sampling_rate);
  return buf;
}

/// Full-precision double formatting (%.17g round-trips exactly), so a
/// cache-served catalog is byte-identical to a freshly profiled one.
std::string fmt17(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

using PointTable = std::map<std::string, std::vector<std::pair<double, double>>>;

struct TracePoint {
  std::string app;
  double bytes = 0.0;
  double ratio = 0.0;
};

AppProfile make_profile(const TraceAppSpec& spec, const EmpiricalMrc& table) {
  AppPhase phase;
  phase.name = "trace";
  phase.instructions = spec.instructions;
  phase.cpi_core = spec.cpi_core;
  phase.api = spec.api;
  phase.mrc = fit_mrc(table);
  phase.wb_ratio = spec.wb_ratio;
  phase.mlp = spec.mlp;
  AppProfile profile;
  profile.name = spec.name;
  profile.suite = "TRACE";
  profile.app_class = spec.app_class;
  profile.phases.push_back(std::move(phase));
  return profile;
}

}  // namespace

const char* to_string(TracePattern p) noexcept {
  switch (p) {
    case TracePattern::kStreaming:
      return "streaming";
    case TracePattern::kWorkingSet:
      return "working_set";
    case TracePattern::kBimodal:
      return "bimodal";
    case TracePattern::kMixed:
      return "mixed";
  }
  return "?";
}

std::vector<TraceAppSpec> default_trace_apps() {
  std::vector<TraceAppSpec> specs;
  {
    TraceAppSpec s;
    s.name = "trace_stream1";
    s.pattern = TracePattern::kStreaming;
    s.app_class = AppClass::kStreaming;
    s.stream_seed = 101;
    s.instructions = 30e9;
    s.cpi_core = 0.7;
    s.api = 0.010;
    s.wb_ratio = 0.6;
    s.mlp = 4.0;
    specs.push_back(s);
  }
  {
    TraceAppSpec s;
    s.name = "trace_wset1";
    s.pattern = TracePattern::kWorkingSet;
    s.app_class = AppClass::kCacheHungry;
    s.ws_bytes = 12ull << 20;
    s.stream_seed = 102;
    s.instructions = 45e9;
    s.cpi_core = 0.55;
    s.api = 0.006;
    s.wb_ratio = 0.35;
    s.mlp = 1.6;
    specs.push_back(s);
  }
  {
    TraceAppSpec s;
    s.name = "trace_bimodal1";
    s.pattern = TracePattern::kBimodal;
    s.app_class = AppClass::kCacheHungry;
    s.ws_bytes = 2ull << 20;  // hot set
    s.cold_bytes = 16ull << 20;
    s.hot_fraction = 0.8;
    s.stream_seed = 103;
    s.instructions = 42e9;
    s.cpi_core = 0.6;
    s.api = 0.005;
    s.wb_ratio = 0.3;
    s.mlp = 1.8;
    specs.push_back(s);
  }
  {
    TraceAppSpec s;
    s.name = "trace_mix1";
    s.pattern = TracePattern::kMixed;
    s.app_class = AppClass::kCacheFriendly;
    s.ws_bytes = 4ull << 20;
    s.reuse_fraction = 0.7;
    s.stream_seed = 104;
    s.instructions = 50e9;
    s.cpi_core = 0.5;
    s.api = 0.0035;
    s.wb_ratio = 0.25;
    s.mlp = 2.2;
    specs.push_back(s);
  }
  return specs;
}

std::unique_ptr<AddressStream> make_trace_stream(const TraceAppSpec& spec) {
  util::Xoshiro256 rng(spec.stream_seed);
  switch (spec.pattern) {
    case TracePattern::kStreaming:
      return std::make_unique<StreamingStream>(/*region_bytes=*/256ull << 20,
                                               /*stride=*/64, spec.base);
    case TracePattern::kWorkingSet:
      return std::make_unique<WorkingSetStream>(spec.ws_bytes, spec.base,
                                                rng);
    case TracePattern::kBimodal:
      return std::make_unique<BimodalStream>(spec.ws_bytes, spec.cold_bytes,
                                             spec.hot_fraction, spec.base,
                                             rng);
    case TracePattern::kMixed:
      return std::make_unique<MixedStream>(spec.ws_bytes, spec.reuse_fraction,
                                           spec.base, rng);
  }
  throw std::invalid_argument("make_trace_stream: unknown pattern");
}

MissRatioCurve fit_mrc(const EmpiricalMrc& table) {
  if (table.empty()) {
    throw std::invalid_argument("fit_mrc: empty table");
  }
  const auto& pts = table.points();
  const std::size_t n = pts.size();

  // Monotonise from the tail so the table is non-increasing (profiling
  // noise can leave tiny upward bumps).
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = pts[i].first;
    y[i] = std::clamp(pts[i].second, 0.0, 1.0);
  }
  for (std::size_t i = n - 1; i-- > 0;) y[i] = std::max(y[i], y[i + 1]);

  const double floor = y[n - 1];
  // Extrapolate the zero-allocation miss ratio from the first segment (a
  // flat or single-point table just holds its first value).
  double y0 = y[0];
  if (n >= 2 && x[1] > x[0]) {
    y0 = std::min(1.0, y[0] + (y[0] - y[1]) / (x[1] - x[0]) * x[0]);
  }

  // Segment k spans (x_{k-1}, x_k] with x_0 := 0. A shape-1 component of
  // working set x_k adds slope -w_k/x_k everywhere left of x_k, so
  // matching the interpolant slope G_k of every segment gives
  //   w_k = x_k * (G_k - G_{k+1}).
  // Convexifying G (running max from the tail) keeps every weight >= 0;
  // on convex tables the fit passes through every point exactly.
  std::vector<double> g(n + 1, 0.0);  // g[k]: downhill slope of segment k
  g[0] = x[0] > 0.0 ? (y0 - y[0]) / x[0] : 0.0;
  for (std::size_t k = 1; k < n; ++k) {
    g[k] = x[k] > x[k - 1] ? (y[k - 1] - y[k]) / (x[k] - x[k - 1]) : 0.0;
  }
  // g indexing above: g[k] is the segment ENDING at x[k] (0-based), and
  // g[n] = 0 terminates the recursion.
  for (std::size_t k = n; k-- > 0;) g[k] = std::max(g[k], g[k + 1]);

  std::vector<MrcComponent> components;
  double weight_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double w = x[k] * (g[k] - g[k + 1]);
    if (w > 1e-12) {
      components.push_back({.weight = w, .ws_bytes = x[k], .shape = 1.0});
      weight_sum += w;
    }
  }
  // Convexification can only steepen, so the implied ceiling may exceed
  // what a miss *ratio* allows; rescale into the budget.
  if (weight_sum > 0.0 && floor + weight_sum > 1.0) {
    const double scale = (1.0 - floor) / weight_sum;
    for (auto& c : components) c.weight *= scale;
  }
  return MissRatioCurve(floor, std::move(components));
}

MrcProfilerConfig default_trace_profile_config() {
  MrcProfilerConfig config;
  // Nearest trace-cacheable geometry to the paper LLC (25 MB, 20-way,
  // 64 B would give 20480 sets): the set-indexed cache and profiler
  // need a power-of-two set count, so profile at 20 MB / 20-way / 64 B
  // = 16384 sets.
  config.geometry = {
      .size_bytes = 20ull * 1024 * 1024, .ways = 20, .line_bytes = 64};
  config.warmup_accesses = 400'000;
  config.measure_accesses = 800'000;
  config.sampling_rate = 0.25;
  return config;
}

AppProfile profile_trace_app(const TraceAppSpec& spec,
                             const MrcProfilerConfig& config) {
  return make_profile(spec, profile_mrc(config, *make_trace_stream(spec)));
}

AppCatalog trace_augmented_catalog(const std::string& cache_path,
                                   const std::vector<TraceAppSpec>& specs,
                                   const MrcProfilerConfig& config) {
  trace::ScopedTimer timer("trace_apps.build_catalog");
  AppCatalog catalog;
  if (specs.empty()) return catalog;

  const util::ResultCache cache(cache_path, profile_key(specs, config),
                                "app,bytes,miss_ratio");
  PointTable tables;
  if (!cache_path.empty()) {
    const auto points = cache.load<TracePoint>(
        specs.size() * config.geometry.ways, [](util::ResultCache::Row& c) {
          TracePoint p{c.text(), c.real(), c.real()};
          if (p.app.empty() || !(p.bytes > 0.0) || p.ratio < 0.0 ||
              p.ratio > 1.0) {
            throw std::invalid_argument("out-of-range row");
          }
          return p;
        });
    if (points) {
      for (const auto& p : *points) {
        tables[p.app].emplace_back(p.bytes, p.ratio);
      }
    }
    // Every spec must be present with one point per way count, strictly
    // increasing in bytes; anything else is a stale or foreign cache.
    bool complete = points.has_value();
    for (const auto& spec : specs) {
      const auto it = tables.find(spec.name);
      complete = complete && it != tables.end() &&
                 it->second.size() == config.geometry.ways &&
                 std::adjacent_find(it->second.begin(), it->second.end(),
                                    [](const auto& a, const auto& b) {
                                      return b.first <= a.first;
                                    }) == it->second.end();
    }
    if (!complete && points) {
      DICER_WARN << "trace profile cache " << cache_path
                 << " does not cover the requested specs; reprofiling";
    }
    if (!complete) tables.clear();
  }

  if (tables.empty()) {
    for (const auto& spec : specs) {
      tables[spec.name] =
          profile_mrc(config, *make_trace_stream(spec)).points();
    }
    if (!cache_path.empty()) {
      cache.save([&tables](std::ostream& out) {
        for (const auto& [app, points] : tables) {
          for (const auto& [bytes, ratio] : points) {
            out << app << ',' << fmt17(bytes) << ',' << fmt17(ratio) << "\n";
          }
        }
      });
    }
  }

  for (const auto& spec : specs) {
    catalog.add(make_profile(spec, EmpiricalMrc(tables[spec.name])));
  }
  return catalog;
}

}  // namespace dicer::sim
