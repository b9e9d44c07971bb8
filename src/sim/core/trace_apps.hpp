// Trace-derived catalog workloads.
//
// The 59-entry catalog is hand-calibrated from published behaviour
// classes. This header grows it with workloads whose MRCs are *measured*:
// each TraceAppSpec names a synthetic address stream (the same families
// the validation suite replays against the trace-driven cache), the
// single-pass reuse profiler turns the stream into an empirical per-way
// MRC in one pass, and `fit_mrc` converts that table into the analytic
// `MissRatioCurve` form the machine model consumes (a floor plus shape-1
// coverage components — exact on convex tables, least-upper-bound
// steepening on bumpy ones).
//
// Profiling results are cached on disk in a util::ResultCache, the cache
// the baseline study and the policy sweep use: a versioned "# key" line
// mixing every result-shaping knob, strict row parsing, corruption handled
// by recomputing (never by crashing), atomic tmp+rename saves.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cache/address_stream.hpp"
#include "sim/cache/mrc.hpp"
#include "sim/cache/reuse_profiler.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::sim {

/// Stream family of a trace-derived workload.
enum class TracePattern { kStreaming, kWorkingSet, kBimodal, kMixed };

const char* to_string(TracePattern p) noexcept;

struct TraceAppSpec {
  std::string name;  ///< catalog workload name, e.g. "trace_wset1"
  TracePattern pattern = TracePattern::kWorkingSet;
  AppClass app_class = AppClass::kCacheFriendly;

  // Stream parameters (which ones apply depends on the pattern).
  std::uint64_t ws_bytes = 4ull << 20;    ///< working-set / hot-set size
  std::uint64_t cold_bytes = 16ull << 20; ///< kBimodal cold-set size
  double hot_fraction = 0.8;              ///< kBimodal hot-access share
  double reuse_fraction = 0.7;            ///< kMixed reuse share
  std::uint64_t stream_seed = 1;          ///< RNG seed of the stream
  std::uint64_t base = 0;                 ///< base address of the region

  // Phase parameters of the resulting AppProfile.
  double instructions = 40e9;
  double cpi_core = 0.6;
  double api = 0.004;
  double wb_ratio = 0.3;
  double mlp = 2.0;
};

/// The default trace-derived workload set: one spec per stream family.
std::vector<TraceAppSpec> default_trace_apps();

/// Fresh, identically-seeded stream for a spec.
std::unique_ptr<AddressStream> make_trace_stream(const TraceAppSpec& spec);

/// Fit an analytic MRC to an empirical per-way table by slope
/// decomposition into shape-1 components: floor = the final point,
/// one component per table breakpoint, weights from the (monotonised,
/// convexified) segment slopes. Exact on convex non-increasing tables.
/// Throws std::invalid_argument on an empty table.
MissRatioCurve fit_mrc(const EmpiricalMrc& table);

/// Default profiling configuration for trace apps: the nearest
/// power-of-two-sets geometry to the paper LLC (20 MB / 20-way / 64 B),
/// profiled in one pass over a hash-sampled quarter of the sets.
MrcProfilerConfig default_trace_profile_config();

/// Profile one spec into a single-phase AppProfile (suite "TRACE").
AppProfile profile_trace_app(const TraceAppSpec& spec,
                             const MrcProfilerConfig& config);

/// The 59-entry default catalog plus every spec in `specs`, with the
/// empirical MRC tables served from the deterministic profile cache at
/// `cache_path` ("" profiles unconditionally; a stale/corrupt cache is
/// recomputed and rewritten).
AppCatalog trace_augmented_catalog(
    const std::string& cache_path = "",
    const std::vector<TraceAppSpec>& specs = default_trace_apps(),
    const MrcProfilerConfig& config = default_trace_profile_config());

}  // namespace dicer::sim
