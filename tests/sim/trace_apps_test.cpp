#include "sim/core/trace_apps.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace dicer::sim {
namespace {

constexpr double MB = 1024.0 * 1024.0;

// The profile-cache rows (`app,bytes,miss_ratio`, `%.17g`) that the
// production configuration, `default_trace_profile_config()`, yields for
// every `default_trace_apps()` spec. Pinned bit for bit: any change to the
// sampled profiling path that moves one point of one curve fails here.
const std::vector<std::string>& golden_trace_rows() {
  static const std::vector<std::string> rows = {
    "trace_bimodal1,1048576,0.68118131852209607",
    "trace_bimodal1,2097152,0.39850687273605412",
    "trace_bimodal1,3145728,0.25942487321902924",
    "trace_bimodal1,4194304,0.19947846413909684",
    "trace_bimodal1,5242880,0.17102605167833856",
    "trace_bimodal1,6291456,0.15428002897850759",
    "trace_bimodal1,7340032,0.14210380101424777",
    "trace_bimodal1,8388608,0.13239051436851001",
    "trace_bimodal1,9437184,0.12467033083796185",
    "trace_bimodal1,10485760,0.11901743540207679",
    "trace_bimodal1,11534336,0.11513508814296064",
    "trace_bimodal1,12582912,0.11292437575464863",
    "trace_bimodal1,13631488,0.11178192707075586",
    "trace_bimodal1,14680064,0.11131703453272157",
    "trace_bimodal1,15728640,0.11115877324317798",
    "trace_bimodal1,16777216,0.11111426225549384",
    "trace_bimodal1,17825792,0.11109942525959914",
    "trace_bimodal1,18874368,0.11109942525959914",
    "trace_bimodal1,19922944,0.11109942525959914",
    "trace_bimodal1,20971520,0.11109942525959914",
    "trace_mix1,1048576,0.89274698865008451",
    "trace_mix1,2097152,0.78344283989374552",
    "trace_mix1,3145728,0.67519706351122921",
    "trace_mix1,4194304,0.57860822023665781",
    "trace_mix1,5242880,0.49676735088142959",
    "trace_mix1,6291456,0.42938760685824678",
    "trace_mix1,7340032,0.37938693069306928",
    "trace_mix1,8388608,0.34613722289302101",
    "trace_mix1,9437184,0.32610727843516057",
    "trace_mix1,10485760,0.31484105288577641",
    "trace_mix1,11534336,0.30820397005554212",
    "trace_mix1,12582912,0.3044798840859696",
    "trace_mix1,13631488,0.30266977058681477",
    "trace_mix1,14680064,0.30157677855590437",
    "trace_mix1,15728640,0.3010179183772036",
    "trace_mix1,16777216,0.30080525476937936",
    "trace_mix1,17825792,0.30068161313692343",
    "trace_mix1,18874368,0.30063710214923933",
    "trace_mix1,19922944,0.30059753682685342",
    "trace_mix1,20971520,0.30058764549625694",
    "trace_stream1,1048576,0.99994922965467281",
    "trace_stream1,2097152,0.99994922965467281",
    "trace_stream1,3145728,0.99994922965467281",
    "trace_stream1,4194304,0.99994922965467281",
    "trace_stream1,5242880,0.99994922965467281",
    "trace_stream1,6291456,0.99994922965467281",
    "trace_stream1,7340032,0.99994922965467281",
    "trace_stream1,8388608,0.99994922965467281",
    "trace_stream1,9437184,0.99994922965467281",
    "trace_stream1,10485760,0.99994922965467281",
    "trace_stream1,11534336,0.99994922965467281",
    "trace_stream1,12582912,0.99994922965467281",
    "trace_stream1,13631488,0.99994922965467281",
    "trace_stream1,14680064,0.99994922965467281",
    "trace_stream1,15728640,0.99994922965467281",
    "trace_stream1,16777216,0.99994922965467281",
    "trace_stream1,17825792,0.99994922965467281",
    "trace_stream1,18874368,0.99994922965467281",
    "trace_stream1,19922944,0.99994922965467281",
    "trace_stream1,20971520,0.99994922965467281",
    "trace_wset1,1048576,0.91480960154552038",
    "trace_wset1,2097152,0.8320686211060131",
    "trace_wset1,3145728,0.74953535860903164",
    "trace_wset1,4194304,0.6654046462207196",
    "trace_wset1,5242880,0.58298513402559771",
    "trace_wset1,6291456,0.49984850036223133",
    "trace_wset1,7340032,0.41567822265153342",
    "trace_wset1,8388608,0.33292735088142961",
    "trace_wset1,9437184,0.24993414151171214",
    "trace_wset1,10485760,0.16915659019560492",
    "trace_wset1,11534336,0.092696604684858727",
    "trace_wset1,12582912,0.03175611687998068",
    "trace_wset1,13631488,0.03175611687998068",
    "trace_wset1,14680064,0.03175611687998068",
    "trace_wset1,15728640,0.03175611687998068",
    "trace_wset1,16777216,0.03175611687998068",
    "trace_wset1,17825792,0.03175611687998068",
    "trace_wset1,18874368,0.03175611687998068",
    "trace_wset1,19922944,0.03175611687998068",
    "trace_wset1,20971520,0.03175611687998068",
  };
  return rows;
}

// The key the same configuration carried under `dicer-trace-mrc-v1`, when
// it also held the profiler mode and a five-field sampling plan.
constexpr const char* kV1Key =
    "dicer-trace-mrc-v1:511dfa07be24600d:20971520:20:64:400000:800000:2:1:"
    "0.25:32768:357694526020:1";

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// The data rows of a profile cache (everything after key and header).
std::vector<std::string> cache_rows(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> rows;
  std::string line;
  std::getline(in, line);  // # key
  std::getline(in, line);  // column header
  while (std::getline(in, line)) rows.push_back(line);
  return rows;
}

std::uint64_t profiler_runs() {
  for (const auto& [label, n] : trace::TimerRegistry::global().counters()) {
    if (label == "profiler.runs") return n;
  }
  return 0;
}

/// Fast profiling config for tests: small 20-way geometry, short windows.
MrcProfilerConfig test_config() {
  MrcProfilerConfig config;
  config.geometry = {.size_bytes = static_cast<std::uint64_t>(5 * MB / 2),
                     .ways = 20,
                     .line_bytes = 64};
  config.warmup_accesses = 30'000;
  config.measure_accesses = 60'000;
  config.sampling_rate = 0.25;
  return config;
}

TEST(FitMrc, ExactOnConvexTable) {
  // A perfectly linear (hence convex) table: one uniform-reuse component.
  const EmpiricalMrc table({{1 * MB, 0.75},
                            {2 * MB, 0.50},
                            {3 * MB, 0.25},
                            {4 * MB, 0.00}});
  const auto fit = fit_mrc(table);
  EXPECT_NEAR(fit.ceiling(), 1.0, 1e-9);
  EXPECT_NEAR(fit.floor(), 0.0, 1e-9);
  for (const auto& [bytes, miss] : table.points()) {
    EXPECT_NEAR(fit.at(bytes), miss, 1e-9);
  }
  EXPECT_NEAR(fit.at(1.5 * MB), 0.625, 1e-9);
}

TEST(FitMrc, ConvexTwoSlopeTableReproduced) {
  // Steep early segment, shallow tail — convex, so the fit is exact at
  // every breakpoint.
  const EmpiricalMrc table({{1 * MB, 0.40},
                            {2 * MB, 0.20},
                            {3 * MB, 0.15},
                            {4 * MB, 0.10}});
  const auto fit = fit_mrc(table);
  for (const auto& [bytes, miss] : table.points()) {
    EXPECT_NEAR(fit.at(bytes), miss, 1e-9);
  }
  EXPECT_NEAR(fit.floor(), 0.10, 1e-9);
}

TEST(FitMrc, FlatTableIsPureStreaming) {
  const EmpiricalMrc table({{1 * MB, 0.9}, {2 * MB, 0.9}, {3 * MB, 0.9}});
  const auto fit = fit_mrc(table);
  EXPECT_NEAR(fit.floor(), 0.9, 1e-12);
  EXPECT_NEAR(fit.ceiling(), 0.9, 1e-12);
  EXPECT_NEAR(fit.stream_fraction(), 1.0, 1e-12);
  EXPECT_TRUE(fit.components().empty());
}

TEST(FitMrc, BumpyTableYieldsValidMonotoneCurve) {
  // Upward bumps (profiling noise) must not break the curve invariants.
  const EmpiricalMrc table({{1 * MB, 0.50},
                            {2 * MB, 0.55},
                            {3 * MB, 0.20},
                            {4 * MB, 0.25}});
  const auto fit = fit_mrc(table);
  EXPECT_LE(fit.ceiling(), 1.0 + 1e-12);
  EXPECT_NEAR(fit.floor(), 0.25, 1e-12);
  double prev = fit.at(0.0);
  for (double b = 0.0; b <= 5 * MB; b += MB / 4) {
    const double m = fit.at(b);
    EXPECT_LE(m, prev + 1e-12);
    prev = m;
  }
}

TEST(FitMrc, SinglePointTable) {
  const auto fit = fit_mrc(EmpiricalMrc({{2 * MB, 0.3}}));
  EXPECT_NEAR(fit.floor(), 0.3, 1e-12);
  EXPECT_NEAR(fit.at(0.0), 0.3, 1e-12);
}

TEST(FitMrc, EmptyTableThrows) {
  EXPECT_THROW(fit_mrc(EmpiricalMrc{}), std::invalid_argument);
}

TEST(TraceApps, DefaultSpecsCoverEveryPattern) {
  const auto specs = default_trace_apps();
  ASSERT_EQ(specs.size(), 4u);
  bool seen[4] = {};
  for (const auto& s : specs) seen[static_cast<int>(s.pattern)] = true;
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(TraceApps, ProfiledAppShapesMatchTheirStreams) {
  const auto specs = default_trace_apps();
  const auto config = test_config();
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.name);
    const AppProfile app = profile_trace_app(spec, config);
    ASSERT_EQ(app.phases.size(), 1u);
    EXPECT_EQ(app.suite, "TRACE");
    const auto& mrc = app.phases[0].mrc;
    EXPECT_GE(mrc.floor(), 0.0);
    EXPECT_LE(mrc.ceiling(), 1.0 + 1e-9);
    if (spec.pattern == TracePattern::kStreaming) {
      // No reuse: flat and high everywhere.
      EXPECT_GT(mrc.floor(), 0.9);
      EXPECT_GT(mrc.stream_fraction(), 0.9);
    }
    if (spec.pattern == TracePattern::kMixed) {
      // The reuse component must buy a real miss-ratio drop across the
      // profiled range.
      EXPECT_LT(mrc.at(static_cast<double>(config.geometry.size_bytes)),
                mrc.ceiling() - 0.1);
    }
  }
}

TEST(TraceApps, DefaultProfileConfigIsUsable) {
  // The default geometry must satisfy the profiler's power-of-two set
  // constraint (the paper's literal 25 MB / 20-way / 64 B would not:
  // 20480 sets). Regression test for the catalog's out-of-the-box path.
  const auto config = default_trace_profile_config();
  EXPECT_EQ(config.geometry.ways, 20u);
  const auto app = profile_trace_app(default_trace_apps()[0], config);
  ASSERT_EQ(app.phases.size(), 1u);
  EXPECT_LE(app.phases[0].mrc.ceiling(), 1.0 + 1e-9);
}

TEST(TraceApps, AugmentedCatalogContainsBaseAndTraceApps) {
  const auto catalog =
      trace_augmented_catalog("", default_trace_apps(), test_config());
  EXPECT_EQ(catalog.size(), 59u + 4u);
  EXPECT_TRUE(catalog.contains("mcf1"));  // base catalog still intact
  for (const auto& spec : default_trace_apps()) {
    ASSERT_TRUE(catalog.contains(spec.name));
    EXPECT_EQ(catalog.by_name(spec.name).app_class, spec.app_class);
  }
}

TEST(TraceApps, ProfileCacheRoundTripsByteIdentical) {
  const std::string path =
      ::testing::TempDir() + "/trace_profile_roundtrip.csv";
  std::remove(path.c_str());
  const auto specs = default_trace_apps();
  const auto config = test_config();
  const auto first = trace_augmented_catalog(path, specs, config);
  ASSERT_TRUE(std::ifstream(path).good());
  const auto second = trace_augmented_catalog(path, specs, config);
  for (const auto& spec : specs) {
    const auto& a = first.by_name(spec.name).phases[0].mrc;
    const auto& b = second.by_name(spec.name).phases[0].mrc;
    EXPECT_EQ(a.floor(), b.floor());
    ASSERT_EQ(a.components().size(), b.components().size());
    for (std::size_t i = 0; i < a.components().size(); ++i) {
      EXPECT_EQ(a.components()[i].weight, b.components()[i].weight);
      EXPECT_EQ(a.components()[i].ws_bytes, b.components()[i].ws_bytes);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceApps, CorruptProfileCacheIsRecomputedNotFatal) {
  const std::string path = ::testing::TempDir() + "/trace_profile_corrupt.csv";
  const auto specs = default_trace_apps();
  const auto config = test_config();
  const auto clean = trace_augmented_catalog(path, specs, config);
  {
    // Clobber a numeric cell while keeping the key line intact.
    std::ifstream in(path);
    std::string key_line, header;
    std::getline(in, key_line);
    std::getline(in, header);
    in.close();
    std::ofstream out(path, std::ios::trunc);
    out << key_line << "\n" << header << "\n";
    out << "trace_stream1,not_a_number,0.5\n";
  }
  const auto recovered = trace_augmented_catalog(path, specs, config);
  for (const auto& spec : specs) {
    EXPECT_EQ(clean.by_name(spec.name).phases[0].mrc.floor(),
              recovered.by_name(spec.name).phases[0].mrc.floor());
  }
  std::remove(path.c_str());
}

TEST(TraceApps, DefaultSpecsProfileToGoldenTables) {
  const std::string path = ::testing::TempDir() + "/trace_profile_golden.csv";
  std::remove(path.c_str());
  trace_augmented_catalog(path);
  EXPECT_EQ(cache_rows(path), golden_trace_rows());
  std::remove(path.c_str());
}

TEST(TraceApps, StaleKeyTriggersReprofile) {
  const std::string path = ::testing::TempDir() + "/trace_profile_stale.csv";
  std::remove(path.c_str());
  const auto specs = default_trace_apps();
  auto config = test_config();
  trace_augmented_catalog(path, specs, config);
  const std::string old_key = first_line(path);
  config.sampling_rate = 0.5;  // result-shaping knob -> new key
  trace_augmented_catalog(path, specs, config);
  EXPECT_NE(old_key, first_line(path));

  // A cache written under the v1 key is recomputed once and rewritten
  // under the current key, with data rows byte-identical to the v1 rows.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# " << kV1Key << "\napp,bytes,miss_ratio\n";
    for (const auto& row : golden_trace_rows()) out << row << "\n";
  }
  const std::uint64_t runs = profiler_runs();
  trace_augmented_catalog(path);
  EXPECT_EQ(profiler_runs() - runs, specs.size());
  EXPECT_EQ(first_line(path).rfind("# dicer-trace-mrc-v2:", 0), 0u)
      << first_line(path);
  EXPECT_EQ(cache_rows(path), golden_trace_rows());
  trace_augmented_catalog(path);
  EXPECT_EQ(profiler_runs() - runs, specs.size());  // served from the cache
  std::remove(path.c_str());
}

TEST(TraceApps, CatalogAddRejectsDuplicatesAndEmpties) {
  AppCatalog catalog;
  AppProfile p;
  EXPECT_THROW(catalog.add(p), std::invalid_argument);  // empty
  p = catalog.at(0);
  EXPECT_THROW(catalog.add(p), std::invalid_argument);  // duplicate name
  p.name = "trace_unique_name";
  catalog.add(p);
  EXPECT_EQ(catalog.size(), 60u);
  EXPECT_TRUE(catalog.contains("trace_unique_name"));
}

}  // namespace
}  // namespace dicer::sim
