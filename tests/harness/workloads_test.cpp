#include "harness/workloads.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/solo.hpp"
#include "metrics/metrics.hpp"
#include "policy/baselines.hpp"
#include "util/timer.hpp"

namespace dicer::harness {
namespace {

TEST(WorkloadSpec, Label) {
  WorkloadSpec s{"milc1", "gcc_base3"};
  EXPECT_EQ(s.label(), "milc1 gcc_base3");
}

TEST(AllPairs, FullCross) {
  const auto pairs = all_pairs(sim::default_catalog());
  EXPECT_EQ(pairs.size(), 3481u);  // 59 x 59, the paper's workload count
  EXPECT_EQ(pairs.front().hp, pairs.front().be);  // first is (a0, a0)
}

BaselineEntry entry(const char* hp, const char* be, double alone, double um,
                    double ct) {
  BaselineEntry e;
  e.spec = {hp, be};
  e.hp_alone_ipc = alone;
  e.be_alone_ipc = 1.0;
  e.um_hp_ipc = um;
  e.ct_hp_ipc = ct;
  e.um_be_ipc = 0.8;
  e.ct_be_ipc = 0.5;
  e.um_efu = 0.8;
  e.ct_efu = 0.6;
  return e;
}

TEST(BaselineEntry, SlowdownsAndClassification) {
  const auto e = entry("a", "b", 1.0, 0.8, 0.9);
  EXPECT_DOUBLE_EQ(e.um_slowdown(), 1.25);
  EXPECT_NEAR(e.ct_slowdown(), 1.111, 0.001);
  EXPECT_TRUE(e.ct_favoured());  // 0.9 > 0.8 * 1.03
}

TEST(BaselineEntry, TieIsCtThwarted) {
  // "No improvement" counts as CT-Thwarted (paper 2.3.3), including
  // improvements inside the noise margin.
  EXPECT_FALSE(entry("a", "b", 1.0, 0.8, 0.8).ct_favoured());
  EXPECT_FALSE(entry("a", "b", 1.0, 0.8, 0.81).ct_favoured());
  EXPECT_FALSE(entry("a", "b", 1.0, 0.9, 0.7).ct_favoured());
}

BaselineStudy synthetic_study(std::size_t n_apps = 59) {
  BaselineStudy study;
  const auto& catalog = sim::default_catalog();
  for (std::size_t i = 0; i < n_apps; ++i) {
    for (std::size_t j = 0; j < n_apps; ++j) {
      const double um = 0.4 + 0.5 * static_cast<double>((i * 59 + j) % 100) / 100.0;
      const double ct = (i + j) % 2 ? um * 1.2 : um * 0.95;
      study.entries.push_back(entry(catalog.at(i).name.c_str(),
                                    catalog.at(j).name.c_str(), 1.0, um, ct));
    }
  }
  return study;
}

TEST(BaselineStudy, CtFractionCounts) {
  const auto study = synthetic_study();
  EXPECT_EQ(study.count_ct_favoured(), 1740u);  // (i+j) odd cells
  EXPECT_NEAR(study.fraction_ct_thwarted(), 1.0 - 1740.0 / 3481.0, 1e-12);
}

TEST(BaselineCache, RoundTripsExactly) {
  const std::string path = ::testing::TempDir() + "/baseline_cache_test.csv";
  const auto& catalog = sim::default_catalog();
  auto study = synthetic_study();
  study.config = ConsolidationConfig{};
  save_baseline_cache(path, study, catalog);
  const auto loaded = load_baseline_cache(path, catalog, study.config);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->entries.size(), study.entries.size());
  for (std::size_t i = 0; i < study.entries.size(); i += 97) {
    EXPECT_EQ(loaded->entries[i].spec.hp, study.entries[i].spec.hp);
    EXPECT_NEAR(loaded->entries[i].um_hp_ipc, study.entries[i].um_hp_ipc,
                1e-5);
    EXPECT_NEAR(loaded->entries[i].ct_efu, study.entries[i].ct_efu, 1e-5);
  }
  std::remove(path.c_str());
}

TEST(BaselineCache, StaleKeyRejected) {
  const std::string path = ::testing::TempDir() + "/baseline_stale_test.csv";
  const auto& catalog = sim::default_catalog();
  auto study = synthetic_study();
  study.config = ConsolidationConfig{};
  save_baseline_cache(path, study, catalog);
  // A different machine geometry must invalidate the cache.
  ConsolidationConfig other;
  other.machine.llc.ways = 16;
  EXPECT_FALSE(load_baseline_cache(path, catalog, other).has_value());
  std::remove(path.c_str());
}

TEST(BaselineCache, MissingFileIsNullopt) {
  EXPECT_FALSE(load_baseline_cache("/no/such/file.csv",
                                   sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
}

TEST(RepresentativeSample, PaperCompositionFiftySeventy) {
  const auto study = synthetic_study();
  const auto sample = representative_sample(study, 50, 70);
  EXPECT_EQ(sample.size(), 120u);
  std::size_t ctf = 0;
  for (const auto& e : sample) ctf += e.ct_favoured() ? 1u : 0u;
  EXPECT_EQ(ctf, 50u);
}

TEST(RepresentativeSample, DeterministicForSeed) {
  const auto study = synthetic_study();
  const auto a = representative_sample(study, 50, 70, 42);
  const auto b = representative_sample(study, 50, 70, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.label(), b[i].spec.label());
  }
}

TEST(RepresentativeSample, NoDuplicates) {
  const auto study = synthetic_study();
  const auto sample = representative_sample(study, 50, 70);
  std::set<std::string> labels;
  for (const auto& e : sample) {
    EXPECT_TRUE(labels.insert(e.spec.label()).second) << e.spec.label();
  }
}

TEST(RepresentativeSample, SpansSlowdownRange) {
  // Stratification: the sample's slowdown range covers most of the pool's.
  const auto study = synthetic_study();
  const auto sample = representative_sample(study, 50, 70);
  double lo = 1e9, hi = 0.0;
  for (const auto& e : sample) {
    lo = std::min(lo, e.um_slowdown());
    hi = std::max(hi, e.um_slowdown());
  }
  EXPECT_LT(lo, 1.2);
  EXPECT_GT(hi, 2.0);
}

TEST(RepresentativeSample, RequestMoreThanPoolGetsPool) {
  BaselineStudy tiny;
  tiny.entries.push_back(entry("a", "b", 1.0, 0.8, 0.9));   // CT-F
  tiny.entries.push_back(entry("c", "d", 1.0, 0.8, 0.78));  // CT-T
  const auto sample = representative_sample(tiny, 5, 5);
  EXPECT_EQ(sample.size(), 2u);
}

// --- malformed-cache hardening: every defect is diagnosed, none aborts --

/// Writes a valid cache, then rewrites data line `row` (1-based within the
/// data section) via `mutate`, returning the path.
std::string corrupted_cache(const std::string& name,
                            const std::function<std::string(std::string)>&
                                mutate,
                            std::size_t row = 1) {
  const std::string path = ::testing::TempDir() + "/" + name;
  const auto& catalog = sim::default_catalog();
  auto study = synthetic_study();
  study.config = ConsolidationConfig{};
  save_baseline_cache(path, study, catalog);

  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  lines.at(1 + row) = mutate(lines.at(1 + row));  // key + header precede

  std::ofstream out(path);
  for (const auto& l : lines) out << l << '\n';
  return path;
}

TEST(BaselineCache, BadNumberCellIsDiagnosedNotFatal) {
  // The historical bug: a non-numeric cell escaped as an uncaught
  // std::stod exception and killed the whole bench.
  const auto path = corrupted_cache("baseline_badnum_test.csv",
                                    [](std::string l) {
                                      const auto comma = l.rfind(',');
                                      return l.substr(0, comma + 1) + "oops";
                                    });
  EXPECT_FALSE(load_baseline_cache(path, sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
  std::remove(path.c_str());
}

TEST(BaselineCache, PartialNumberCellIsDiagnosedNotFatal) {
  // "0.8x" must not silently truncate to 0.8.
  const auto path = corrupted_cache("baseline_partial_test.csv",
                                    [](std::string l) { return l + "x"; });
  EXPECT_FALSE(load_baseline_cache(path, sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
  std::remove(path.c_str());
}

TEST(BaselineCache, TruncatedRowIsDiagnosedNotFatal) {
  const auto path = corrupted_cache(
      "baseline_truncated_test.csv",
      [](std::string l) { return l.substr(0, l.rfind(',')); }, 7);
  EXPECT_FALSE(load_baseline_cache(path, sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
  std::remove(path.c_str());
}

TEST(BaselineCache, TrailingColumnsAreDiagnosedNotFatal) {
  const auto path = corrupted_cache("baseline_trailing_test.csv",
                                    [](std::string l) { return l + ",0.5"; });
  EXPECT_FALSE(load_baseline_cache(path, sim::default_catalog(),
                                   ConsolidationConfig{})
                   .has_value());
  std::remove(path.c_str());
}

TEST(BaselineCache, WrongHeaderIsRejected) {
  // The header names the columns; a file whose header differs (here two
  // EFU columns swapped) must not be read with this loader's layout.
  const std::string path = ::testing::TempDir() + "/baseline_header_test.csv";
  const auto& catalog = sim::default_catalog();
  auto study = synthetic_study();
  study.config = ConsolidationConfig{};
  save_baseline_cache(path, study, catalog);
  ASSERT_TRUE(load_baseline_cache(path, catalog, study.config).has_value());

  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_EQ(lines.at(1),
            "hp,be,hp_alone,be_alone,um_hp,um_be,ct_hp,ct_be,um_efu,ct_efu");
  lines[1] = "hp,be,hp_alone,be_alone,um_hp,um_be,ct_hp,ct_be,ct_efu,um_efu";
  std::ofstream out(path, std::ios::trunc);
  for (const auto& l : lines) out << l << '\n';
  out.close();
  EXPECT_FALSE(load_baseline_cache(path, catalog, study.config).has_value());
  std::remove(path.c_str());
}

// --- the study itself, on a 4-app catalog (16 pairs) -------------------

sim::AppCatalog small_catalog() {
  const auto& full = sim::default_catalog();
  return sim::AppCatalog(std::vector<sim::AppProfile>{
      full.by_name("milc1"), full.by_name("gcc_base3"), full.by_name("namd1"),
      full.by_name("omnetpp1")});
}

ConsolidationConfig small_config() {
  ConsolidationConfig config;
  config.cores_used = 4;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(BaselineStudy, JobsInvariantAndEqualToPerPairRecomputation) {
  const auto catalog = small_catalog();
  const auto config = small_config();
  const std::string serial_path =
      ::testing::TempDir() + "/baseline_study_jobs1.csv";
  const std::string parallel_path =
      ::testing::TempDir() + "/baseline_study_jobs4.csv";
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
  const auto serial = baseline_study(catalog, config, serial_path,
                                     /*force_recompute=*/false, /*jobs=*/1);
  const auto parallel = baseline_study(catalog, config, parallel_path,
                                       /*force_recompute=*/false, /*jobs=*/4);
  ASSERT_EQ(serial.entries.size(), 16u);
  ASSERT_EQ(parallel.entries.size(), 16u);
  EXPECT_EQ(read_file(serial_path), read_file(parallel_path));
  ASSERT_GT(read_file(serial_path).size(), 0u);

  // Independent oracle: each pair run by hand in all_pairs order, UM then
  // CT, with the EFU of one HP plus cores_used-1 identical BEs.
  std::vector<double> alone;
  for (const auto& p : catalog.profiles()) {
    alone.push_back(
        solo_steady_state(p, config.machine.llc.ways, config.machine).ipc);
  }
  auto efu = [&config](double hp_alone, double hp, double be_alone,
                       double be_mean) {
    std::vector<metrics::IpcPair> pairs{{hp_alone, hp}};
    for (unsigned c = 1; c < config.cores_used; ++c) {
      pairs.push_back({be_alone, be_mean});
    }
    return metrics::effective_utilisation(pairs);
  };
  const std::size_t n = catalog.size();
  for (std::size_t i = 0; i < n * n; ++i) {
    const auto& hp = catalog.at(i / n);
    const auto& be = catalog.at(i % n);
    policy::Unmanaged um;
    const auto u = run_consolidation(hp, be, um, config);
    policy::CacheTakeover ct;
    const auto c = run_consolidation(hp, be, ct, config);
    const double hp_alone = alone[i / n];
    const double be_alone = alone[i % n];
    for (const auto* study : {&serial, &parallel}) {
      const BaselineEntry& e = study->entries[i];
      EXPECT_EQ(e.spec.hp, hp.name) << "pair " << i;
      EXPECT_EQ(e.spec.be, be.name) << "pair " << i;
      EXPECT_EQ(e.hp_alone_ipc, hp_alone) << "pair " << i;
      EXPECT_EQ(e.be_alone_ipc, be_alone) << "pair " << i;
      EXPECT_EQ(e.um_hp_ipc, u.hp_ipc) << "pair " << i;
      EXPECT_EQ(e.um_be_ipc, u.be_ipc_mean) << "pair " << i;
      EXPECT_EQ(e.ct_hp_ipc, c.hp_ipc) << "pair " << i;
      EXPECT_EQ(e.ct_be_ipc, c.be_ipc_mean) << "pair " << i;
      EXPECT_EQ(e.um_efu, efu(hp_alone, u.hp_ipc, be_alone, u.be_ipc_mean))
          << "pair " << i;
      EXPECT_EQ(e.ct_efu, efu(hp_alone, c.hp_ipc, be_alone, c.be_ipc_mean))
          << "pair " << i;
    }
  }

  // A second call is served from the cache it wrote.
  const auto cached = load_baseline_cache(serial_path, catalog, config);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->entries.size(), 16u);
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

TEST(BaselineStudy, SoloReferencesAreTimed) {
  // The solo references run under their own `baseline.solo` scope, once
  // per computed study (a cache hit runs none).
  auto solo_count = [] {
    for (const auto& [label, stat] :
         trace::TimerRegistry::global().snapshot()) {
      if (label == "baseline.solo") return stat.count;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = solo_count();
  baseline_study(small_catalog(), small_config(), "",
                 /*force_recompute=*/false, /*jobs=*/1);
  EXPECT_EQ(solo_count(), before + 1);
}

TEST(BaselineCache, ConcurrentSaversNeverCorruptTheCache) {
  // Four studies force-recomputing into one cache path (two bench
  // processes sharing a cache dir) each stream into a unique temp file;
  // the last atomic rename wins with a complete file.
  const auto catalog = small_catalog();
  const auto config = small_config();
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/baseline_concurrent_save.csv";
  std::remove(path.c_str());
  const auto expected = baseline_study(catalog, config, "",
                                       /*force_recompute=*/false, /*jobs=*/1);

  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&] {
      baseline_study(catalog, config, path, /*force_recompute=*/true,
                     /*jobs=*/1);
    });
  }
  for (auto& t : writers) t.join();

  const auto cached = load_baseline_cache(path, catalog, config);
  ASSERT_TRUE(cached.has_value());
  ASSERT_EQ(cached->entries.size(), expected.entries.size());
  for (std::size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(cached->entries[i].spec.label(),
              expected.entries[i].spec.label());
    EXPECT_NEAR(cached->entries[i].um_hp_ipc, expected.entries[i].um_hp_ipc,
                1e-5);
    EXPECT_NEAR(cached->entries[i].ct_efu, expected.entries[i].ct_efu, 1e-5);
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(path + ".tmp"), std::string::npos)
        << "stray temp file: " << entry.path();
  }
  std::remove(path.c_str());
}

TEST(DefaultCacheDir, EnvOverride) {
  setenv("DICER_CACHE_DIR", "/tmp/somewhere", 1);
  EXPECT_EQ(default_cache_dir(), "/tmp/somewhere");
  unsetenv("DICER_CACHE_DIR");
  EXPECT_EQ(default_cache_dir(), ".");
}

}  // namespace
}  // namespace dicer::harness
