#include "harness/workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/solo.hpp"
#include "harness/sweep.hpp"
#include "metrics/metrics.hpp"
#include "policy/baselines.hpp"
#include "util/csv.hpp"
#include "util/result_cache.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dicer::harness {

std::uint64_t catalog_fingerprint(const sim::AppCatalog& catalog) {
  // Content hash so recalibrated catalogs invalidate stale caches.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h ^= bits;
    h *= 0x100000001b3ULL;
  };
  for (const auto& a : catalog.profiles()) {
    for (char c : a.name) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    mix(a.total_instructions());
    mix(a.mean_api());
    for (const auto& ph : a.phases) {
      mix(ph.cpi_core);
      mix(ph.mlp);
      mix(ph.mrc.floor());
      mix(ph.mrc.footprint_bytes());
    }
  }
  return h;
}

namespace {

/// Cache-file header key: invalidates the cache when the model geometry or
/// catalog changes.
std::string cache_key(const sim::AppCatalog& catalog,
                      const ConsolidationConfig& config) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "dicer-baseline-v4:%016llx:%u:%u:%llu:%g:%g:%g:%g",
                static_cast<unsigned long long>(catalog_fingerprint(catalog)),
                config.cores_used, config.machine.llc.ways,
                static_cast<unsigned long long>(config.machine.llc.size_bytes),
                config.machine.link.capacity_bytes_per_sec,
                config.machine.quantum_sec, config.min_window_sec,
                config.max_window_sec);
  return buf;
}

double efu_of(double hp_alone, double hp, double be_alone, double be_mean,
              std::size_t n_bes) {
  std::vector<metrics::IpcPair> pairs;
  pairs.push_back({hp_alone, hp});
  for (std::size_t i = 0; i < n_bes; ++i) pairs.push_back({be_alone, be_mean});
  return metrics::effective_utilisation(pairs);
}

util::ResultCache baseline_cache(const std::string& path,
                                 const sim::AppCatalog& catalog,
                                 const ConsolidationConfig& config) {
  return util::ResultCache(
      path, cache_key(catalog, config),
      "hp,be,hp_alone,be_alone,um_hp,um_be,ct_hp,ct_be,um_efu,ct_efu");
}

}  // namespace

std::optional<BaselineStudy> load_baseline_cache(
    const std::string& path, const sim::AppCatalog& catalog,
    const ConsolidationConfig& config) {
  const auto cache = baseline_cache(path, catalog, config);
  auto entries = cache.load<BaselineEntry>(
      catalog.size() * catalog.size(), [](util::ResultCache::Row& c) {
        BaselineEntry e;
        e.spec.hp = c.text();
        e.spec.be = c.text();
        e.hp_alone_ipc = c.real();
        e.be_alone_ipc = c.real();
        e.um_hp_ipc = c.real();
        e.um_be_ipc = c.real();
        e.ct_hp_ipc = c.real();
        e.ct_be_ipc = c.real();
        e.um_efu = c.real();
        e.ct_efu = c.real();
        return e;
      });
  if (!entries) return std::nullopt;
  return BaselineStudy{config, *std::move(entries)};
}

void save_baseline_cache(const std::string& path, const BaselineStudy& study,
                         const sim::AppCatalog& catalog) {
  baseline_cache(path, catalog, study.config).save([&](std::ostream& out) {
    for (const auto& e : study.entries) {
      out << e.spec.hp << ',' << e.spec.be << ',' << util::fmt(e.hp_alone_ipc)
          << ',' << util::fmt(e.be_alone_ipc) << ',' << util::fmt(e.um_hp_ipc)
          << ',' << util::fmt(e.um_be_ipc) << ',' << util::fmt(e.ct_hp_ipc)
          << ',' << util::fmt(e.ct_be_ipc) << ',' << util::fmt(e.um_efu)
          << ',' << util::fmt(e.ct_efu) << "\n";
    }
  });
}

std::size_t BaselineStudy::count_ct_favoured() const {
  std::size_t n = 0;
  for (const auto& e : entries) n += e.ct_favoured() ? 1u : 0u;
  return n;
}

double BaselineStudy::fraction_ct_thwarted() const {
  if (entries.empty()) return 0.0;
  return 1.0 - static_cast<double>(count_ct_favoured()) /
                   static_cast<double>(entries.size());
}

std::vector<WorkloadSpec> all_pairs(const sim::AppCatalog& catalog) {
  std::vector<WorkloadSpec> pairs;
  pairs.reserve(catalog.size() * catalog.size());
  for (const auto& hp : catalog.profiles()) {
    for (const auto& be : catalog.profiles()) {
      pairs.push_back({hp.name, be.name});
    }
  }
  return pairs;
}

BaselineStudy baseline_study(const sim::AppCatalog& catalog,
                             const ConsolidationConfig& config,
                             const std::string& cache_path,
                             bool force_recompute, unsigned jobs) {
  if (!cache_path.empty() && !force_recompute) {
    trace::ScopedTimer timer("baseline.load_cache");
    if (auto cached = load_baseline_cache(cache_path, catalog, config)) {
      return *std::move(cached);
    }
  }

  // Solo IPCs once per app, in catalog order.
  const std::size_t n = catalog.size();
  std::vector<double> alone(n);
  {
    trace::ScopedTimer timer("baseline.solo");
    for (std::size_t a = 0; a < n; ++a) {
      alone[a] = solo_steady_state(catalog.at(a), config.machine.llc.ways,
                                   config.machine)
                     .ipc;
    }
  }

  // Cell i is the pair (HP i / n, BE i % n), all_pairs order; it runs UM
  // then CT and writes only entries[i].
  BaselineStudy study;
  study.config = config;
  study.entries.resize(n * n);
  const std::size_t n_bes = config.cores_used - 1;
  run_grid(n * n, jobs, "baseline.compute", [&](std::size_t i) {
    const auto& hp = catalog.at(i / n);
    const auto& be = catalog.at(i % n);
    BaselineEntry& e = study.entries[i];
    e.spec = {hp.name, be.name};
    e.hp_alone_ipc = alone[i / n];
    e.be_alone_ipc = alone[i % n];

    policy::Unmanaged um;
    const auto um_res = run_consolidation(hp, be, um, config);
    e.um_hp_ipc = um_res.hp_ipc;
    e.um_be_ipc = um_res.be_ipc_mean;
    e.um_efu = efu_of(e.hp_alone_ipc, e.um_hp_ipc, e.be_alone_ipc,
                      e.um_be_ipc, n_bes);

    policy::CacheTakeover ct;
    const auto ct_res = run_consolidation(hp, be, ct, config);
    e.ct_hp_ipc = ct_res.hp_ipc;
    e.ct_be_ipc = ct_res.be_ipc_mean;
    e.ct_efu = efu_of(e.hp_alone_ipc, e.ct_hp_ipc, e.be_alone_ipc,
                      e.ct_be_ipc, n_bes);
  });

  if (!cache_path.empty()) {
    trace::ScopedTimer timer("baseline.save_cache");
    save_baseline_cache(cache_path, study, catalog);
  }
  return study;
}

std::vector<BaselineEntry> representative_sample(const BaselineStudy& study,
                                                 std::size_t n_ctf,
                                                 std::size_t n_ctt,
                                                 std::uint64_t seed) {
  std::vector<const BaselineEntry*> ctf, ctt;
  for (const auto& e : study.entries) {
    (e.ct_favoured() ? ctf : ctt).push_back(&e);
  }

  // Stratified pick: sort each class by UM slowdown and take evenly spaced
  // entries, with a seeded jitter inside each stratum so different seeds
  // give different (but still spread) samples.
  auto pick = [seed](std::vector<const BaselineEntry*>& pool,
                     std::size_t want) {
    std::vector<const BaselineEntry*> out;
    if (pool.empty() || want == 0) return out;
    std::sort(pool.begin(), pool.end(),
              [](const BaselineEntry* a, const BaselineEntry* b) {
                if (a->um_slowdown() != b->um_slowdown()) {
                  return a->um_slowdown() < b->um_slowdown();
                }
                return a->spec.label() < b->spec.label();
              });
    util::Xoshiro256 rng(seed ^ pool.size());
    const double stride =
        static_cast<double>(pool.size()) / static_cast<double>(want);
    for (std::size_t i = 0; i < want; ++i) {
      const double base = static_cast<double>(i) * stride;
      const double jitter = rng.uniform() * stride;
      const auto idx = std::min(
          static_cast<std::size_t>(base + jitter), pool.size() - 1);
      out.push_back(pool[idx]);
    }
    // De-duplicate (possible when want ~ pool size) keeping order.
    std::vector<const BaselineEntry*> uniq;
    for (const auto* e : out) {
      if (uniq.empty() || std::find(uniq.begin(), uniq.end(), e) == uniq.end()) {
        uniq.push_back(e);
      }
    }
    // Top up with unused neighbours if deduplication lost entries.
    for (const auto* e : pool) {
      if (uniq.size() >= want) break;
      if (std::find(uniq.begin(), uniq.end(), e) == uniq.end()) {
        uniq.push_back(e);
      }
    }
    return uniq;
  };

  std::vector<BaselineEntry> sample;
  for (const auto* e : pick(ctf, n_ctf)) sample.push_back(*e);
  for (const auto* e : pick(ctt, n_ctt)) sample.push_back(*e);
  return sample;
}

std::string default_cache_dir() {
  if (const char* dir = std::getenv("DICER_CACHE_DIR")) return dir;
  return ".";
}

}  // namespace dicer::harness
