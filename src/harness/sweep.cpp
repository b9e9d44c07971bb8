#include "harness/sweep.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>

#include "metrics/metrics.hpp"
#include "policy/factory.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/result_cache.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace dicer::harness {

namespace {

constexpr const char* kSweepHeader =
    "hp,be,policy,cores,ctf,hp_alone,be_alone,hp_ipc,be_ipc,efu";

std::string sweep_key(const sim::AppCatalog& catalog,
                      const std::vector<BaselineEntry>& sample,
                      const SweepConfig& config) {
  // Order-sensitive FNV over the sample labels, policies and core counts,
  // plus every config field that shapes results: machine geometry (cores,
  // frequency, LLC ways, link), the fixed-point solver knobs and the
  // consolidation window/MBA settings. Worker count and the solver
  // shortcuts are deliberately excluded — neither ever changes a row (the
  // shortcuts, bulk replay commits included, are byte-identical by
  // construction, and the equivalence tests hold them to that), so
  // flipping them must keep serving the same cache file.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  for (const auto& e : sample) mix(e.spec.label());
  for (const auto& p : config.policies) mix(p);
  for (unsigned c : config.cores) mix(std::to_string(c));
  const auto& m = config.base.machine;
  char buf[352];
  std::snprintf(buf, sizeof buf,
                "dicer-sweep-v6:%016llx:%016llx:%u:%u:%g:%g:%g:%u:%g:%g:%g:%d",
                static_cast<unsigned long long>(catalog_fingerprint(catalog)),
                static_cast<unsigned long long>(h), m.llc.ways, m.num_cores,
                m.freq_hz, m.link.capacity_bytes_per_sec, m.quantum_sec,
                m.fixed_point_rounds, m.fixed_point_damping,
                config.base.min_window_sec, config.base.max_window_sec,
                config.base.enable_mba ? 1 : 0);
  return buf;
}

}  // namespace

unsigned resolve_sweep_jobs(unsigned requested) {
  return util::ThreadPool::resolve_jobs(requested, "DICER_SWEEP_JOBS");
}

void run_grid(std::size_t n, unsigned jobs, const std::string& label,
              const std::function<void(std::size_t)>& body) {
  trace::ScopedTimer timer(label);
  const unsigned workers = resolve_sweep_jobs(jobs);
  std::atomic<std::size_t> done{0};
  auto run = [&](std::size_t i) {
    body(i);
    const std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (d % 500 == 0 || d == n) {
      DICER_INFO << label << ": " << d << "/" << n << " cells (" << workers
                 << " jobs)";
    }
  };
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(i);
  } else {
    util::ThreadPool pool(workers);
    util::parallel_for(pool, n, run);
  }
}

std::vector<SweepRow> policy_sweep(const sim::AppCatalog& catalog,
                                   const std::vector<BaselineEntry>& sample,
                                   const SweepConfig& config,
                                   const std::string& cache_path,
                                   bool force_recompute) {
  const util::ResultCache cache(cache_path, sweep_key(catalog, sample, config),
                                kSweepHeader);
  const std::size_t n_policies = config.policies.size();
  const std::size_t per_entry = config.cores.size() * n_policies;
  const std::size_t total = sample.size() * per_entry;
  if (!cache_path.empty() && !force_recompute) {
    trace::ScopedTimer timer("sweep.load_cache");
    auto rows = cache.load<SweepRow>(total, [](util::ResultCache::Row& c) {
      SweepRow r;
      r.hp = c.text();
      r.be = c.text();
      r.policy = c.text();
      r.cores = c.count();
      r.ct_favoured = c.flag();
      r.hp_alone = c.real();
      r.be_alone = c.real();
      r.hp_ipc = c.real();
      r.be_ipc = c.real();
      r.efu = c.real();
      return r;
    });
    if (rows) return *std::move(rows);
  }

  // Cell i is (sample entry, cores, policy) in the canonical order
  // sample x cores x policies. Each cell builds its own policy and
  // machine and writes only rows[i], so the rows are byte-identical to
  // the serial sweep whatever the worker count.
  std::vector<SweepRow> rows(total);
  run_grid(total, config.jobs, "sweep.compute", [&](std::size_t i) {
    const BaselineEntry& entry = sample[i / per_entry];
    ConsolidationConfig cc = config.base;
    cc.cores_used = config.cores[i % per_entry / n_policies];
    const std::string& pname = config.policies[i % n_policies];
    const auto pol = policy::make_policy(pname);
    const auto res =
        run_consolidation(catalog.by_name(entry.spec.hp),
                          catalog.by_name(entry.spec.be), *pol, cc);
    SweepRow& r = rows[i];
    r.hp = entry.spec.hp;
    r.be = entry.spec.be;
    r.policy = pname;
    r.cores = cc.cores_used;
    r.ct_favoured = entry.ct_favoured();
    r.hp_alone = entry.hp_alone_ipc;
    r.be_alone = entry.be_alone_ipc;
    r.hp_ipc = res.hp_ipc;
    r.be_ipc = res.be_ipc_mean;
    r.efu =
        metrics::effective_utilisation(res.ipc_pairs(r.hp_alone, r.be_alone));
  });

  if (!cache_path.empty()) {
    trace::ScopedTimer timer("sweep.save_cache");
    cache.save([&rows](std::ostream& out) {
      for (const auto& r : rows) {
        out << r.hp << ',' << r.be << ',' << r.policy << ',' << r.cores << ','
            << (r.ct_favoured ? 1 : 0) << ',' << util::fmt(r.hp_alone) << ','
            << util::fmt(r.be_alone) << ',' << util::fmt(r.hp_ipc) << ','
            << util::fmt(r.be_ipc) << ',' << util::fmt(r.efu) << "\n";
      }
    });
  }
  return rows;
}

std::vector<SweepRow> filter(const std::vector<SweepRow>& rows,
                             const std::string& policy, unsigned cores) {
  std::vector<SweepRow> out;
  for (const auto& r : rows) {
    if (r.policy == policy && r.cores == cores) out.push_back(r);
  }
  return out;
}

}  // namespace dicer::harness
