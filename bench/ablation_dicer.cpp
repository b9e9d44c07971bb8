// Ablation: which parts of DICER matter?
//
//  - DICER-noBW: bandwidth-saturation detection removed (the DCP-QoS /
//    Cook-style controller the related work section criticises).
//  - DICER+MBA: the paper's future-work extension that throttles the BE
//    class with MBA when the link saturates.
//  - DICER-literal: resample_cooldown_periods = 0, the literal Listing 1
//    driver that resamples on every saturated period.
//  - DICER-noPhase: phase_threshold effectively infinite — no phase
//    detection, resets driven by IPC only.
//
// Reported per variant over the 120-workload sample at 10 cores: HP SLO
// conformance (80/90%), geomean EFU, geomean SUCI(SLO=90%, lambda=1), and
// controller activity counters. --stats widens the table with the full
// DicerStats breakdown (settle steps, phase vs perf resets, rollbacks)
// plus the simulator's convergence counters (replay hit rate, mean
// fixed-point rounds per solve) summed over the variant's runs.
#include <memory>

#include "bench_common.hpp"
#include "metrics/metrics.hpp"
#include "policy/extensions.hpp"
#include "policy/factory.hpp"
#include "util/stats.hpp"

namespace {

using namespace dicer;

std::unique_ptr<policy::Dicer> make_variant(const std::string& name) {
  policy::DicerConfig cfg;
  if (name == "DICER") return std::make_unique<policy::Dicer>(cfg);
  if (name == "DICER-noBW") return std::make_unique<policy::DicerNoBw>(cfg);
  if (name == "DICER+MBA") return std::make_unique<policy::DicerMba>();
  if (name == "DICER-literal") {
    cfg.resample_cooldown_periods = 0;
    return std::make_unique<policy::Dicer>(cfg);
  }
  if (name == "DICER-noPhase") {
    cfg.phase_threshold = 1e9;
    return std::make_unique<policy::Dicer>(cfg);
  }
  throw std::invalid_argument("unknown variant " + name);
}

}  // namespace

static int run(int argc, char** argv) {
  bench::BenchEnv env(argc, argv);
  // --stats appends the remaining DicerStats counters as extra columns;
  // the default layout (and the committed CSV schema) stays unchanged.
  const bool full_stats = env.args.get_bool("stats", false);
  env.reject_unknown();
  bench::print_header("Ablation: DICER variants (120 workloads, 10 cores)");

  harness::ConsolidationConfig config;
  config.cores_used = 10;
  config.enable_mba = true;  // platform exposes MBA for the +MBA variant
  const auto study = env.study(config);
  const auto sample = env.sample(study);

  const std::vector<std::string> variants = {
      "DICER", "DICER-noBW", "DICER+MBA", "DICER-literal", "DICER-noPhase"};

  std::vector<std::string> head = {"variant", "SLO80 (%)", "SLO90 (%)",
                                   "EFU gmean", "SUCI90 gmean", "samplings",
                                   "donations", "resets"};
  std::vector<std::string> csv_head = {"variant", "slo80", "slo90",
                                       "efu",     "suci90", "samplings",
                                       "donations", "resets"};
  if (full_stats) {
    for (const char* c : {"settle_steps", "phase_resets", "perf_resets",
                          "rollbacks", "replay_pct", "rounds_mean"}) {
      head.push_back(c);
      csv_head.push_back(c);
    }
  }
  util::TextTable t;
  t.set_header(head);
  util::CsvWriter csv(env.path("ablation_dicer.csv"));
  csv.header(csv_head);

  const auto& catalog = sim::default_catalog();
  for (const auto& vname : variants) {
    std::vector<double> norms, efus, sucis;
    policy::DicerStats sum;
    sim::SolverStats solver;
    for (const auto& e : sample) {
      auto pol = make_variant(vname);
      const auto res = harness::run_consolidation(
          catalog.by_name(e.spec.hp), catalog.by_name(e.spec.be), *pol,
          config);
      const double norm = res.hp_ipc / e.hp_alone_ipc;
      const double efu = metrics::effective_utilisation(
          res.ipc_pairs(e.hp_alone_ipc, e.be_alone_ipc));
      norms.push_back(norm);
      efus.push_back(efu);
      sucis.push_back(
          std::max(metrics::suci(norm >= 0.90, efu, 1.0), 1e-3));
      const auto& st = pol->stats();
      sum.periods += st.periods;
      sum.samplings += st.samplings;
      sum.sampling_steps += st.sampling_steps;
      sum.way_donations += st.way_donations;
      sum.phase_resets += st.phase_resets;
      sum.perf_resets += st.perf_resets;
      sum.rollbacks += st.rollbacks;
      solver.merge(res.solver);
    }
    const double slo80 = 100.0 * metrics::slo_conformance(norms, 0.80);
    const double slo90 = 100.0 * metrics::slo_conformance(norms, 0.90);
    const double efu_g = util::gmean(efus);
    const double suci_g = util::gmean(sucis);
    std::vector<double> cols = {
        slo80,
        slo90,
        efu_g,
        suci_g,
        static_cast<double>(sum.samplings),
        static_cast<double>(sum.way_donations),
        static_cast<double>(sum.phase_resets + sum.perf_resets)};
    if (full_stats) {
      cols.push_back(static_cast<double>(sum.sampling_steps));
      cols.push_back(static_cast<double>(sum.phase_resets));
      cols.push_back(static_cast<double>(sum.perf_resets));
      cols.push_back(static_cast<double>(sum.rollbacks));
      cols.push_back(solver.quanta
                         ? 100.0 * static_cast<double>(solver.replays) /
                               static_cast<double>(solver.quanta)
                         : 0.0);
      cols.push_back(solver.solves
                         ? static_cast<double>(solver.total_rounds()) /
                               static_cast<double>(solver.solves)
                         : 0.0);
    }
    t.add_row(vname, cols, -1);
    csv.row_labeled(vname, cols);
  }
  t.print();
  std::cout << "\nCSV: " << env.path("ablation_dicer.csv") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
