// Figure 7: percentage of workloads whose HP achieves a given SLO
// (80 / 85 / 90 / 95 %) under UM / CT / DICER, versus employed cores.
//
// Paper shape targets: UM conformance collapses with more BEs; DICER
// matches or beats CT for SLOs up to 90 %, especially beyond half the
// cores; at 95 % DICER and CT are about equal. Headline: DICER meets an
// 80 % SLO for >90 % of workloads and a 90 % SLO for 74 % at 10 cores.
//
// The underlying sweep parallelises across --jobs workers (see
// bench_common.hpp); the rows are identical for any worker count.
#include "bench_common.hpp"
#include "metrics/metrics.hpp"
#include "util/stats.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;
  bench::BenchEnv env(argc, argv);
  env.args.reject_unknown();
  bench::print_header("Figure 7: HP SLO conformance vs employed cores");

  harness::ConsolidationConfig config;
  config.cores_used = 10;
  const auto study = env.study(config);
  const auto sample = env.sample(study);

  harness::SweepConfig sc;
  sc.base = config;
  const auto rows = env.sweep(sample, sc);

  util::CsvWriter csv(env.path("fig7_slo.csv"));
  csv.header({"slo", "cores", "um_pct", "ct_pct", "dicer_pct"});
  for (const double slo : {0.80, 0.85, 0.90, 0.95}) {
    std::cout << util::section("SLO = " + util::fmt(slo * 100) + "%");
    util::TextTable t;
    t.set_header({"cores", "UM (%)", "CT (%)", "DICER (%)"});
    for (unsigned cores : sc.cores) {
      std::vector<double> cells;
      for (const std::string pol : {"UM", "CT", "DICER"}) {
        std::vector<double> norms;
        for (const auto& r : harness::filter(rows, pol, cores)) {
          norms.push_back(r.hp_norm());
        }
        cells.push_back(100.0 * metrics::slo_conformance(norms, slo));
      }
      t.add_row(std::to_string(cores), cells, 1);
      csv.row_numeric({slo, static_cast<double>(cores), cells[0], cells[1],
                       cells[2]});
    }
    t.print();
  }

  // Headline numbers at full occupancy.
  auto conformance_at_10 = [&](double slo) {
    std::vector<double> norms;
    for (const auto& r : harness::filter(rows, "DICER", 10)) {
      norms.push_back(r.hp_norm());
    }
    return 100.0 * metrics::slo_conformance(norms, slo);
  };
  std::cout << "\nHeadline (10 cores): DICER meets SLO 80% for "
            << util::fmt_fixed(conformance_at_10(0.80), 1)
            << "% of workloads (paper >90%), SLO 90% for "
            << util::fmt_fixed(conformance_at_10(0.90), 1)
            << "% (paper 74%)\n";
  std::cout << "CSV: " << env.path("fig7_slo.csv") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
