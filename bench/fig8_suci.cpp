// Figure 8: geometric mean of SUCI — the SLO-Effective-Utilisation Combined
// Index (Eqs. 4-5) — for UM / CT / DICER vs employed cores, for SLOs
// {80, 85, 90, 95}% and lambda in {1, 0.5, 2}.
//
// SUCI = c_SLO * EFU^lambda with c_SLO in {0,1}; a missed SLO zeroes the
// index. Because a single zero zeroes a geometric mean, the paper-style
// aggregate uses the geometric mean over (SUCI + eps) shifted back, i.e.
// we report gmean over workloads of max(SUCI, eps) with eps = 1e-3 —
// printed alongside the arithmetic mean for transparency.
//
// Paper shape target: DICER clearly best for every SLO and lambda.
//
// The underlying sweep parallelises across --jobs workers (see
// bench_common.hpp); the rows are identical for any worker count.
#include "bench_common.hpp"
#include "metrics/metrics.hpp"
#include "util/stats.hpp"

namespace {

constexpr double kEps = 1e-3;

double suci_gmean(const std::vector<dicer::harness::SweepRow>& rows,
                  double slo, double lambda) {
  std::vector<double> vals;
  for (const auto& r : rows) {
    const bool met = r.hp_norm() >= slo;
    vals.push_back(
        std::max(dicer::metrics::suci(met, r.efu, lambda), kEps));
  }
  return dicer::util::gmean(vals);
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace dicer;
  bench::BenchEnv env(argc, argv);
  env.reject_unknown();
  bench::print_header("Figure 8: geomean SUCI vs employed cores");

  harness::ConsolidationConfig config;
  config.cores_used = 10;
  const auto study = env.study(config);
  const auto sample = env.sample(study);

  harness::SweepConfig sc;
  sc.base = config;
  const auto rows = env.sweep(sample, sc);

  util::CsvWriter csv(env.path("fig8_suci.csv"));
  csv.header({"lambda", "slo", "cores", "um", "ct", "dicer"});
  for (const double lambda : {1.0, 0.5, 2.0}) {
    for (const double slo : {0.80, 0.85, 0.90, 0.95}) {
      std::cout << util::section("lambda = " + util::fmt(lambda) +
                                 ", SLO = " + util::fmt(slo * 100) + "%");
      util::TextTable t;
      t.set_header({"cores", "UM", "CT", "DICER"});
      for (unsigned cores : sc.cores) {
        std::vector<double> cells;
        for (const std::string pol : {"UM", "CT", "DICER"}) {
          cells.push_back(
              suci_gmean(harness::filter(rows, pol, cores), slo, lambda));
        }
        t.add_row(std::to_string(cores), cells, 3);
        csv.row_numeric({lambda, slo, static_cast<double>(cores), cells[0],
                         cells[1], cells[2]});
      }
      t.print();
    }
  }

  std::cout << "\nExpected shape (paper Fig 8): DICER outperforms UM and CT\n"
               "for all SLOs and lambdas.\n";
  std::cout << "CSV: " << env.path("fig8_suci.csv") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
