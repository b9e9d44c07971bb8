// Figure 6: geometric mean of effective system utilisation (Eq. 1) for
// UM / CT / DICER as the number of employed cores grows from 2 to 10
// (1 HP + N-1 BEs), over the 120 representative workloads.
//
// Paper shape targets: UM highest; DICER close behind (~0.6 at 10 cores);
// CT collapsing as BEs multiply inside their single way.
//
// The underlying sweep parallelises across --jobs workers (see
// bench_common.hpp); the rows are identical for any worker count.
#include "bench_common.hpp"
#include "util/stats.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;
  bench::BenchEnv env(argc, argv);
  env.reject_unknown();
  bench::print_header("Figure 6: geomean EFU vs employed cores");

  harness::ConsolidationConfig config;
  config.cores_used = 10;
  const auto study = env.study(config);
  const auto sample = env.sample(study);

  harness::SweepConfig sc;
  sc.base = config;
  const auto rows = env.sweep(sample, sc);

  util::TextTable t;
  t.set_header({"cores", "UM", "CT", "DICER"});
  util::CsvWriter csv(env.path("fig6_efu_cores.csv"));
  csv.header({"cores", "um_efu", "ct_efu", "dicer_efu"});
  for (unsigned cores : sc.cores) {
    std::vector<double> vals;
    std::vector<double> cells;
    for (const std::string pol : {"UM", "CT", "DICER"}) {
      vals.clear();
      for (const auto& r : harness::filter(rows, pol, cores)) {
        vals.push_back(r.efu);
      }
      cells.push_back(util::gmean(vals));
    }
    t.add_row(std::to_string(cores), cells, 3);
    csv.row_numeric(
        {static_cast<double>(cores), cells[0], cells[1], cells[2]});
  }
  t.print();

  std::cout << "\nExpected shape (paper Fig 6): UM > DICER >> CT at high core\n"
               "counts; DICER keeps EFU near 0.6 at 10 cores.\n";
  std::cout << "CSV: " << env.path("fig6_efu_cores.csv") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
