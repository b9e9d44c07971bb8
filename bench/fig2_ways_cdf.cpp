// Figure 2: cumulative distribution of the minimum LLC ways each
// application needs, when running alone, to reach 90% / 95% / 99% of the
// performance it achieves with all 20 ways.
//
// Paper shape targets: 50% of applications reach 99% of max performance
// with only 6 ways; 90% of applications reach 90% of max performance with
// only 5 ways.
#include "bench_common.hpp"
#include "harness/solo.hpp"
#include "util/stats.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;
  bench::BenchEnv env(argc, argv);
  env.args.reject_unknown();
  bench::print_header(
      "Figure 2: CDF of LLC ways needed for 90/95/99% of solo performance");

  const sim::MachineConfig mc;
  const auto& catalog = sim::default_catalog();

  const std::vector<double> fractions = {0.90, 0.95, 0.99};
  std::vector<std::vector<double>> min_ways(fractions.size());
  for (const auto& app : catalog.profiles()) {
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      min_ways[f].push_back(static_cast<double>(
          harness::min_ways_for_fraction(app, fractions[f], mc)));
    }
  }

  util::TextTable t;
  t.set_header({"allocated ways", "90% (% apps)", "95% (% apps)",
                "99% (% apps)"});
  util::CsvWriter csv(env.path("fig2_ways_cdf.csv"));
  csv.header({"ways", "pct_apps_90", "pct_apps_95", "pct_apps_99"});
  for (unsigned w = 1; w <= mc.llc.ways; ++w) {
    std::vector<double> row;
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      row.push_back(100.0 *
                    util::cdf_at(min_ways[f], static_cast<double>(w)));
    }
    t.add_row(std::to_string(w), row, 1);
    csv.row_numeric({static_cast<double>(w), row[0], row[1], row[2]});
  }
  t.print();

  std::cout << "\nHeadline shape vs paper (Section 2.3.1):\n"
            << "  apps reaching 99% of max perf with <=6 ways: "
            << util::fmt_fixed(100.0 * util::cdf_at(min_ways[2], 6.0), 1)
            << "% (paper ~50%)\n"
            << "  apps reaching 90% of max perf with <=5 ways: "
            << util::fmt_fixed(100.0 * util::cdf_at(min_ways[0], 5.0), 1)
            << "% (paper ~90%)\n";
  std::cout << "\nCSV: " << env.path("fig2_ways_cdf.csv") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
