// Figure 1: cumulative distribution of HP slowdown when co-located with
// 9 BEs, under UM and CT, over all 59x59 = 3481 multiprogrammed workloads.
// Also prints the CT-F / CT-T classification split (§2.3.3: ~60% CT-T).
//
// Paper shape targets: under UM ~64% of workloads land around 1.1x, <5%
// are unaffected, ~29% fall in 1.1x-2x and ~2.5% exceed 2x; CT lifts the
// unaffected share to ~15% and shrinks the 1.1x-2x band to ~8%.
#include "bench_common.hpp"
#include "util/stats.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;
  bench::BenchEnv env(argc, argv);
  env.reject_unknown();
  bench::print_header("Figure 1: CDF of HP slowdown with 9 BEs (UM vs CT)");

  harness::ConsolidationConfig config;
  config.cores_used = 10;
  const auto study = env.study(config);

  std::vector<double> um, ct;
  um.reserve(study.entries.size());
  ct.reserve(study.entries.size());
  for (const auto& e : study.entries) {
    um.push_back(e.um_slowdown());
    ct.push_back(e.ct_slowdown());
  }

  // The paper's x ticks.
  const std::vector<double> ticks = {1.0, 1.05, 1.1, 1.2, 1.3, 1.5,
                                     1.7, 2.0, 3.0, 4.0, 5.0};
  util::TextTable table;
  table.set_header({"slowdown <=", "UM (% wl)", "CT (% wl)"});
  util::CsvWriter csv(env.path("fig1_slowdown_cdf.csv"));
  csv.header({"slowdown", "um_cdf_pct", "ct_cdf_pct"});
  for (double t : ticks) {
    const double u = 100.0 * util::cdf_at(um, t);
    const double c = 100.0 * util::cdf_at(ct, t);
    table.add_row(util::fmt(t), {u, c}, 1);
    csv.row_numeric({t, u, c});
  }
  table.print();

  const double unaffected_um = 100.0 * util::cdf_at(um, 1.02);
  const double unaffected_ct = 100.0 * util::cdf_at(ct, 1.02);
  const double band_um =
      100.0 * (util::cdf_at(um, 2.0) - util::cdf_at(um, 1.1));
  const double band_ct =
      100.0 * (util::cdf_at(ct, 2.0) - util::cdf_at(ct, 1.1));
  const double tail_um = 100.0 * (1.0 - util::cdf_at(um, 2.0));

  std::cout << "\nHeadline shape vs paper (Section 2.3):\n";
  std::cout << "  unaffected (<=1.02x): UM " << util::fmt_fixed(unaffected_um, 1)
            << "% (paper <5%), CT " << util::fmt_fixed(unaffected_ct, 1)
            << "% (paper ~15%)\n";
  std::cout << "  1.1x..2x band: UM " << util::fmt_fixed(band_um, 1)
            << "% (paper ~29%), CT " << util::fmt_fixed(band_ct, 1)
            << "% (paper ~8%)\n";
  std::cout << "  >2x tail: UM " << util::fmt_fixed(tail_um, 1)
            << "% (paper ~2.5%)\n";
  std::cout << "  CT-Thwarted share: "
            << util::fmt_fixed(100.0 * study.fraction_ct_thwarted(), 1)
            << "% of 3481 workloads (paper ~60%)\n";
  std::cout << "\nCSV: " << env.path("fig1_slowdown_cdf.csv") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
