// Figure 4: scatter of effective system utilisation (EFU, Eq. 1) against
// HP slowdown for the 120 representative workloads under UM and CT.
//
// Paper shape targets: UM reaches clearly higher EFU than CT across the
// board, but stretches to much larger HP slowdowns; CT clusters at low
// slowdown and low EFU.
#include <algorithm>

#include "bench_common.hpp"
#include "util/stats.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;
  bench::BenchEnv env(argc, argv);
  env.args.reject_unknown();
  bench::print_header("Figure 4: EFU vs HP slowdown (120 workloads, UM & CT)");

  harness::ConsolidationConfig config;
  config.cores_used = 10;
  const auto study = env.study(config);
  const auto sample = env.sample(study);

  util::CsvWriter csv(env.path("fig4_efu_scatter.csv"));
  csv.header({"hp", "be", "class", "um_slowdown", "um_efu", "ct_slowdown",
              "ct_efu"});
  std::vector<double> um_sl, um_efu, ct_sl, ct_efu;
  for (const auto& e : sample) {
    um_sl.push_back(e.um_slowdown());
    um_efu.push_back(e.um_efu);
    ct_sl.push_back(e.ct_slowdown());
    ct_efu.push_back(e.ct_efu);
    csv.row({e.spec.hp, e.spec.be, e.ct_favoured() ? "CT-F" : "CT-T",
             util::fmt(e.um_slowdown()), util::fmt(e.um_efu),
             util::fmt(e.ct_slowdown()), util::fmt(e.ct_efu)});
  }

  util::TextTable t;
  t.set_header({"policy", "EFU p25", "EFU med", "EFU p75", "slowdown med",
                "slowdown p95", "slowdown max"});
  t.add_row("UM",
            {util::percentile(um_efu, 25), util::median(um_efu),
             util::percentile(um_efu, 75), util::median(um_sl),
             util::percentile(um_sl, 95), util::max(um_sl)},
            3);
  t.add_row("CT",
            {util::percentile(ct_efu, 25), util::median(ct_efu),
             util::percentile(ct_efu, 75), util::median(ct_sl),
             util::percentile(ct_sl, 95), util::max(ct_sl)},
            3);
  t.print();

  std::cout << "\nSample: " << sample.size() << " workloads ("
            << std::count_if(sample.begin(), sample.end(),
                             [](const auto& e) { return e.ct_favoured(); })
            << " CT-F, "
            << std::count_if(sample.begin(), sample.end(),
                             [](const auto& e) { return !e.ct_favoured(); })
            << " CT-T; paper: 50 + 70)\n";
  std::cout << "Scatter points: " << env.path("fig4_efu_scatter.csv") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
