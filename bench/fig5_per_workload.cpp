// Figure 5: per-workload HP (top) and BE (bottom) IPC normalised to solo
// execution, under UM / CT / DICER, with workloads split into CT-F and
// CT-T classes — the 10-core slice of the policy sweep.
//
// Paper shape targets: DICER tracks CT on CT-F workloads and UM on CT-T
// workloads for the HP, and improves BE performance over CT everywhere.
//
// The underlying sweep parallelises across --jobs workers (see
// bench_common.hpp); the rows are identical for any worker count.
#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

double gmean_of(const std::vector<dicer::harness::SweepRow>& rows,
                bool ctf, bool hp) {
  std::vector<double> vals;
  for (const auto& r : rows) {
    if (r.ct_favoured != ctf) continue;
    vals.push_back(hp ? r.hp_norm() : r.be_norm());
  }
  return dicer::util::gmean(vals);
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace dicer;
  bench::BenchEnv env(argc, argv);
  env.args.reject_unknown();
  bench::print_header(
      "Figure 5: per-workload normalised HP/BE IPC (UM/CT/DICER, 10 cores)");

  harness::ConsolidationConfig config;
  config.cores_used = 10;
  const auto study = env.study(config);
  const auto sample = env.sample(study);

  harness::SweepConfig sc;
  sc.base = config;
  const auto rows = env.sweep(sample, sc);

  const auto um = harness::filter(rows, "UM", 10);
  const auto ct = harness::filter(rows, "CT", 10);
  const auto dicer_rows = harness::filter(rows, "DICER", 10);

  // Full per-workload series to CSV (the paper plots every workload).
  util::CsvWriter csv(env.path("fig5_per_workload.csv"));
  csv.header({"class", "hp", "be", "um_hp", "ct_hp", "dicer_hp", "um_be",
              "ct_be", "dicer_be"});
  for (std::size_t i = 0; i < um.size(); ++i) {
    csv.row({um[i].ct_favoured ? "CT-F" : "CT-T", um[i].hp, um[i].be,
             util::fmt(um[i].hp_norm()), util::fmt(ct[i].hp_norm()),
             util::fmt(dicer_rows[i].hp_norm()), util::fmt(um[i].be_norm()),
             util::fmt(ct[i].be_norm()), util::fmt(dicer_rows[i].be_norm())});
  }

  // Condensed per-class geometric means on stdout.
  util::TextTable t;
  t.set_header({"series", "UM", "CT", "DICER"});
  for (const bool ctf : {true, false}) {
    const std::string cls = ctf ? "CT-F" : "CT-T";
    t.add_row(cls + "  HP norm IPC (gmean)",
              {gmean_of(um, ctf, true), gmean_of(ct, ctf, true),
               gmean_of(dicer_rows, ctf, true)},
              3);
    t.add_row(cls + "  BE norm IPC (gmean)",
              {gmean_of(um, ctf, false), gmean_of(ct, ctf, false),
               gmean_of(dicer_rows, ctf, false)},
              3);
    t.add_rule();
  }
  t.print();

  std::cout << "\nExpected shape (paper Fig 5): DICER ~ CT on CT-F HPs,\n"
               "DICER ~ UM on CT-T HPs, DICER BE > CT BE everywhere.\n";
  std::cout << "Per-workload series: " << env.path("fig5_per_workload.csv")
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
