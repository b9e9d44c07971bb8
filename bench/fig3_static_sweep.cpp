// Figure 3: HP slowdown for every static LLC partition, for the paper's
// example workload milc (HP) + 9x gcc (BEs). The x axis is the number of
// ways assigned to HP; the remaining ways go to the BEs. UM and the three
// co-location policies are shown for reference.
//
// Paper shape targets: HP performs best around 2 ways (~1.09x), stays near
// best for 3-6 ways, and degrades towards CT's 19 ways (~1.45x); UM sits
// close to the best static configuration.
#include "bench_common.hpp"
#include "harness/consolidation.hpp"
#include "harness/solo.hpp"
#include "policy/baselines.hpp"
#include "policy/factory.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;
  bench::BenchEnv env(argc, argv);
  const std::string hp_name = env.args.get_or("hp", "milc1");
  const std::string be_name = env.args.get_or("be", "gcc_base3");
  env.reject_unknown();
  bench::print_header("Figure 3: static LLC sweeps for " + hp_name +
                      " (HP) + 9x " + be_name + " (BEs)");

  const auto& catalog = sim::default_catalog();
  const auto& hp = catalog.by_name(hp_name);
  const auto& be = catalog.by_name(be_name);

  harness::ConsolidationConfig config;
  config.cores_used = 10;
  const double hp_alone =
      harness::solo_steady_state(hp, config.machine.llc.ways, config.machine)
          .ipc;

  util::TextTable t;
  t.set_header({"HP ways", "HP slowdown", "HP norm IPC", "BE norm IPC",
                "link rho"});
  util::CsvWriter csv(env.path("fig3_static_sweep.csv"));
  csv.header({"hp_ways", "hp_slowdown", "hp_norm", "be_norm", "rho"});

  double best_slowdown = 1e9;
  unsigned best_ways = 0;
  const double be_alone =
      harness::solo_steady_state(be, config.machine.llc.ways, config.machine)
          .ipc;
  for (unsigned w = 1; w <= config.machine.llc.ways - 1; ++w) {
    policy::StaticPartition pol(w);
    const auto res = harness::run_consolidation(hp, be, pol, config);
    const double slowdown = hp_alone / res.hp_ipc;
    if (slowdown < best_slowdown) {
      best_slowdown = slowdown;
      best_ways = w;
    }
    t.add_row(std::to_string(w),
              {slowdown, res.hp_ipc / hp_alone, res.be_ipc_mean / be_alone,
               res.avg_link_utilisation},
              3);
    csv.row_numeric({static_cast<double>(w), slowdown, res.hp_ipc / hp_alone,
                     res.be_ipc_mean / be_alone, res.avg_link_utilisation});
  }
  t.add_rule();
  for (const std::string name : {"UM", "CT", "DICER"}) {
    const auto pol = policy::make_policy(name);
    const auto res = harness::run_consolidation(hp, be, *pol, config);
    t.add_row(name,
              {hp_alone / res.hp_ipc, res.hp_ipc / hp_alone,
               res.be_ipc_mean / be_alone, res.avg_link_utilisation},
              3);
  }
  t.print();

  std::cout << "\nBest static allocation: " << best_ways << " ways, slowdown "
            << util::fmt_fixed(best_slowdown, 3)
            << " (paper: 2 ways, ~1.09; CT at 19 ways ~1.45)\n";
  std::cout << "CSV: " << env.path("fig3_static_sweep.csv") << "\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
