// Quickstart: consolidate one HP application with nine BE instances under
// the three co-location policies from the paper (UM, CT, DICER) and compare
// HP QoS and effective system utilisation.
//
//   ./quickstart [--hp milc1] [--be gcc_base3] [--cores 10]
//                [--trace-apps] [--profile-cache PATH] [--profile]
//
// --trace-apps augments the catalog with the trace-derived apps
// (trace_stream1, trace_wset1, trace_bimodal1, trace_mix1): each is
// profiled from its address stream by the single-pass MRC profiler
// (`sim::profile_mrc`, sampling a quarter of the cache sets), so they are
// usable as --hp/--be like any analytic app.
// --profile-cache persists the profiled curves across runs; --profile
// prints the scoped-timer/counter table (incl. the profiler.* group)
// to stderr on exit.
#include <cstdio>
#include <iostream>

#include "harness/consolidation.hpp"
#include "harness/solo.hpp"
#include "metrics/metrics.hpp"
#include "policy/factory.hpp"
#include "sim/core/catalog.hpp"
#include "sim/core/trace_apps.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;

  const util::CliArgs args(argc, argv);
  const std::string hp_name = args.get_or("hp", "milc1");
  const std::string be_name = args.get_or("be", "gcc_base3");
  const auto cores = util::count_flag(args, "cores", 10u);

  const bool trace_apps = args.has("trace-apps");
  const std::string profile_cache = args.get_or("profile-cache", "");
  const bool profile = args.get_bool("profile", false);
  args.reject_unknown();
  const sim::AppCatalog catalog =
      trace_apps ? sim::trace_augmented_catalog(profile_cache)
                 : sim::default_catalog();
  const auto& hp = catalog.by_name(hp_name);
  const auto& be = catalog.by_name(be_name);

  harness::ConsolidationConfig config;
  config.cores_used = cores;

  // Solo references: every QoS metric is normalised to running alone with
  // the full LLC (paper §4.1).
  const auto hp_alone =
      harness::solo_steady_state(hp, config.machine.llc.ways, config.machine);
  const auto be_alone =
      harness::solo_steady_state(be, config.machine.llc.ways, config.machine);

  std::cout << "HP  " << hp.name << " (" << to_string(hp.app_class)
            << "): IPC alone = " << hp_alone.ipc << ", solo run "
            << hp_alone.time_sec << " s\n";
  std::cout << "BEs " << be.name << " x" << (cores - 1) << " ("
            << to_string(be.app_class)
            << "): IPC alone = " << be_alone.ipc << "\n\n";

  util::TextTable table;
  table.set_header({"policy", "HP IPC", "HP slowdown", "HP norm", "BE norm",
                    "EFU", "link rho", "window s"});
  for (const std::string name : {"UM", "CT", "DICER"}) {
    const auto policy = policy::make_policy(name);
    const auto res = harness::run_consolidation(hp, be, *policy, config);
    const auto pairs = res.ipc_pairs(hp_alone.ipc, be_alone.ipc);
    table.add_row(name,
                  {res.hp_ipc, metrics::slowdown(hp_alone.ipc, res.hp_ipc),
                   res.hp_ipc / hp_alone.ipc, res.be_ipc_mean / be_alone.ipc,
                   metrics::effective_utilisation(pairs),
                   res.avg_link_utilisation, res.window_sec},
                  3);
  }
  table.print();
  if (profile) {
    const std::string timers = trace::TimerRegistry::global().format();
    if (!timers.empty()) std::cerr << "\n" << timers;
  }
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
