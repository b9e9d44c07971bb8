// Fleet-scale consolidation: a datacenter of DICER machines under tenant
// churn, driven by a pluggable placement engine.
//
//   ./fleet_sim [--machines 500] [--epochs 20] [--placement mrc]
//               [--policy DICER] [--cores 10] [--arrival-rate 40]
//               [--mean-lifetime 8] [--slo 0.9] [--seed 42] [--jobs 0]
//               [--p2c-d 5] [--catalog default|trace] [--csv fleet.csv]
//               [--metrics-out metrics.prom] [--metrics-jsonl epochs.jsonl]
//               [--trace fleet.jsonl] [--log-level info] [--profile]
//               [--compare]
//
// --jobs shards the data plane (machine stepping) over worker threads; the
// control plane decides placements serially either way. --p2c-d sets the
// mrc-p2c engine's power-of-d-choices fan-out (>= 1). Any other flag is an
// error (exit 2).
//
// Emits one CSV row per epoch (stdout, or --csv FILE) with the fleet
// aggregates: tenant count, arrivals/departures/rejections/migrations,
// fleet EFU, mean HP QoS, SLO-violation rate, mean link utilisation, plus
// the EFU / HP-slowdown tail percentiles. Same seed + config =>
// byte-identical CSV at any --jobs.
//
// --metrics-out writes the end-of-run telemetry registry (fleet
// distributions, actuation counters, solver stats) in Prometheus text
// format, atomically; --metrics-jsonl writes the per-epoch rows as a JSONL
// time series. Both exports inherit the CSV's determinism contract.
//
// --compare re-runs the identical churn sequence under every placement
// engine and prints a mean-EFU-vs-cost scoreboard — the "does MRC-aware
// placement beat random, and what does each decision cost?" answer in one
// table (the wall-clock column is the one non-deterministic cell).
#include <chrono>
#include <fstream>
#include <iostream>
#include <ostream>

#include "fleet_common.hpp"
#include "fleet/cluster.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;

  const util::CliArgs args(argc, argv);
  const auto epochs = util::count_flag<std::uint64_t>(args, "epochs", 20);
  const std::string csv_path = args.get_or("csv", "");
  const std::string metrics_path = args.get_or("metrics-out", "");
  const std::string jsonl_path = args.get_or("metrics-jsonl", "");

  const bool trace_catalog = examples::trace_catalog_flag(args);
  examples::FleetEnv env(args);
  fleet::FleetConfig fc = examples::fleet_config_from(args);
  const bool compare = args.get_bool("compare", false);
  env.reject_unknown();
  const sim::AppCatalog catalog =
      trace_catalog ? sim::trace_augmented_catalog() : sim::AppCatalog();

  if (compare) {
    // Same churn + same fleet, one run per engine: the placement engine is
    // the only variable.
    util::TextTable table;
    table.set_header({"placement", "mean EFU", "HP norm", "rejected",
                      "migrations", "SLO viol rate", "wall ms/epoch"});
    for (const auto& name : fleet::known_placements()) {
      fc.placement = name;
      fleet::Cluster cluster(fc, catalog);
      const auto t0 = std::chrono::steady_clock::now();
      const auto rows = cluster.run(epochs);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      std::uint64_t rejected = 0, migrations = 0;
      double hp_norm = 0.0, viol = 0.0;
      for (const auto& r : rows) {
        rejected += r.rejected;
        migrations += r.migrations;
        hp_norm += r.hp_norm_mean;
        viol += r.slo_violation_rate;
      }
      const auto n = static_cast<double>(rows.size());
      table.add_row({name, util::fmt_fixed(fleet::Cluster::mean_efu(rows), 4),
                     util::fmt_fixed(hp_norm / n, 4),
                     std::to_string(rejected), std::to_string(migrations),
                     util::fmt_fixed(viol / n, 4),
                     util::fmt_fixed(wall_ms / n, 2)});
    }
    std::cout << "Fleet of " << fc.num_machines << " machines, " << epochs
              << " epochs, " << fc.policy << " policy:\n\n";
    table.print();
    return 0;
  }

  // A run-local registry keeps exports self-contained; the trace-counter
  // sink turns the policies' existing event emission (allocations,
  // sampling passes, donations, resets, placements, migrations) into
  // actuation counters without touching the policy code.
  telemetry::Registry registry;
  auto counter_sink =
      std::make_shared<telemetry::TraceCounterSink>(registry);
  trace::Tracer::global().add_sink(counter_sink);
  fc.metrics = &registry;

  fleet::Cluster cluster(fc, catalog);

  std::ofstream file;
  if (!csv_path.empty()) {
    file.open(csv_path);
    if (!file) {
      throw std::runtime_error("cannot open --csv file '" + csv_path + "'");
    }
  }
  std::ostream& out = csv_path.empty() ? std::cout : file;

  std::ofstream jsonl;
  if (!jsonl_path.empty()) {
    jsonl.open(jsonl_path);
    if (!jsonl) {
      throw std::runtime_error("cannot open --metrics-jsonl file '" +
                               jsonl_path + "'");
    }
  }

  out << fleet::epoch_csv_header() << '\n';
  std::vector<fleet::EpochMetrics> rows;
  rows.reserve(epochs);
  for (std::uint64_t e = 0; e < epochs; ++e) {
    rows.push_back(cluster.step_epoch());
    out << fleet::epoch_csv_row(rows.back()) << '\n';
    if (jsonl.is_open()) {
      jsonl << fleet::epoch_jsonl_row(rows.back()) << '\n';
    }
  }
  trace::Tracer::global().remove_sink(counter_sink);

  if (!metrics_path.empty()) {
    telemetry::write_prometheus(registry, metrics_path);
    std::cout << "wrote " << registry.size() << " metrics to "
              << metrics_path << '\n';
  }
  if (!jsonl_path.empty()) {
    std::cout << "wrote " << epochs << " epoch rows to " << jsonl_path
              << '\n';
  }
  if (!csv_path.empty()) {
    std::cout << "wrote " << epochs << " epochs to " << csv_path << '\n';
  }
  std::cout << "fleet: " << fc.num_machines << " machines ("
            << fc.placement << " placement), mean EFU "
            << util::fmt_fixed(fleet::Cluster::mean_efu(rows), 4) << ", "
            << cluster.tenants_running() << " tenants running, "
            << cluster.placement_log().size() << " placement decisions\n";
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
