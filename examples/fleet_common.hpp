// Shared plumbing for the fleet front-ends (fleet_sim, fleet_top): the
// common --machines/--cores/... -> FleetConfig mapping plus the standard
// observability flags, matching bench_common.hpp:
//
//   --log-level L      debug|info|warn|error|off (same as DICER_LOG; the
//                      flag wins over the env var; any other value is
//                      rejected)
//   --trace PATH       record structured trace events to PATH — JSONL, or
//                      CSV when PATH ends in .csv (same as DICER_TRACE)
//   --profile          print the scoped-timer profile (fleet.epoch /
//                      fleet.placement / fleet.step / fleet.reduce) to
//                      stderr on exit
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "fleet/cluster.hpp"
#include "sim/core/trace_apps.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dicer::examples {

/// The fleet-shape flags shared by every fleet front-end. Defaults match
/// fleet_sim's documented ones; callers override per-binary defaults by
/// passing them through `args`. A value FleetConfig::validate() rejects
/// (`--slo -1`, `--epoch inf`, `--machines 0`, ...) throws CliError, like
/// every other bad flag value.
inline fleet::FleetConfig fleet_config_from(const util::CliArgs& args) {
  fleet::FleetConfig fc;
  fc.num_machines = util::count_flag(args, "machines", 500u);
  fc.cores_used = util::count_flag(args, "cores", 10u);
  fc.policy = args.get_or("policy", "DICER");
  fc.placement = args.get_or("placement", "mrc");
  fc.epoch_sec = args.get_double("epoch", 1.0);
  fc.slo_norm = args.get_double("slo", 0.90);
  fc.migrate_after = util::count_flag(args, "migrate-after", 3u);
  fc.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  fc.jobs = util::jobs_flag(args);
  const long p2c_d =
      args.get_int("p2c-d", fleet::MrcP2cPlacement::kChoices);
  if (p2c_d < 1) {
    throw util::CliError("invalid value for --p2c-d: '" +
                         std::to_string(p2c_d) +
                         "' (expected an integer >= 1)");
  }
  fc.p2c_choices = static_cast<unsigned>(p2c_d);
  // Default churn: ~40 arrivals/s across the fleet with ~8 s lifetimes
  // holds a 500-machine fleet around 320 concurrent tenants — busy enough
  // that placement quality shows, loose enough that nothing is rejected
  // wholesale.
  fc.churn.arrival_rate_per_sec = args.get_double("arrival-rate", 40.0);
  fc.churn.mean_lifetime_sec = args.get_double("mean-lifetime", 8.0);
  fc.churn.seed = fc.seed + 1;
  try {
    fc.validate();
  } catch (const std::invalid_argument& e) {
    throw util::CliError(std::string("invalid fleet flags: ") + e.what());
  }
  return fc;
}

/// Whether --catalog asks for the trace-augmented catalog (default|trace;
/// throws CliError on anything else). Building that catalog profiles
/// every trace app, so front-ends build it only once reject_unknown() has
/// passed.
inline bool trace_catalog_flag(const util::CliArgs& args) {
  const std::string name = args.get_or("catalog", "default");
  if (name != "default" && name != "trace") {
    throw util::CliError("invalid value for --catalog: '" + name +
                         "' (expected default or trace)");
  }
  return name == "trace";
}

/// RAII for the observability flags: applies --log-level, and — once
/// reject_unknown() has passed — attaches a --trace/DICER_TRACE file sink
/// to the global tracer; prints the scoped-timer profile on destruction
/// under --profile.
struct FleetEnv {
  const util::CliArgs& args;  ///< the front-end's flags; outlive the env
  bool profile = false;
  std::shared_ptr<trace::Sink> trace_sink;
  std::string trace_path;

  explicit FleetEnv(const util::CliArgs& cli_args) : args(cli_args) {
    profile = args.get_bool("profile", false);
    util::apply_log_level_flag(args);
    trace_path = args.get_or("trace", "");
    if (trace_path.empty()) {
      if (const char* env = std::getenv("DICER_TRACE")) trace_path = env;
    }
  }

  /// args.reject_unknown(), then the side effects the flags ask for: no
  /// file is created for a command line that fails or asks for --help.
  void reject_unknown() {
    args.reject_unknown();
    if (!trace_path.empty()) {
      trace_sink = trace::make_file_sink(trace_path);
      trace::Tracer::global().add_sink(trace_sink);
    }
  }

  FleetEnv(const FleetEnv&) = delete;
  FleetEnv& operator=(const FleetEnv&) = delete;

  ~FleetEnv() {
    if (trace_sink) {
      trace::Tracer::global().remove_sink(trace_sink);  // flushes
      std::cerr << "trace: " << trace_path << "\n";
    }
    if (profile) {
      const std::string table = trace::TimerRegistry::global().format();
      if (!table.empty()) std::cerr << "\n" << table;
    }
  }
};

}  // namespace dicer::examples
