// Shared plumbing for the figure-reproduction benches: standard flags,
// cache/result file locations, and access to the baseline study and the
// 120-workload representative sample.
//
// Common flags (all benches):
//   --recompute        ignore on-disk caches and re-run the underlying study
//   --cache-dir DIR    where caches/CSVs live (default $DICER_CACHE_DIR or .)
//   --jobs N           workers for the baseline study and the policy sweep
//                      (default $DICER_SWEEP_JOBS, else all hardware
//                      threads; at most 4x the hardware threads; negative
//                      counts are rejected; results are identical for any
//                      worker count)
//   --log-level L      debug|info|warn|error|off (same as DICER_LOG; the
//                      flag wins over the env var; any other value is
//                      rejected)
//   --trace PATH       record structured trace events to PATH for the
//                      whole bench run — JSONL, or CSV when PATH ends in
//                      .csv (same as DICER_TRACE; the flag wins)
//   --profile          print the scoped-timer profile (baseline and sweep
//                      stages, per-consolidation cost) to stderr on exit
//
// Each bench reads its own flags from env.args, then calls
// env.args.reject_unknown() before simulating anything, so a misspelled or
// unsupported flag exits 2 with "unknown flag --X" instead of being ignored.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "sim/core/catalog.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dicer::bench {

struct BenchEnv {
  util::CliArgs args;
  std::string cache_dir;
  bool recompute = false;
  unsigned jobs = 0;  ///< study/sweep workers; 0 = auto (env, then hardware)
  bool profile = false;
  std::shared_ptr<trace::Sink> trace_sink;  ///< set iff --trace/DICER_TRACE
  std::string trace_path;

  explicit BenchEnv(int argc, char** argv) : args(argc, argv) {
    cache_dir = args.get_or("cache-dir", harness::default_cache_dir());
    std::filesystem::create_directories(cache_dir);
    recompute = args.get_bool("recompute", false);
    jobs = util::jobs_flag(args);
    profile = args.get_bool("profile", false);
    util::apply_log_level_flag(args);
    trace_path = args.get_or("trace", "");
    if (trace_path.empty()) {
      if (const char* env = std::getenv("DICER_TRACE")) trace_path = env;
    }
    if (!trace_path.empty()) {
      trace_sink = trace::make_file_sink(trace_path);
      trace::Tracer::global().add_sink(trace_sink);
    }
  }

  BenchEnv(const BenchEnv&) = delete;
  BenchEnv& operator=(const BenchEnv&) = delete;

  ~BenchEnv() {
    if (trace_sink) {
      trace::Tracer::global().remove_sink(trace_sink);  // flushes
      std::cerr << "trace: " << trace_path << "\n";
    }
    if (profile) {
      const std::string table = trace::TimerRegistry::global().format();
      if (!table.empty()) std::cerr << "\n" << table;
    }
  }

  std::string path(const std::string& filename) const {
    return (std::filesystem::path(cache_dir) / filename).string();
  }

  /// The full 59x59 UM/CT baseline study (cached). Runs on `--jobs`
  /// workers; entries are identical for any worker count.
  harness::BaselineStudy study(
      const harness::ConsolidationConfig& config) const {
    return harness::baseline_study(sim::default_catalog(), config,
                                   path("cache_baseline_study.csv"),
                                   recompute, jobs);
  }

  /// The paper's representative sample: 50 CT-F + 70 CT-T workloads.
  std::vector<harness::BaselineEntry> sample(
      const harness::BaselineStudy& st) const {
    return harness::representative_sample(st, 50, 70);
  }

  /// The UM/CT/DICER x cores sweep over the sample (cached). Runs on
  /// `--jobs` workers; rows are identical for any worker count.
  std::vector<harness::SweepRow> sweep(
      const std::vector<harness::BaselineEntry>& sample_entries,
      const harness::SweepConfig& config) const {
    harness::SweepConfig cfg = config;
    if (cfg.jobs == 0) cfg.jobs = jobs;
    return harness::policy_sweep(sim::default_catalog(), sample_entries, cfg,
                                 path("cache_policy_sweep.csv"), recompute);
  }
};

inline void print_header(const std::string& what) {
  std::cout << "=====================================================\n"
            << what << "\n"
            << "DICER reproduction (ICPP 2019) — simulated Xeon E5-2630 v4\n"
            << "=====================================================\n";
}

}  // namespace dicer::bench
