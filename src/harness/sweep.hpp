// Policy sweep: run a set of policies over the representative workload
// sample across core counts — the shared computation behind Figs 5-8.
//
// Figures 6, 7 and 8 all plot the same 120-workload x {2..10 cores} x
// {UM, CT, DICER} grid through different metrics, and Fig 5 is the
// 10-core slice of it; the sweep runs once and is cached on disk
// (util::ResultCache) so each bench binary stays cheap and the figures
// stay mutually consistent. Every cell is one run_consolidation, run
// through run_grid — the cell runner the baseline study shares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/workloads.hpp"

namespace dicer::harness {

struct SweepRow {
  std::string hp;
  std::string be;
  std::string policy;
  unsigned cores = 0;
  bool ct_favoured = false;   ///< class of the workload (from the study)
  double hp_alone = 0.0;
  double be_alone = 0.0;
  double hp_ipc = 0.0;
  double be_ipc = 0.0;        ///< mean across BE instances
  double efu = 0.0;

  double hp_norm() const { return hp_ipc / hp_alone; }
  double be_norm() const { return be_ipc / be_alone; }
};

struct SweepConfig {
  ConsolidationConfig base{};             ///< cores_used is overridden
  std::vector<std::string> policies{"UM", "CT", "DICER"};
  std::vector<unsigned> cores{2, 3, 4, 5, 6, 7, 8, 9, 10};
  /// Parallel workers for the sweep. 0 = auto: $DICER_SWEEP_JOBS if set,
  /// else all hardware threads. The worker count never changes results —
  /// every (workload, cores, policy) cell is independent and rows come
  /// back in the same deterministic order as the serial sweep.
  unsigned jobs = 0;
};

/// Resolve a requested worker count: 0 consults $DICER_SWEEP_JOBS, then
/// falls back to hardware concurrency; the result is always >= 1.
unsigned resolve_sweep_jobs(unsigned requested);

/// The cell runner both experiment grids (the baseline study and the
/// policy sweep) run on: body(i) for every cell i in [0, n), serially when
/// `jobs` resolves to 1 (resolve_sweep_jobs) and on a util::ThreadPool
/// otherwise, timed as one `label` scope with progress logged at info
/// level. `body` must write only its own preallocated slot i, so results
/// are byte-identical at any worker count. The first exception a cell
/// throws (in index order) is rethrown after every cell has finished.
void run_grid(std::size_t n, unsigned jobs, const std::string& label,
              const std::function<void(std::size_t)>& body);

/// Run (or load from cache) the sweep over `sample`.
std::vector<SweepRow> policy_sweep(const sim::AppCatalog& catalog,
                                   const std::vector<BaselineEntry>& sample,
                                   const SweepConfig& config,
                                   const std::string& cache_path,
                                   bool force_recompute = false);

/// Rows matching a (policy, cores) cell.
std::vector<SweepRow> filter(const std::vector<SweepRow>& rows,
                             const std::string& policy, unsigned cores);

}  // namespace dicer::harness
