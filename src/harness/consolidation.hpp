// Consolidation runner — one experiment in the paper's methodology (§4.1):
// the HP pinned to core 0, N-1 BE instances pinned to the remaining cores,
// everything started together, finished apps restarted "until all of them
// have executed at least once", a policy adjusting allocations throughout.
//
// QoS is measured as the paper measures it: average IPC over the
// consolidation window versus IPC_alone. (For a fixed instruction stream,
// the IPC ratio equals the execution-time slowdown.)
#pragma once

#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "policy/policy.hpp"
#include "sim/core/app_profile.hpp"
#include "sim/machine.hpp"

namespace dicer::harness {

struct ConsolidationConfig {
  sim::MachineConfig machine{};
  unsigned cores_used = 10;    ///< 1 HP + (cores_used - 1) BEs
  double min_window_sec = 20.0;
  double max_window_sec = 240.0;  ///< safety cap (starved BEs)
  bool enable_mba = false;        ///< expose an MBA controller to the policy
  /// Event sink for the run (null = process-global tracer). Propagated to
  /// the policy context, the monitor and — unless machine.tracer is
  /// already set — the simulated machine, and bracketed by
  /// run_begin/run_end events carrying the workload and the results.
  trace::Tracer* tracer = nullptr;
};

struct ConsolidationResult {
  std::string policy;
  double window_sec = 0.0;
  double hp_ipc = 0.0;
  double be_ipc_mean = 0.0;          ///< average across BE instances
  std::vector<double> be_ipcs;
  std::uint64_t hp_completions = 0;
  std::uint64_t be_completions = 0;  ///< summed over BEs
  double avg_link_utilisation = 0.0; ///< time-averaged rho
  bool window_capped = false;        ///< hit max_window before completions
  sim::SolverStats solver;           ///< quantum-solve convergence counters

  /// Pairs (HP first) ready for metrics::effective_utilisation, given the
  /// solo IPCs of HP and BE.
  std::vector<metrics::IpcPair> ipc_pairs(double hp_alone,
                                          double be_alone) const;
};

/// Run one consolidation of `hp` + (cores_used-1) x `be` under `policy`:
/// the one consolidation control loop. The machine advances one policy
/// interval at a time through Machine::run_for, so steady-state stretches
/// take its bulk replay commit (bit-identical to stepping every quantum).
ConsolidationResult run_consolidation(const sim::AppProfile& hp,
                                      const sim::AppProfile& be,
                                      policy::Policy& policy,
                                      const ConsolidationConfig& config = {});

/// One task of run_consolidation_batch. `policy` is caller-owned and must
/// be a distinct instance per task (policies carry per-run state);
/// `cores_used` overrides base.cores_used for this task.
struct BatchConsolidationTask {
  const sim::AppProfile* hp = nullptr;
  const sim::AppProfile* be = nullptr;
  policy::Policy* policy = nullptr;
  unsigned cores_used = 10;
};

/// run_consolidation over every task in order, each task on its own
/// machine. Every task is validated before the first one runs.
std::vector<ConsolidationResult> run_consolidation_batch(
    const std::vector<BatchConsolidationTask>& tasks,
    const ConsolidationConfig& base = {});

/// Accumulate a machine's convergence counters into the global
/// trace::TimerRegistry (the `--profile` output): quanta, replay hits,
/// solves by stability, fixed-point rounds (total and histogram) and
/// invalidation causes. Called by every harness that drives a Machine;
/// thread-safe, so parallel sweep workers merge into one profile.
void record_solver_counters(const sim::SolverStats& stats);

}  // namespace dicer::harness
