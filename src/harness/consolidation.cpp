#include "harness/consolidation.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "rdt/capability.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dicer::harness {

void record_solver_counters(const sim::SolverStats& stats) {
  auto& reg = trace::TimerRegistry::global();
  reg.add_count("solver.quanta", stats.quanta);
  reg.add_count("solver.replays", stats.replays);
  reg.add_count("solver.solves", stats.solves);
  reg.add_count("solver.solves_stable", stats.stable_solves);
  reg.add_count("solver.rounds", stats.total_rounds());
  reg.add_count("solver.invalidations.actuator", stats.invalidations_actuator);
  reg.add_count("solver.invalidations.fingerprint",
                stats.invalidations_fingerprint);
  for (std::size_t r = 0; r < stats.rounds_hist.size(); ++r) {
    if (stats.rounds_hist[r] != 0) {
      reg.add_count("solver.rounds_hist." + std::to_string(r + 1),
                    stats.rounds_hist[r]);
    }
  }
}

std::vector<metrics::IpcPair> ConsolidationResult::ipc_pairs(
    double hp_alone, double be_alone) const {
  std::vector<metrics::IpcPair> pairs;
  pairs.reserve(1 + be_ipcs.size());
  pairs.push_back({hp_alone, hp_ipc});
  for (double be : be_ipcs) pairs.push_back({be_alone, be});
  return pairs;
}

ConsolidationResult run_consolidation(const sim::AppProfile& hp,
                                      const sim::AppProfile& be,
                                      policy::Policy& policy,
                                      const ConsolidationConfig& config) {
  if (config.cores_used < 2 || config.cores_used > config.machine.num_cores) {
    throw std::invalid_argument(
        "run_consolidation: cores_used must be in [2, machine cores]");
  }
  sim::MachineConfig machine_config = config.machine;
  if (!machine_config.tracer) machine_config.tracer = config.tracer;
  sim::Machine machine(machine_config);
  const auto cap = rdt::Capability::probe(machine, config.enable_mba);
  rdt::CatController cat(machine, cap);
  rdt::Monitor monitor(machine, cap, config.tracer);
  std::optional<rdt::MbaController> mba;
  if (config.enable_mba) mba.emplace(machine, cap);

  policy::PolicyContext ctx;
  ctx.machine = &machine;
  ctx.cat = &cat;
  ctx.monitor = &monitor;
  ctx.mba = mba ? &*mba : nullptr;
  ctx.hp_core = 0;
  ctx.tracer = config.tracer;
  for (unsigned c = 1; c < config.cores_used; ++c) ctx.be_cores.push_back(c);
  machine.attach(ctx.hp_core, &hp);
  for (unsigned c : ctx.be_cores) machine.attach(c, &be);

  trace::ScopedTimer run_timer("harness.run_consolidation", config.tracer);
  auto& tr = trace::resolve(config.tracer);
  if (tr.enabled(trace::Kind::kRunBegin)) {
    tr.emit(trace::Kind::kRunBegin, machine.time_sec(),
            {{"policy", policy.name()},
             {"hp", hp.name},
             {"be", be.name},
             {"cores", config.cores_used}});
  }

  policy.setup(ctx);

  // Drive the policy until everyone has completed at least one full run
  // (paper §4.1) and the minimum window has elapsed, or the safety cap
  // trips.
  double rho_integral = 0.0;
  double t_prev = machine.time_sec();
  bool capped = false;
  for (;;) {
    const double interval =
        std::max(policy.interval_sec(), config.machine.quantum_sec);
    machine.run_for(interval);
    rho_integral += std::min(machine.last_link_utilisation(), 1.0) *
                    (machine.time_sec() - t_prev);
    t_prev = machine.time_sec();
    policy.act(ctx);

    const double t = machine.time_sec();
    bool everyone_done = machine.telemetry(ctx.hp_core).completions > 0;
    for (unsigned c : ctx.be_cores) {
      everyone_done = everyone_done && machine.telemetry(c).completions > 0;
    }
    if (everyone_done && t >= config.min_window_sec) break;
    if (t >= config.max_window_sec) {
      capped = true;
      break;
    }
  }
  policy.teardown(ctx);

  ConsolidationResult res;
  res.policy = policy.name();
  res.window_sec = machine.time_sec();
  res.window_capped = capped;
  const auto& hp_tel = machine.telemetry(ctx.hp_core);
  res.hp_ipc = hp_tel.instructions / hp_tel.active_cycles;
  res.hp_completions = hp_tel.completions;
  double be_sum = 0.0;
  for (unsigned c : ctx.be_cores) {
    const auto& tel = machine.telemetry(c);
    const double ipc = tel.instructions / tel.active_cycles;
    res.be_ipcs.push_back(ipc);
    be_sum += ipc;
    res.be_completions += tel.completions;
  }
  res.be_ipc_mean =
      res.be_ipcs.empty()
          ? 0.0
          : be_sum / static_cast<double>(res.be_ipcs.size());
  res.avg_link_utilisation =
      res.window_sec > 0.0 ? rho_integral / res.window_sec : 0.0;
  res.solver = machine.solver_stats();
  record_solver_counters(res.solver);
  if (tr.enabled(trace::Kind::kRunEnd)) {
    tr.emit(trace::Kind::kRunEnd, machine.time_sec(),
            {{"policy", res.policy},
             {"hp", hp.name},
             {"be", be.name},
             {"cores", config.cores_used},
             {"window_sec", res.window_sec},
             {"hp_ipc", res.hp_ipc},
             {"be_ipc_mean", res.be_ipc_mean},
             {"hp_completions", res.hp_completions},
             {"be_completions", res.be_completions},
             {"avg_rho", res.avg_link_utilisation},
             {"capped", res.window_capped}});
  }
  return res;
}

std::vector<ConsolidationResult> run_consolidation_batch(
    const std::vector<BatchConsolidationTask>& tasks,
    const ConsolidationConfig& base) {
  for (const auto& t : tasks) {
    if (!t.hp || !t.be || !t.policy) {
      throw std::invalid_argument(
          "run_consolidation_batch: task missing hp/be/policy");
    }
    if (t.cores_used < 2 || t.cores_used > base.machine.num_cores) {
      throw std::invalid_argument(
          "run_consolidation_batch: cores_used must be in "
          "[2, machine cores]");
    }
  }
  std::vector<ConsolidationResult> out;
  out.reserve(tasks.size());
  ConsolidationConfig config = base;
  for (const auto& t : tasks) {
    config.cores_used = t.cores_used;
    out.push_back(run_consolidation(*t.hp, *t.be, *t.policy, config));
  }
  return out;
}

}  // namespace dicer::harness
