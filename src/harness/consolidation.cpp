#include "harness/consolidation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rdt/capability.hpp"
#include "sim/machine_batch.hpp"
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
  return std::move(
      run_consolidation_batch({{&hp, &be, &policy, config.cores_used}},
                              config)
          .front());
}

std::vector<ConsolidationResult> run_consolidation_batch(
    const std::vector<BatchConsolidationTask>& tasks,
    const ConsolidationConfig& base) {
  struct LaneState {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<rdt::CatController> cat;
    std::unique_ptr<rdt::Monitor> monitor;
    std::unique_ptr<rdt::MbaController> mba;
    policy::PolicyContext ctx;
    unsigned lane = 0;
  };
  // Lanes are declared before the batch so the batch (which unhooks its
  // shared phase table from every machine on destruction) dies first.
  std::vector<LaneState> lanes;
  sim::MachineBatch batch;
  lanes.reserve(tasks.size());

  // Phase 1 — build every lane in task order: machine, RDT surface,
  // context, attachments. Setup and stepping happen in phase 2, per lane,
  // so each lane's policy sees a pristine time-0 machine.
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
    LaneState ls;
    sim::MachineConfig machine_config = base.machine;
    if (!machine_config.tracer) machine_config.tracer = base.tracer;
    ls.machine = std::make_unique<sim::Machine>(machine_config);
    const auto cap = rdt::Capability::probe(*ls.machine, base.enable_mba);
    ls.cat = std::make_unique<rdt::CatController>(*ls.machine, cap);
    ls.monitor =
        std::make_unique<rdt::Monitor>(*ls.machine, cap, base.tracer);
    if (base.enable_mba) {
      ls.mba = std::make_unique<rdt::MbaController>(*ls.machine, cap);
    }
    ls.ctx.machine = ls.machine.get();
    ls.ctx.cat = ls.cat.get();
    ls.ctx.monitor = ls.monitor.get();
    ls.ctx.mba = ls.mba.get();
    ls.ctx.hp_core = 0;
    ls.ctx.tracer = base.tracer;
    for (unsigned c = 1; c < t.cores_used; ++c) ls.ctx.be_cores.push_back(c);
    ls.machine->attach(ls.ctx.hp_core, t.hp);
    for (unsigned c : ls.ctx.be_cores) ls.machine->attach(c, t.be);
    ls.lane = batch.add(*ls.machine);
    lanes.push_back(std::move(ls));
  }

  // Phase 2 — run each lane's control loop to completion, lane-major:
  // drive the policy until everyone has completed at least one full run
  // (paper §4.1) and the minimum window has elapsed, or the safety cap
  // trips. batch.run_for is bit-equal to Machine::run_for.
  std::vector<ConsolidationResult> out(tasks.size());
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const BatchConsolidationTask& task = tasks[k];
    LaneState& ls = lanes[k];
    sim::Machine& machine = *ls.machine;
    policy::Policy& policy = *task.policy;

    trace::ScopedTimer run_timer("harness.run_consolidation", base.tracer);
    auto& tr = trace::resolve(base.tracer);
    if (tr.enabled(trace::Kind::kRunBegin)) {
      tr.emit(trace::Kind::kRunBegin, machine.time_sec(),
              {{"policy", policy.name()},
               {"hp", task.hp->name},
               {"be", task.be->name},
               {"cores", task.cores_used}});
    }

    policy.setup(ls.ctx);

    double rho_integral = 0.0;
    double t_prev = machine.time_sec();
    bool capped = false;
    for (;;) {
      const double interval =
          std::max(policy.interval_sec(), base.machine.quantum_sec);
      batch.run_for(ls.lane, interval);
      rho_integral +=
          std::min(machine.last_link_utilisation(), 1.0) *
          (machine.time_sec() - t_prev);
      t_prev = machine.time_sec();
      policy.act(ls.ctx);

      const double t = machine.time_sec();
      bool everyone_done = machine.telemetry(ls.ctx.hp_core).completions > 0;
      for (unsigned c : ls.ctx.be_cores) {
        everyone_done = everyone_done && machine.telemetry(c).completions > 0;
      }
      if (everyone_done && t >= base.min_window_sec) break;
      if (t >= base.max_window_sec) {
        capped = true;
        break;
      }
    }
    policy.teardown(ls.ctx);

    ConsolidationResult res;
    res.policy = policy.name();
    res.window_sec = machine.time_sec();
    res.window_capped = capped;
    const auto& hp_tel = machine.telemetry(ls.ctx.hp_core);
    res.hp_ipc = hp_tel.instructions / hp_tel.active_cycles;
    res.hp_completions = hp_tel.completions;
    double be_sum = 0.0;
    for (unsigned c : ls.ctx.be_cores) {
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
               {"hp", task.hp->name},
               {"be", task.be->name},
               {"cores", task.cores_used},
               {"window_sec", res.window_sec},
               {"hp_ipc", res.hp_ipc},
               {"be_ipc_mean", res.be_ipc_mean},
               {"hp_completions", res.hp_completions},
               {"be_completions", res.be_completions},
               {"avg_rho", res.avg_link_utilisation},
               {"capped", res.window_capped}});
    }
    out[k] = std::move(res);
  }
  return out;
}

}  // namespace dicer::harness
