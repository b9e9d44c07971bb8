#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/trace.hpp"

namespace dicer::sim {

void SolverStats::merge(const SolverStats& other) {
  quanta += other.quanta;
  replays += other.replays;
  solves += other.solves;
  stable_solves += other.stable_solves;
  unstable_solves += other.unstable_solves;
  invalidations_actuator += other.invalidations_actuator;
  invalidations_fingerprint += other.invalidations_fingerprint;
  if (rounds_hist.size() < other.rounds_hist.size()) {
    rounds_hist.resize(other.rounds_hist.size(), 0);
  }
  for (std::size_t r = 0; r < other.rounds_hist.size(); ++r) {
    rounds_hist[r] += other.rounds_hist[r];
  }
}

std::uint64_t SolverStats::total_rounds() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < rounds_hist.size(); ++r) {
    total += rounds_hist[r] * (r + 1);
  }
  return total;
}

Machine::Machine(const MachineConfig& config)
    : config_(config),
      apps_(config.num_cores),
      masks_(config.num_cores, WayMask::full(config.llc.ways)),
      mem_throttle_(config.num_cores, 1.0),
      telemetry_(config.num_cores),
      ips_seed_(config.num_cores, 0.0),
      link_(config.link),
      memo_(config.num_cores) {
  if (config_.num_cores == 0 || config_.num_cores > 64) {
    throw std::invalid_argument("Machine: core count outside 1..64");
  }
  if (config_.llc.ways == 0 || config_.llc.ways > kMaxWays) {
    throw std::invalid_argument("Machine: unsupported LLC way count");
  }
  // Negated so NaN fails too: run_for casts seconds / quantum to a count.
  if (!(config_.quantum_sec > 0.0) || !std::isfinite(config_.quantum_sec)) {
    throw std::invalid_argument("Machine: quantum must be finite and > 0");
  }
  if (!(config_.freq_hz > 0.0) || !std::isfinite(config_.freq_hz)) {
    throw std::invalid_argument("Machine: frequency must be finite and > 0");
  }
  stats_.rounds_hist.assign(std::max(config_.fixed_point_rounds, 1u), 0);
}

void Machine::check_core(unsigned core) const {
  if (core >= config_.num_cores) {
    throw std::out_of_range("Machine: core " + std::to_string(core) +
                            " out of range");
  }
}

void Machine::invalidate_regions() noexcept {
  regions_valid_ = false;
  invalidate_solve();
}

void Machine::invalidate_solve() noexcept {
  if (solve_cache_.armed) {
    solve_cache_.armed = false;
    ++stats_.invalidations_actuator;
  }
}

void Machine::refresh_regions() {
  if (regions_valid_) return;
  scratch_.active_masks.clear();
  for (unsigned c = 0; c < config_.num_cores; ++c) {
    if (apps_[c]) scratch_.active_masks.push_back(masks_[c]);
  }
  regions_ = decompose_regions(scratch_.active_masks, config_.llc.ways,
                               config_.way_bytes());
  regions_valid_ = true;
}

const std::vector<CacheRegion>& Machine::current_regions() {
  refresh_regions();
  return regions_;
}

void Machine::attach(unsigned core, const AppProfile* profile) {
  check_core(core);
  if (apps_[core].has_value()) {
    throw std::logic_error("Machine::attach: core already occupied");
  }
  apps_[core].emplace(profile);
  ips_seed_[core] = 0.0;
  memo_[core].phase = nullptr;
  invalidate_regions();
}

void Machine::detach(unsigned core) {
  check_core(core);
  apps_[core].reset();
  telemetry_[core].occupancy_bytes = 0.0;
  telemetry_[core].last_quantum_ipc = 0.0;
  ips_seed_[core] = 0.0;
  // The departing tenant's actuator state must not leak to the next one:
  // reclaiming a core resets its partition and throttle to the defaults,
  // like an orchestrator returning the core's CLOS to CLOS0.
  masks_[core] = WayMask::full(config_.llc.ways);
  mem_throttle_[core] = 1.0;
  memo_[core].phase = nullptr;
  invalidate_regions();
}

bool Machine::occupied(unsigned core) const {
  check_core(core);
  return apps_[core].has_value();
}

const AppRuntime& Machine::runtime(unsigned core) const {
  check_core(core);
  if (!apps_[core]) throw std::logic_error("Machine::runtime: core is idle");
  return *apps_[core];
}

AppRuntime& Machine::runtime(unsigned core) {
  check_core(core);
  if (!apps_[core]) throw std::logic_error("Machine::runtime: core is idle");
  return *apps_[core];
}

void Machine::set_fill_mask(unsigned core, WayMask mask) {
  check_core(core);
  if (mask.empty()) {
    throw std::invalid_argument("Machine::set_fill_mask: empty mask");
  }
  if (!WayMask::full(config_.llc.ways).contains(mask)) {
    throw std::invalid_argument(
        "Machine::set_fill_mask: mask exceeds cache ways: " +
        mask.to_string());
  }
  if (masks_[core] != mask) {
    masks_[core] = mask;
    invalidate_regions();
  }
}

WayMask Machine::fill_mask(unsigned core) const {
  check_core(core);
  return masks_[core];
}

void Machine::set_mem_throttle(unsigned core, double fraction) {
  check_core(core);
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument(
        "Machine::set_mem_throttle: fraction outside (0, 1]");
  }
  if (mem_throttle_[core] != fraction) {
    mem_throttle_[core] = fraction;
    invalidate_solve();
  }
}

double Machine::mem_throttle(unsigned core) const {
  check_core(core);
  return mem_throttle_[core];
}

const CoreTelemetry& Machine::telemetry(unsigned core) const {
  check_core(core);
  return telemetry_[core];
}

void Machine::step() {
  const double dt = config_.quantum_sec;
  const double freq = config_.freq_hz;
  auto& s = scratch_;

  // Collect active cores.
  s.active.clear();
  for (unsigned c = 0; c < config_.num_cores; ++c) {
    if (apps_[c]) s.active.push_back(c);
  }
  time_sec_ += dt;
  if (s.active.empty()) return;

  const std::size_t n = s.active.size();
  ++stats_.quanta;

  // Current phase per active core — both the replay fingerprint and the
  // solve key off it. (An app that completed and restarted into the same
  // phase is the same solver input: the solve depends on the phase, not on
  // the position within it.)
  s.phase.clear();
  for (std::size_t i = 0; i < n; ++i) {
    s.phase.push_back(&apps_[s.active[i]]->current_phase());
  }

  bool replayed = false;
  if (solve_cache_.armed) {
    if (s.active == solve_cache_.active && s.phase == solve_cache_.phase) {
      // Identical inputs, and the previous solve ended on a round that
      // reproduced every IPS bit-exactly: re-running the fixed point would
      // retrace that round and change nothing, so the scratch state
      // (ips/occ/arbitration) and last_rho_/last_traffic_ already hold this
      // quantum's exact solution. Only progress and telemetry move.
      replayed = true;
      ++stats_.replays;
    } else {
      solve_cache_.armed = false;
      ++stats_.invalidations_fingerprint;
    }
  }

  if (!replayed) {
    const bool stable = solve_quantum();
    last_rho_ = s.arb.raw_utilisation;
    last_traffic_ = s.arb.total_achieved_bytes_per_sec;
    if (stable && config_.solver_shortcuts) {
      solve_cache_.armed = true;
      solve_cache_.active = s.active;
      solve_cache_.phase = s.phase;
    }
  }

  // Commit the quantum.
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned core = s.active[i];
    auto& tel = telemetry_[core];
    const double instructions = s.ips[i] * dt;
    const unsigned completed = apps_[core]->advance(instructions);
    tel.instructions += instructions;
    tel.active_cycles += freq * dt;
    tel.mem_bytes += s.arb.achieved_bytes_per_sec[i] * dt;
    tel.occupancy_bytes = s.occ[i];
    tel.completions += completed;
    tel.last_quantum_ipc = s.ips[i] / freq;
    ips_seed_[core] = s.ips[i];
  }

  auto& tr = trace::resolve(config_.tracer);
  if (tr.enabled(trace::Kind::kQuantum)) {
    std::vector<trace::Field> fields;
    fields.reserve(2 + 2 * n);
    fields.emplace_back("rho", last_rho_);
    fields.emplace_back("traffic_bps", last_traffic_);
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned core = s.active[i];
      fields.emplace_back("ipc_c" + std::to_string(core),
                          telemetry_[core].last_quantum_ipc);
      fields.emplace_back("occ_c" + std::to_string(core), s.occ[i]);
    }
    tr.emit(trace::Kind::kQuantum, time_sec_, std::move(fields));
  }
}

bool Machine::solve_quantum() {
  auto& s = scratch_;
  const std::size_t n = s.active.size();
  const double freq = config_.freq_hz;
  const double line = config_.llc.line_bytes;
  refresh_regions();

  s.rec.clear();
  s.ips.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned core = s.active[i];
    const AppPhase* ph = s.phase[i];
    s.rec.push_back(&ph->mrc.solve_record());
    if (memo_[core].phase != ph) memo_[core] = MissMemo{ph};

    // Warm-started state.
    const double seed = ips_seed_[core];
    s.ips[i] = seed > 0.0 ? seed : freq / (ph->cpi_core + 1.0);
  }

  s.occ.assign(n, 0.0);
  s.miss.assign(n, 1.0);
  s.demand.assign(n, 0.0);

  unsigned rounds_used = 0;
  bool stable = false;
  for (unsigned round = 0; round < config_.fixed_point_rounds; ++round) {
    // 1. Occupancy under current IPS estimates (Che working-set model).
    //    Each MRC component becomes a reuse component whose touch rate is
    //    proportional to its miss-mass weight.
    s.cache_demand.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& rec = *s.rec[i];
      const double touch = s.phase[i]->api * s.ips[i] * line;
      s.cache_demand.add_app(touch * rec.sf);
      for (std::size_t j = 0; j < rec.wfrac.size(); ++j) {
        s.cache_demand.add_reuse(touch * rec.one_minus_sf * rec.wfrac[j],
                                 rec.ws[j]);
      }
    }
    solve_occupancy(regions_, s.cache_demand, OccupancySolverConfig{},
                    s.occupancy, s.occ);

    // 2. Miss ratios (memoised per core) and bandwidth demand.
    for (std::size_t i = 0; i < n; ++i) {
      MissMemo& memo = memo_[s.active[i]];
      if (s.occ[i] != memo.occ) {
        memo.occ = s.occ[i];
        memo.miss = s.phase[i]->mrc.at(s.occ[i]);
      }
      s.miss[i] = memo.miss;
      s.demand[i] = s.phase[i]->api * s.miss[i] * s.ips[i] * line *
                    (1.0 + s.phase[i]->wb_ratio);
    }
    link_.arbitrate_into(s.demand, s.arb);

    // 3. New IPC estimates under the arbitrated latency; bandwidth cap when
    //    the link is oversubscribed. The LLC hit path is shared too: ring /
    //    LLC-port pressure from everyone's access rate inflates it.
    double total_accesses = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total_accesses += s.phase[i]->api * s.ips[i];
    }
    const double hit_latency =
        config_.llc_hit_latency_cycles *
        (1.0 +
         config_.uncore_contention_coeff *
             std::sqrt(std::min(
                 total_accesses / config_.uncore_access_ref_per_sec, 1.0)));
    double worst_rel = 0.0;
    bool round_stable = true;
    for (std::size_t i = 0; i < n; ++i) {
      const AppPhase& ph = *s.phase[i];
      const auto& rec = *s.rec[i];
      // Cache starvation serialises reuse misses: degrade MLP with the
      // excess miss ratio above the app's best case.
      const double excess =
          std::clamp((s.miss[i] - rec.floor) / rec.span, 0.0, 1.0);
      const double mlp_eff = ph.mlp * (1.0 - config_.mlp_squeeze * excess);
      // An MBA throttle delays a core's memory requests: its exposed memory
      // latency stretches by 1/throttle, and its demand falls as its IPS
      // falls — the same route real MBA takes effect through.
      const double cpi =
          ph.cpi_core +
          ph.api *
              ((1.0 - s.miss[i]) * hit_latency +
               s.miss[i] * s.arb.effective_latency_cycles /
                   (mlp_eff * mem_throttle_[s.active[i]]));
      const double target = freq / cpi;
      const double next =
          config_.fixed_point_damping * target +
          (1.0 - config_.fixed_point_damping) * s.ips[i];
      if (next != s.ips[i]) round_stable = false;
      worst_rel = std::max(worst_rel, std::fabs(next - s.ips[i]) /
                                          std::max(s.ips[i], 1.0));
      s.ips[i] = next;
    }
    ++rounds_used;
    if (worst_rel < 1e-4) {
      // The damped update is idempotent once a round reproduces every IPS
      // bit-exactly (round_stable, i.e. worst_rel == 0): the remaining
      // rounds are provably no-ops. The looser tolerance break subsumes
      // that exit, so this preserves the exact historical exit round;
      // round_stable's job is to license cross-quantum replay.
      stable = round_stable;
      break;
    }
  }

  ++stats_.solves;
  if (rounds_used > 0) {
    const std::size_t slot =
        std::min<std::size_t>(rounds_used, stats_.rounds_hist.size()) - 1;
    ++stats_.rounds_hist[slot];
  }
  if (stable) {
    ++stats_.stable_solves;
  } else {
    ++stats_.unstable_solves;
  }
  return stable;
}

std::uint64_t Machine::replay_budget(std::uint64_t quanta) const {
  const auto& cache = solve_cache_;
  if (!cache.armed) return 0;
  // A kQuantum consumer needs step()'s per-quantum event.
  if (trace::resolve(config_.tracer).enabled(trace::Kind::kQuantum)) return 0;
  // While armed, no actuator has touched the machine since the solve, and
  // scratch still holds that solve indexed like cache.active. What remains
  // of step()'s fingerprint compare is the phases: the last commit may
  // have crossed a boundary (the next step() re-solves then). Per core,
  // the quanta that provably stay inside the phase are
  // floor(remaining / instr) minus a 2-quantum margin; the margin dominates
  // the rounding k additions of `instr` accumulate by many orders of
  // magnitude, so advance()'s boundary test would pass on every one. A
  // core with room for all `quanta` plus the margin needs no division.
  const double dt = config_.quantum_sec;
  const double wanted = static_cast<double>(quanta);
  double budget = wanted;
  for (std::size_t i = 0; i < cache.active.size(); ++i) {
    const AppRuntime& rt = *apps_[cache.active[i]];
    if (&rt.current_phase() != cache.phase[i]) return 0;
    const double instr = scratch_.ips[i] * dt;
    if (!(instr > 0.0)) return 0;
    const double remaining = rt.phase_remaining();
    if (remaining > (wanted + 2.0) * instr) continue;
    budget = std::min(budget, remaining / instr - 2.0);
  }
  // The cast truncates, which is the floor for the positive budgets used.
  return budget >= 1.0 ? static_cast<std::uint64_t>(budget) : 0;
}

void Machine::commit_replays(std::uint64_t quanta) {
  // Exactly the additions `quanta` replayed step() commits perform, in the
  // same order per accumulator (never a multiply: FP addition does not
  // distribute), with the loops interchanged so all five running sums of
  // a core advance together in registers. The replay's other writes
  // (occupancy_bytes, last_quantum_ipc, the IPS seed, zero completions)
  // rewrite unchanged values and are skipped.
  const double dt = config_.quantum_sec;
  const double cycles = config_.freq_hz * dt;
  double t = time_sec_;
  for (std::uint64_t q = 0; q < quanta; ++q) t += dt;
  time_sec_ = t;
  stats_.quanta += quanta;
  stats_.replays += quanta;
  const auto& s = scratch_;
  for (std::size_t i = 0; i < solve_cache_.active.size(); ++i) {
    const unsigned core = solve_cache_.active[i];
    const double instr = s.ips[i] * dt;
    const double bytes = s.arb.achieved_bytes_per_sec[i] * dt;
    auto& tel = telemetry_[core];
    double t_instr = tel.instructions;
    double t_cycles = tel.active_cycles;
    double t_mem = tel.mem_bytes;
    apps_[core]->advance_within_phase(instr, quanta, [&] {
      t_instr += instr;
      t_cycles += cycles;
      t_mem += bytes;
    });
    tel.instructions = t_instr;
    tel.active_cycles = t_cycles;
    tel.mem_bytes = t_mem;
  }
}

void Machine::run_quanta(std::uint64_t quanta) {
  while (quanta > 0) {
    const std::uint64_t bulk = replay_budget(quanta);
    if (bulk > 0) {
      commit_replays(bulk);
      quanta -= bulk;
    } else {
      step();
      --quanta;
    }
  }
}

void Machine::run_for(double seconds) {
  const auto quanta = static_cast<std::uint64_t>(
      std::ceil(seconds / config_.quantum_sec - 1e-9));
  run_quanta(std::max<std::uint64_t>(quanta, 1));
}

void Machine::run_until(double t_sec) {
  // The quanta `while (time_sec() < t_sec - 1e-9) step();` would take,
  // counted by replaying its own time additions, so a bulk commit can run
  // right up to the boundary with no stepped tail.
  std::uint64_t quanta = 0;
  for (double t = time_sec_; t < t_sec - 1e-9; t += config_.quantum_sec) {
    ++quanta;
  }
  run_quanta(quanta);
}

}  // namespace dicer::sim
