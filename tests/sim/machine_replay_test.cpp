// Machine::run_for / run_until contract tests: advancing a machine a whole
// interval at a time — which commits replayed within-phase quanta in bulk —
// must be bit-indistinguishable from a twin machine stepped quantum by
// quantum with step(), for every telemetry field, under randomized actuator
// churn, while actually replaying (a schedule that never replays would pass
// vacuously). Exact floating-point equality, never NEAR, because the sweep
// cache and the fleet exports pin bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache/way_mask.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace dicer::sim {
namespace {

void expect_machines_identical(Machine& a, Machine& b, std::uint64_t step) {
  ASSERT_EQ(a.time_sec(), b.time_sec()) << "step " << step;
  EXPECT_EQ(a.last_link_utilisation(), b.last_link_utilisation())
      << "step " << step;
  EXPECT_EQ(a.last_link_traffic(), b.last_link_traffic()) << "step " << step;
  for (unsigned c = 0; c < a.num_cores(); ++c) {
    const auto& ta = a.telemetry(c);
    const auto& tb = b.telemetry(c);
    EXPECT_EQ(ta.instructions, tb.instructions)
        << "core " << c << " step " << step;
    EXPECT_EQ(ta.active_cycles, tb.active_cycles)
        << "core " << c << " step " << step;
    EXPECT_EQ(ta.mem_bytes, tb.mem_bytes) << "core " << c << " step " << step;
    EXPECT_EQ(ta.occupancy_bytes, tb.occupancy_bytes)
        << "core " << c << " step " << step;
    EXPECT_EQ(ta.completions, tb.completions)
        << "core " << c << " step " << step;
    EXPECT_EQ(ta.last_quantum_ipc, tb.last_quantum_ipc)
        << "core " << c << " step " << step;
    ASSERT_EQ(a.occupied(c), b.occupied(c)) << "core " << c;
    if (a.occupied(c)) {
      EXPECT_EQ(a.runtime(c).instructions_retired_total(),
                b.runtime(c).instructions_retired_total())
          << "core " << c << " step " << step;
      EXPECT_EQ(a.runtime(c).phase_index(), b.runtime(c).phase_index())
          << "core " << c << " step " << step;
      EXPECT_EQ(a.runtime(c).phase_remaining(),
                b.runtime(c).phase_remaining())
          << "core " << c << " step " << step;
    }
  }
}

void expect_solver_stats_equal(const SolverStats& sa, const SolverStats& sb) {
  EXPECT_EQ(sa.quanta, sb.quanta);
  EXPECT_EQ(sa.replays, sb.replays);
  EXPECT_EQ(sa.solves, sb.solves);
  EXPECT_EQ(sa.stable_solves, sb.stable_solves);
  EXPECT_EQ(sa.unstable_solves, sb.unstable_solves);
  EXPECT_EQ(sa.invalidations_actuator, sb.invalidations_actuator);
  EXPECT_EQ(sa.invalidations_fingerprint, sb.invalidations_fingerprint);
  EXPECT_EQ(sa.rounds_hist, sb.rounds_hist);
}

bool failed() {
  return ::testing::Test::HasFatalFailure() ||
         ::testing::Test::HasNonfatalFailure();
}

// The documented semantics of run_for / run_until, one step() at a time.
void step_for(Machine& m, double seconds) {
  const auto quanta = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(
          std::ceil(seconds / m.config().quantum_sec - 1e-9)),
      1);
  for (std::uint64_t q = 0; q < quanta; ++q) m.step();
}

void step_until(Machine& m, double t_sec) {
  while (m.time_sec() < t_sec - 1e-9) m.step();
}

std::vector<AppProfile> single_phase_profiles() {
  const auto& catalog = default_catalog();
  std::vector<AppProfile> ps;
  for (unsigned c = 0; c < 10; ++c) {
    AppProfile p = catalog.at(c * 5);
    p.phases.resize(1);
    ps.push_back(std::move(p));
  }
  return ps;
}

TEST(MachineReplay, SteadyStateReplaysInBulkAndStaysBitIdentical) {
  // Single-phase apps settle into permanent replay: nearly every quantum
  // is a bulk-committed replay, and every byte must still match the twin.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}};
  Machine b{MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }
  for (std::uint64_t it = 1; it <= 60; ++it) {
    a.run_for(0.1);
    step_for(b, 0.1);
    expect_machines_identical(a, b, it);
    if (failed()) return;
  }
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  EXPECT_EQ(a.solver_stats().quanta, 600u);
  EXPECT_GT(a.solver_stats().replays, 500u);
}

TEST(MachineReplay, BitIdenticalUnderRandomActuatorChurn) {
  // A run_for/run_until machine and a step() twin driven through the same
  // randomized attach/detach, mask and MBA churn schedule agree on every
  // telemetry field after every interval, and on the full solver-stat
  // vector at the end. Multi-phase catalog apps keep phases drifting
  // underneath, so replay budgets keep running out at phase boundaries;
  // churn keeps disarming the solve cache.
  const auto& catalog = default_catalog();
  Machine a{MachineConfig{}};
  Machine b{MachineConfig{}};
  const unsigned cores = a.num_cores();
  const unsigned ways = a.num_ways();

  util::Xoshiro256 rng(0xBA7C42ULL);
  std::vector<bool> occupied(cores, false);
  for (unsigned c = 0; c < 4; ++c) {
    const AppProfile* app = &catalog.at(c * 7);
    a.attach(c, app);
    b.attach(c, app);
    occupied[c] = true;
  }

  std::uint64_t intervals = 0;
  for (int round = 0; round < 40; ++round) {
    const unsigned core = static_cast<unsigned>(rng.below(cores));
    switch (rng.below(4)) {
      case 0: {  // attach or detach
        if (occupied[core]) {
          a.detach(core);
          b.detach(core);
          occupied[core] = false;
        } else {
          const AppProfile* app =
              &catalog.at(static_cast<std::size_t>(rng.below(59)));
          a.attach(core, app);
          b.attach(core, app);
          occupied[core] = true;
        }
        break;
      }
      case 1: {  // repartition
        const unsigned width = 1 + static_cast<unsigned>(rng.below(ways));
        const unsigned shift =
            static_cast<unsigned>(rng.below(ways - width + 1));
        const WayMask mask = WayMask::span(shift, width);
        a.set_fill_mask(core, mask);
        b.set_fill_mask(core, mask);
        break;
      }
      case 2: {  // MBA throttle
        const double fraction =
            rng.below(3) == 0 ? 1.0 : rng.uniform(0.2, 1.0);
        a.set_mem_throttle(core, fraction);
        b.set_mem_throttle(core, fraction);
        break;
      }
      default:
        break;  // extra-long settle stretch
    }

    // A few control intervals per round, alternating the two entry points.
    const int n_intervals = 1 + static_cast<int>(rng.below(5));
    for (int k = 0; k < n_intervals; ++k) {
      const double interval = 0.01 * static_cast<double>(1 + rng.below(150));
      if (rng.below(2) == 0) {
        a.run_for(interval);
        step_for(b, interval);
      } else {
        const double target = a.time_sec() + interval;
        a.run_until(target);
        step_until(b, target);
      }
      expect_machines_identical(a, b, ++intervals);
      if (failed()) return;  // first divergence pinpoints the interval
    }
  }

  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  EXPECT_GT(a.solver_stats().replays, 1000u);
  EXPECT_GT(a.solver_stats().invalidations_actuator, 0u);
  EXPECT_GT(a.solver_stats().invalidations_fingerprint, 0u);
}

TEST(MachineReplay, BulkIntervalCommitsMatchSerialExactly) {
  // Every core busy with a multi-phase catalog app, advanced one control
  // interval at a time with actuations at interval edges — the call shape
  // both the consolidation loop and the fleet data plane use — across
  // phase boundaries and whole-run restarts.
  const auto& catalog = default_catalog();
  Machine a{MachineConfig{}};
  Machine b{MachineConfig{}};
  const unsigned ways = a.num_ways();
  for (unsigned c = 0; c < a.num_cores(); ++c) {
    const AppProfile* app = &catalog.at((c * 3) % 59);
    a.attach(c, app);
    b.attach(c, app);
  }

  util::Xoshiro256 rng(0x0B51D1AULL);
  const double intervals[] = {0.1, 1.0, 0.05, 0.37, 2.5};
  for (int it = 0; it < 120; ++it) {
    const double interval = intervals[it % 5];
    a.run_for(interval);
    step_for(b, interval);
    expect_machines_identical(a, b, static_cast<std::uint64_t>(it));
    if (failed()) return;
    if (it % 9 == 0) {  // policies actuate between intervals, not within
      const unsigned core = static_cast<unsigned>(rng.below(a.num_cores()));
      const unsigned width = 1 + static_cast<unsigned>(rng.below(ways));
      const WayMask mask = WayMask::span(0, width);
      a.set_fill_mask(core, mask);
      b.set_fill_mask(core, mask);
    }
  }
  // run_until across the same machinery, to an interval-unaligned target.
  const double target = a.time_sec() + 3.33;
  a.run_until(target);
  step_until(b, target);
  expect_machines_identical(a, b, 999);
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  EXPECT_GT(a.solver_stats().replays, 1000u);
}

TEST(MachineReplay, RunForAndRunUntilMatchSerialRounding) {
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }
  const double dt = a.config().quantum_sec;

  // Fractional / sub-quantum / exact spans all round like the step loop.
  for (const double span : {0.25, 0.001, 0.10000000000000001, 1.0}) {
    a.run_for(span);
    step_for(b, span);
    ASSERT_EQ(a.time_sec(), b.time_sec()) << "span " << span;
    ASSERT_EQ(a.solver_stats().quanta, b.solver_stats().quanta)
        << "span " << span;
  }
  // run_until lands on the first quantum at or past the target, never a
  // whole quantum beyond it; repeating a target, or one already passed,
  // is a no-op.
  double t = a.time_sec();
  for (const double ahead : {0.5, 0.0, 0.123, 0.0}) {
    t += ahead;
    a.run_until(t);
    step_until(b, t);
    ASSERT_EQ(a.time_sec(), b.time_sec()) << "t " << t;
    EXPECT_GE(a.time_sec(), t - 1e-9) << "t " << t;
    EXPECT_LT(a.time_sec() - dt, t - 1e-9) << "t " << t;
    const std::uint64_t quanta = a.solver_stats().quanta;
    const double now = a.time_sec();
    a.run_until(t);
    a.run_until(t - 0.3);
    EXPECT_EQ(a.solver_stats().quanta, quanta) << "t " << t;
    EXPECT_EQ(a.time_sec(), now) << "t " << t;
  }
  expect_machines_identical(a, b, a.solver_stats().quanta);
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
}

TEST(MachineReplay, QuantumTracerSeesEveryQuantum) {
  // A kQuantum subscriber needs one event per quantum, so run_for must not
  // bulk-commit while it listens — and the events must match the twin's.
  const auto profiles = single_phase_profiles();
  trace::Tracer ta, tb;
  auto sa = std::make_shared<trace::MemorySink>();
  auto sb = std::make_shared<trace::MemorySink>();
  ta.set_kinds(trace::mask_of(trace::Kind::kQuantum));
  tb.set_kinds(trace::mask_of(trace::Kind::kQuantum));
  ta.add_sink(sa);
  tb.add_sink(sb);
  MachineConfig ca{}, cb{};
  ca.tracer = &ta;
  cb.tracer = &tb;
  Machine a{ca}, b{cb};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }
  for (int it = 0; it < 5; ++it) {
    a.run_for(1.0);
    step_for(b, 1.0);
  }
  a.run_until(a.time_sec() + 0.37);
  step_until(b, b.time_sec() + 0.37);
  expect_machines_identical(a, b, 0);
  EXPECT_GT(a.solver_stats().replays, 400u);
  ASSERT_EQ(sa->events().size(), a.solver_stats().quanta);
  ASSERT_EQ(sa->events().size(), sb->events().size());
  for (std::size_t i = 0; i < sa->events().size(); ++i) {
    const auto& ea = sa->events()[i];
    const auto& eb = sb->events()[i];
    ASSERT_EQ(ea.t_sec, eb.t_sec) << "event " << i;
    ASSERT_EQ(ea.fields.size(), eb.fields.size()) << "event " << i;
    for (std::size_t f = 0; f < ea.fields.size(); ++f) {
      EXPECT_EQ(ea.fields[f].key, eb.fields[f].key) << "event " << i;
      EXPECT_EQ(ea.fields[f].value, eb.fields[f].value) << "event " << i;
    }
  }
}

TEST(MachineReplay, ShortcutsOffNeverReplaysAndStaysIdentical) {
  // solver_shortcuts = false is the reference path: every quantum solves,
  // so run_for has nothing to commit in bulk, and it still matches.
  const auto profiles = single_phase_profiles();
  MachineConfig off{};
  off.solver_shortcuts = false;
  Machine a{off}, b{off};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }
  for (std::uint64_t it = 1; it <= 30; ++it) {
    a.run_for(0.1);
    step_for(b, 0.1);
    expect_machines_identical(a, b, it);
    if (failed()) return;
  }
  EXPECT_EQ(a.solver_stats().replays, 0u);
  EXPECT_EQ(a.solver_stats().solves, 300u);
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
}

}  // namespace
}  // namespace dicer::sim
