#include "harness/consolidation.hpp"

#include <gtest/gtest.h>

#include "harness/solo.hpp"
#include "policy/baselines.hpp"
#include "policy/factory.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::harness {
namespace {

const sim::AppProfile& app(const char* name) {
  return sim::default_catalog().by_name(name);
}

TEST(Consolidation, ValidatesCoreCount) {
  policy::Unmanaged um;
  ConsolidationConfig cfg;
  cfg.cores_used = 1;
  EXPECT_THROW(run_consolidation(app("namd1"), app("namd1"), um, cfg),
               std::invalid_argument);
  cfg.cores_used = 11;
  EXPECT_THROW(run_consolidation(app("namd1"), app("namd1"), um, cfg),
               std::invalid_argument);
}

TEST(Consolidation, ResultFieldsPopulated) {
  policy::Unmanaged um;
  ConsolidationConfig cfg;
  cfg.cores_used = 4;
  const auto res = run_consolidation(app("gcc_base3"), app("namd1"), um, cfg);
  EXPECT_EQ(res.policy, "UM");
  EXPECT_EQ(res.be_ipcs.size(), 3u);
  EXPECT_GT(res.hp_ipc, 0.0);
  EXPECT_GT(res.be_ipc_mean, 0.0);
  EXPECT_GE(res.window_sec, cfg.min_window_sec);
  EXPECT_GE(res.hp_completions, 1u);
  EXPECT_GE(res.be_completions, 3u);
  EXPECT_FALSE(res.window_capped);
  EXPECT_GE(res.avg_link_utilisation, 0.0);
  EXPECT_LE(res.avg_link_utilisation, 1.0);
}

TEST(Consolidation, EveryoneExecutesAtLeastOnce) {
  // The paper's restart-until-everyone-finishes methodology (4.1).
  policy::CacheTakeover ct;
  ConsolidationConfig cfg;
  cfg.cores_used = 10;
  const auto res = run_consolidation(app("milc1"), app("gcc_base3"), ct, cfg);
  EXPECT_GE(res.hp_completions, 1u);
  EXPECT_GE(res.be_completions, 9u);
}

TEST(Consolidation, WindowCapTriggersOnStarvedBes) {
  policy::CacheTakeover ct;
  ConsolidationConfig cfg;
  cfg.cores_used = 10;
  cfg.max_window_sec = 5.0;  // nothing finishes in five seconds
  const auto res = run_consolidation(app("milc1"), app("gcc_base3"), ct, cfg);
  EXPECT_TRUE(res.window_capped);
  EXPECT_NEAR(res.window_sec, 5.0, 6.0);  // first policy interval may overrun
}

TEST(Consolidation, IpcPairsLayout) {
  ConsolidationResult res;
  res.hp_ipc = 0.8;
  res.be_ipcs = {0.5, 0.6};
  const auto pairs = res.ipc_pairs(1.0, 1.2);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_DOUBLE_EQ(pairs[0].alone, 1.0);
  EXPECT_DOUBLE_EQ(pairs[0].colocated, 0.8);
  EXPECT_DOUBLE_EQ(pairs[1].alone, 1.2);
  EXPECT_DOUBLE_EQ(pairs[2].colocated, 0.6);
}

TEST(Consolidation, CoLocatedIpcNeverBeatsSoloByMuch) {
  const ConsolidationConfig cfg;
  const double hp_alone =
      solo_steady_state(app("omnetpp1"), 20, cfg.machine).ipc;
  policy::Unmanaged um;
  const auto res = run_consolidation(app("omnetpp1"), app("gcc_base3"), um, cfg);
  EXPECT_LE(res.hp_ipc, hp_alone * 1.02);
}

TEST(Consolidation, IdenticalBesGetIdenticalIpc) {
  policy::Unmanaged um;
  ConsolidationConfig cfg;
  cfg.cores_used = 6;
  const auto res = run_consolidation(app("milc1"), app("bzip22"), um, cfg);
  for (double be : res.be_ipcs) {
    EXPECT_NEAR(be, res.be_ipc_mean, 0.01 * res.be_ipc_mean);
  }
}

TEST(Consolidation, BatchMatchesShortcutsOffExactly) {
  // The production path (solver shortcuts on: cached solves replayed, and
  // run_for committing replayed stretches in bulk) against the reference
  // that solves every quantum: each task's result must equal it bit for
  // bit — every field but the solver counters, which count the replays
  // and so differ by design — across mixed policies and core counts in
  // one batch.
  struct Spec {
    const char* hp;
    const char* be;
    const char* policy;
    unsigned cores;
  };
  const std::vector<Spec> specs = {
      {"milc1", "gcc_base3", "UM", 4},
      {"omnetpp1", "gcc_base3", "DICER", 6},
      {"namd1", "bzip22", "CT", 3},
      {"milc1", "gcc_base3", "DICER", 4},
  };
  ConsolidationConfig base;
  base.cores_used = 0;  // ignored: every task overrides

  std::vector<std::unique_ptr<policy::Policy>> policies;
  std::vector<BatchConsolidationTask> tasks;
  for (const auto& s : specs) {
    policies.push_back(policy::make_policy(s.policy));
    tasks.push_back({&app(s.hp), &app(s.be), policies.back().get(), s.cores});
  }
  const auto batched = run_consolidation_batch(tasks, base);

  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& s = specs[i];
    ConsolidationConfig cfg = base;
    cfg.cores_used = s.cores;
    cfg.machine.solver_shortcuts = false;
    const auto pol = policy::make_policy(s.policy);
    const auto ref = run_consolidation(app(s.hp), app(s.be), *pol, cfg);
    const auto& b = batched[i];
    EXPECT_EQ(b.policy, ref.policy) << "task " << i;
    EXPECT_EQ(b.window_sec, ref.window_sec) << "task " << i;
    EXPECT_EQ(b.window_capped, ref.window_capped) << "task " << i;
    EXPECT_EQ(b.hp_ipc, ref.hp_ipc) << "task " << i;
    EXPECT_EQ(b.be_ipc_mean, ref.be_ipc_mean) << "task " << i;
    EXPECT_EQ(b.be_ipcs, ref.be_ipcs) << "task " << i;
    EXPECT_EQ(b.hp_completions, ref.hp_completions) << "task " << i;
    EXPECT_EQ(b.be_completions, ref.be_completions) << "task " << i;
    EXPECT_EQ(b.avg_link_utilisation, ref.avg_link_utilisation)
        << "task " << i;
    // Both ran the same quanta; only the production path replayed.
    EXPECT_EQ(b.solver.quanta, ref.solver.quanta) << "task " << i;
    EXPECT_GT(b.solver.replays, 0u) << "task " << i;
    EXPECT_EQ(ref.solver.replays, 0u) << "task " << i;
  }
}

TEST(Consolidation, BatchValidatesTasks) {
  policy::Unmanaged um;
  const auto& hp = app("milc1");
  const auto& be = app("gcc_base3");
  EXPECT_THROW(run_consolidation_batch({{nullptr, &be, &um, 4}}, {}),
               std::invalid_argument);
  EXPECT_THROW(run_consolidation_batch({{&hp, &be, nullptr, 4}}, {}),
               std::invalid_argument);
  EXPECT_THROW(run_consolidation_batch({{&hp, &be, &um, 1}}, {}),
               std::invalid_argument);
  EXPECT_TRUE(run_consolidation_batch({}, {}).empty());
}

TEST(Consolidation, DeterministicRepeats) {
  ConsolidationConfig cfg;
  cfg.cores_used = 5;
  policy::CacheTakeover a, b;
  const auto r1 = run_consolidation(app("soplex1"), app("gcc_base2"), a, cfg);
  const auto r2 = run_consolidation(app("soplex1"), app("gcc_base2"), b, cfg);
  EXPECT_DOUBLE_EQ(r1.hp_ipc, r2.hp_ipc);
  EXPECT_DOUBLE_EQ(r1.be_ipc_mean, r2.be_ipc_mean);
  EXPECT_DOUBLE_EQ(r1.window_sec, r2.window_sec);
}

TEST(Consolidation, MbaPlatformFlagWiresController) {
  ConsolidationConfig cfg;
  cfg.cores_used = 4;
  cfg.enable_mba = true;
  const auto pol = policy::make_policy("DICER+MBA");
  EXPECT_NO_THROW(run_consolidation(app("milc1"), app("lbm1"), *pol, cfg));
  // And without the flag the MBA policy must fail loudly.
  cfg.enable_mba = false;
  const auto pol2 = policy::make_policy("DICER+MBA");
  EXPECT_THROW(run_consolidation(app("milc1"), app("lbm1"), *pol2, cfg),
               std::invalid_argument);
}

// The paper's three-policy comparison on a known CT-Favoured workload:
// CT and DICER must protect the HP better than UM, and DICER must give the
// BEs more than CT does.
TEST(Consolidation, PolicyOrderingOnCtFavouredWorkload) {
  ConsolidationConfig cfg;
  const auto um = run_consolidation(app("omnetpp1"), app("gcc_base3"),
                                    *policy::make_policy("UM"), cfg);
  const auto ct = run_consolidation(app("omnetpp1"), app("gcc_base3"),
                                    *policy::make_policy("CT"), cfg);
  const auto dicer = run_consolidation(app("omnetpp1"), app("gcc_base3"),
                                       *policy::make_policy("DICER"), cfg);
  EXPECT_GT(ct.hp_ipc, um.hp_ipc);
  EXPECT_GT(dicer.hp_ipc, um.hp_ipc);
  EXPECT_GT(dicer.be_ipc_mean, ct.be_ipc_mean);
}

// And on the paper's CT-Thwarted example (Fig 3): CT must hurt the HP
// relative to UM, and DICER must avoid CT's mistake.
TEST(Consolidation, PolicyOrderingOnCtThwartedWorkload) {
  ConsolidationConfig cfg;
  const auto um = run_consolidation(app("milc1"), app("gcc_base3"),
                                    *policy::make_policy("UM"), cfg);
  const auto ct = run_consolidation(app("milc1"), app("gcc_base3"),
                                    *policy::make_policy("CT"), cfg);
  const auto dicer = run_consolidation(app("milc1"), app("gcc_base3"),
                                       *policy::make_policy("DICER"), cfg);
  EXPECT_LT(ct.hp_ipc, um.hp_ipc);
  EXPECT_GT(dicer.hp_ipc, ct.hp_ipc);
}

}  // namespace
}  // namespace dicer::harness
