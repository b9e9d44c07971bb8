// Golden equivalence pins for full consolidation runs under the three
// headline policies. Values harvested (printf %.17g) from the
// implementation BEFORE the allocation-free hot-path optimisation
// (commit 0d2c1dc); exact double equality proves the optimised simulator
// commits byte-identical telemetry through a complete control loop —
// periodic DICER mask/actuator churn included. Re-harvest only for an
// intentional model change, and say so in the PR.
#include "harness/consolidation.hpp"

#include <gtest/gtest.h>

#include "policy/factory.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::harness {
namespace {

// A plain value with no pointer in it: gtest names each instance after the
// raw bytes of an unprintable parameter, so a `const char*` here would put a
// string-literal address (which moves with the build path and layout) into
// the registered test names.
struct Golden {
  char policy[8];
  double window_sec;
  double hp_ipc;
  double be_ipc_mean;
  double avg_rho;
  std::uint64_t hp_completions;
  std::uint64_t be_completions;
};

class ConsolidationGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ConsolidationGolden, ByteIdenticalToPreOptimisationRun) {
  const Golden& g = GetParam();
  ConsolidationConfig cc;
  cc.cores_used = 6;
  const auto& catalog = sim::default_catalog();
  const auto policy = policy::make_policy(g.policy);
  const auto res = run_consolidation(catalog.by_name("omnetpp1"),
                                     catalog.by_name("gcc_base3"), *policy, cc);
  EXPECT_EQ(res.window_sec, g.window_sec);
  EXPECT_EQ(res.hp_ipc, g.hp_ipc);
  EXPECT_EQ(res.be_ipc_mean, g.be_ipc_mean);
  EXPECT_EQ(res.avg_link_utilisation, g.avg_rho);
  EXPECT_EQ(res.hp_completions, g.hp_completions);
  EXPECT_EQ(res.be_completions, g.be_completions);
  EXPECT_FALSE(res.window_capped);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ConsolidationGolden,
    ::testing::Values(
        Golden{"UM", 30.00000000000189, 0.48042371584825494,
               0.970606987790123, 0.1292360100539349, 1, 10},
        Golden{"CT", 25.000000000001108, 0.64880425069902459,
               0.60447643165641174, 0.32537733470257513, 1, 5},
        Golden{"DICER", 23.000000000000796, 0.60597962445880016,
               0.81160430320839227, 0.24385622432166271, 1, 5}),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      return std::string(param_info.param.policy);
    });

}  // namespace
}  // namespace dicer::harness
