#include "fleet/placement.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fleet/directory.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"

namespace dicer::fleet {
namespace {

const AppDirectory& shared_directory() {
  static const AppDirectory dir(sim::default_catalog(), sim::MachineConfig{});
  return dir;
}

std::vector<MachineView> three_machines(unsigned free0, unsigned free1,
                                        unsigned free2) {
  const auto& catalog = sim::default_catalog();
  std::vector<MachineView> views(3);
  const unsigned frees[] = {free0, free1, free2};
  for (unsigned i = 0; i < 3; ++i) {
    views[i].index = i;
    views[i].hp = &catalog.at(i);
    views[i].free_cores = frees[i];
  }
  return views;
}

TEST(AppDirectory, SignalsAreSane) {
  const auto& dir = shared_directory();
  const auto& catalog = sim::default_catalog();
  EXPECT_EQ(dir.size(), catalog.size());
  const auto& sig = dir.signal(catalog.at(0).name);
  ASSERT_EQ(sig.ipc_by_ways.size(), dir.machine().llc.ways);
  // More ways never hurts a solo app.
  for (std::size_t w = 1; w < sig.ipc_by_ways.size(); ++w) {
    EXPECT_GE(sig.ipc_by_ways[w], sig.ipc_by_ways[w - 1] - 1e-12);
  }
  EXPECT_DOUBLE_EQ(sig.ipc_alone, sig.ipc_by_ways.back());
  EXPECT_GE(sig.ways_needed, 1u);
  EXPECT_LE(sig.ways_needed, dir.machine().llc.ways);
  // Interpolation hits the table at integer points and stays inside it.
  EXPECT_DOUBLE_EQ(sig.ipc_at_ways(3.0), sig.ipc_by_ways[2]);
  EXPECT_DOUBLE_EQ(sig.ipc_at_ways(0.5), sig.ipc_by_ways[0]);
  EXPECT_DOUBLE_EQ(sig.ipc_at_ways(99.0), sig.ipc_by_ways.back());
  const double mid = sig.ipc_at_ways(3.5);
  EXPECT_GE(mid, sig.ipc_by_ways[2] - 1e-12);
  EXPECT_LE(mid, sig.ipc_by_ways[3] + 1e-12);
}

TEST(AppDirectory, UnknownAppThrows) {
  EXPECT_THROW(shared_directory().signal("no_such_app"), std::out_of_range);
}

TEST(RandomPlacement, OnlyPicksMachinesWithFreeCores) {
  RandomPlacement engine(7);
  const auto& app = sim::default_catalog().at(5);
  auto views = three_machines(0, 2, 0);
  for (int i = 0; i < 32; ++i) {
    const auto m = engine.place(app, views);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(*m, 1u);
  }
}

TEST(RandomPlacement, RejectsWhenFull) {
  RandomPlacement engine(7);
  auto views = three_machines(0, 0, 0);
  EXPECT_FALSE(engine.place(sim::default_catalog().at(0), views).has_value());
}

TEST(RandomPlacement, DeterministicForSeed) {
  const auto& app = sim::default_catalog().at(5);
  auto views = three_machines(1, 1, 1);
  RandomPlacement a(7), b(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.place(app, views), b.place(app, views));
  }
}

TEST(LeastLoadedPlacement, PicksFewestTenantsLowestIndex) {
  LeastLoadedPlacement engine;
  const auto& catalog = sim::default_catalog();
  auto views = three_machines(1, 2, 2);
  views[0].tenants = {&catalog.at(3), &catalog.at(4)};
  views[1].tenants = {&catalog.at(3)};
  views[2].tenants = {&catalog.at(3)};
  const auto m = engine.place(catalog.at(5), views);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, 1u);  // ties at one tenant; lowest index wins
}

TEST(MrcBestFitPlacement, ScoreDropsWithCrowding) {
  const auto& dir = shared_directory();
  const auto& catalog = sim::default_catalog();
  MrcBestFitPlacement engine(dir);
  auto views = three_machines(8, 8, 8);
  const auto& app = catalog.by_name("milc1");
  const double empty_score = engine.score(app, views[0]);
  // Pile four copies of a cache-hungry app onto the same machine.
  for (int i = 0; i < 4; ++i) views[0].tenants.push_back(&app);
  const double crowded_score = engine.score(app, views[0]);
  EXPECT_GT(empty_score, 0.0);
  EXPECT_LT(crowded_score, empty_score);
}

TEST(MrcBestFitPlacement, AvoidsTheCrowdedMachine) {
  const auto& dir = shared_directory();
  const auto& catalog = sim::default_catalog();
  MrcBestFitPlacement engine(dir);
  // Identical HPs so the only difference is the tenant load.
  auto views = three_machines(4, 4, 4);
  views[1].hp = views[0].hp;
  views[2].hp = views[0].hp;
  const auto& hungry = catalog.by_name("milc1");
  views[0].tenants = {&hungry, &hungry, &hungry};
  views[2].tenants = {&hungry, &hungry, &hungry};
  const auto m = engine.place(hungry, views);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, 1u);
}

TEST(MrcP2cPlacement, ValidatesChoices) {
  const auto& dir = shared_directory();
  EXPECT_THROW(MrcP2cPlacement(dir, 7, 0), std::invalid_argument);
  EXPECT_THROW(make_placement("mrc-p2c", dir, 7, 0), std::invalid_argument);
  EXPECT_NO_THROW(make_placement("mrc-p2c", dir, 7, 1));
  // Engines that ignore the knob accept any value, including 0.
  EXPECT_NO_THROW(make_placement("mrc", dir, 7, 0));
}

TEST(MakePlacement, KnownNamesAndErrors) {
  const auto& dir = shared_directory();
  for (const auto& name : known_placements()) {
    EXPECT_EQ(make_placement(name, dir, 1)->name(), name);
  }
  EXPECT_THROW(make_placement("bogus", dir, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dicer::fleet
