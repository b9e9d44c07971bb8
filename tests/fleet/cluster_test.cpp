#include "fleet/cluster.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/core/catalog.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#include "../../examples/fleet_common.hpp"

namespace dicer::fleet {
namespace {

FleetConfig small_config() {
  FleetConfig fc;
  fc.num_machines = 16;
  fc.cores_used = 4;
  fc.churn.arrival_rate_per_sec = 6.0;
  fc.churn.mean_lifetime_sec = 4.0;
  fc.churn.seed = 17;
  fc.seed = 11;
  fc.jobs = 1;
  return fc;
}

std::string run_csv(const FleetConfig& fc, std::uint64_t epochs) {
  Cluster cluster(fc, sim::default_catalog());
  std::string csv = epoch_csv_header() + "\n";
  for (const auto& row : cluster.run(epochs)) {
    csv += epoch_csv_row(row) + "\n";
  }
  return csv;
}

/// Churn-heavy: multi-arrival epochs, migrations every violating epoch
/// (excluded decisions), 64 machines so the data plane has real shards.
FleetConfig churny_config(const std::string& placement) {
  FleetConfig fc = small_config();
  fc.num_machines = 64;
  fc.placement = placement;
  fc.migrate_after = 1;
  fc.churn.arrival_rate_per_sec = 30.0;
  fc.churn.mean_lifetime_sec = 3.0;
  return fc;
}

std::string log_string(const std::vector<PlacementRecord>& log) {
  std::string out;
  for (const auto& r : log) {
    out += std::to_string(r.tenant_id) + ',' + std::to_string(r.epoch) +
           ',' + r.app + ',' + (r.accepted ? '1' : '0') + ',' +
           (r.migration ? '1' : '0') + ',' + std::to_string(r.machine) +
           ',' + std::to_string(r.core) + '\n';
  }
  return out;
}

/// Every observable output of a run: CSV, placement log, Prometheus text
/// and epoch JSONL, with a run-local tracer + counter sink.
struct RunOutput {
  std::string csv;
  std::string log;
  std::string prometheus;
  std::string jsonl;
  std::vector<EpochMetrics> rows;
};

RunOutput run_outputs(FleetConfig fc, std::uint64_t epochs) {
  trace::Tracer tracer;
  telemetry::Registry registry;
  auto sink = std::make_shared<telemetry::TraceCounterSink>(registry);
  tracer.add_sink(sink);
  fc.tracer = &tracer;
  fc.metrics = &registry;
  Cluster cluster(fc, sim::default_catalog());
  RunOutput out;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    out.rows.push_back(cluster.step_epoch());
    out.csv += epoch_csv_row(out.rows.back()) + "\n";
    out.jsonl += epoch_jsonl_row(out.rows.back()) + "\n";
  }
  tracer.remove_sink(sink);
  out.log = log_string(cluster.placement_log());
  out.prometheus = telemetry::to_prometheus(registry);
  return out;
}

void expect_same_output(const RunOutput& a, const RunOutput& b,
                        const std::string& what) {
  EXPECT_EQ(a.csv, b.csv) << what;
  EXPECT_EQ(a.log, b.log) << what;
  EXPECT_EQ(a.prometheus, b.prometheus) << what;
  EXPECT_EQ(a.jsonl, b.jsonl) << what;
}

TEST(Cluster, ValidatesConfig) {
  const auto& catalog = sim::default_catalog();
  FleetConfig fc = small_config();
  fc.num_machines = 0;
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
  fc = small_config();
  fc.cores_used = 1;  // no room for any BE
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
  fc = small_config();
  fc.cores_used = 99;  // more than the machine has
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
  fc = small_config();
  fc.epoch_sec = 0.001;  // shorter than one 10 ms quantum
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
  fc = small_config();
  fc.placement = "bogus";
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// An infinite epoch passed the "not shorter than a quantum" check and
// run_until then never reached its boundary (`fleet_sim --epoch inf` hung).
TEST(Cluster, RejectsNonFiniteEpoch) {
  for (const double bad : {kInf, kNaN}) {
    FleetConfig fc = small_config();
    fc.epoch_sec = bad;
    EXPECT_THROW(fc.validate(), std::invalid_argument) << bad;
    EXPECT_THROW(Cluster(fc, sim::default_catalog()), std::invalid_argument)
        << bad;
  }
}

// A NaN arrival rate passed the `<= 0` check and the fleet ran with no
// arrivals at all (`fleet_sim --arrival-rate nan` exited 0).
TEST(Cluster, RejectsNanArrivalRate) {
  FleetConfig fc = small_config();
  fc.churn.arrival_rate_per_sec = kNaN;
  EXPECT_THROW(fc.validate(), std::invalid_argument);
  EXPECT_THROW(Cluster(fc, sim::default_catalog()), std::invalid_argument);
}

TEST(Cluster, RejectsNanMeanLifetime) {
  FleetConfig fc = small_config();
  fc.churn.mean_lifetime_sec = kNaN;
  EXPECT_THROW(fc.validate(), std::invalid_argument);
  EXPECT_THROW(Cluster(fc, sim::default_catalog()), std::invalid_argument);
}

// No normalised IPC falls below a non-positive SLO, so `--slo -1` counted
// no violation ever; above 1 even a solo HP would violate.
TEST(Cluster, RejectsSloOutsideUnitInterval) {
  for (const double bad : {-1.0, 0.0, 1.5, kNaN, kInf}) {
    FleetConfig fc = small_config();
    fc.slo_norm = bad;
    EXPECT_THROW(fc.validate(), std::invalid_argument) << bad;
    EXPECT_THROW(Cluster(fc, sim::default_catalog()), std::invalid_argument)
        << bad;
  }
  FleetConfig fc = small_config();
  fc.slo_norm = 1.0;
  EXPECT_NO_THROW(fc.validate());
}

TEST(Cluster, EpochInvariants) {
  Cluster cluster(small_config(), sim::default_catalog());
  std::uint64_t placed = 0, rejected = 0, departed = 0;
  for (int e = 0; e < 6; ++e) {
    const auto m = cluster.step_epoch();
    EXPECT_EQ(m.epoch, static_cast<std::uint64_t>(e));
    EXPECT_DOUBLE_EQ(m.t_sec, (e + 1) * small_config().epoch_sec);
    EXPECT_LE(m.rejected, m.arrivals);
    EXPECT_LE(m.occupied_machines, cluster.num_machines());
    EXPECT_GT(m.fleet_efu, 0.0);
    // Normalised IPCs can transiently top 1 (warm-up vs the steady-state
    // solo reference), so the bound is loose, not exactly 1.
    EXPECT_LT(m.fleet_efu, 1.5);
    EXPECT_GT(m.hp_norm_mean, 0.0);
    EXPECT_LE(m.slo_violation_rate, 1.0);
    placed += m.arrivals - m.rejected;
    rejected += m.rejected;
    departed += m.departures;
    // Conservation: everyone placed either departed or is still running.
    EXPECT_EQ(cluster.tenants_running(), placed - departed);
  }
  EXPECT_EQ(cluster.epochs_done(), 6u);
  // The per-BE-core capacity bounds what can ever run at once.
  EXPECT_LE(cluster.tenants_running(),
            cluster.num_machines() * (small_config().cores_used - 1));
}

TEST(Cluster, PlacementLogMatchesMetrics) {
  Cluster cluster(small_config(), sim::default_catalog());
  std::uint64_t arrivals = 0, migrations = 0;
  for (int e = 0; e < 6; ++e) {
    const auto m = cluster.step_epoch();
    arrivals += m.arrivals;
    migrations += m.migrations;
  }
  std::uint64_t log_arrivals = 0, log_migrations = 0;
  for (const auto& rec : cluster.placement_log()) {
    if (rec.migration) {
      log_migrations += rec.accepted ? 1u : 0u;
    } else {
      ++log_arrivals;
      if (rec.accepted) {
        EXPECT_LT(rec.machine, cluster.num_machines());
        EXPECT_GE(rec.core, 1u);
        EXPECT_LT(rec.core, small_config().cores_used);
      }
    }
  }
  EXPECT_EQ(log_arrivals, arrivals);
  EXPECT_EQ(log_migrations, migrations);
}

// The tentpole determinism contract: same (config, seed) => byte-identical
// per-epoch CSV at any worker count.
TEST(Cluster, CsvIsByteIdenticalAcrossJobCounts) {
  FleetConfig fc = small_config();
  fc.jobs = 1;
  const std::string serial = run_csv(fc, 5);
  fc.jobs = 8;
  const std::string sharded = run_csv(fc, 5);
  EXPECT_EQ(serial, sharded);
  fc.jobs = 3;
  EXPECT_EQ(serial, run_csv(fc, 5));
}

// The same contract across the solver shortcuts: replayed solves and
// run_until's bulk replay commits are speed, never results — the CSV must
// match the reference that solves every quantum, at any worker count.
TEST(Cluster, CsvIsByteIdenticalAcrossSolverShortcuts) {
  FleetConfig fc = small_config();
  const std::string fast = run_csv(fc, 5);
  fc.machine.solver_shortcuts = false;
  EXPECT_EQ(fast, run_csv(fc, 5));
  fc.jobs = 8;
  EXPECT_EQ(fast, run_csv(fc, 5));
}

// Churn replay: a fixed seed pins every placement decision, so two fleets
// built from the same config agree on the full decision log.
TEST(Cluster, ChurnReplayPinsPlacementDecisions) {
  const auto& catalog = sim::default_catalog();
  FleetConfig fc = small_config();
  Cluster a(fc, catalog);
  fc.jobs = 4;  // worker count must not leak into decisions either
  Cluster b(fc, catalog);
  a.run(5);
  b.run(5);
  const auto& la = a.placement_log();
  const auto& lb = b.placement_log();
  ASSERT_EQ(la.size(), lb.size());
  ASSERT_GT(la.size(), 0u);
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].tenant_id, lb[i].tenant_id);
    EXPECT_EQ(la[i].epoch, lb[i].epoch);
    EXPECT_EQ(la[i].app, lb[i].app);
    EXPECT_EQ(la[i].accepted, lb[i].accepted);
    EXPECT_EQ(la[i].migration, lb[i].migration);
    EXPECT_EQ(la[i].machine, lb[i].machine);
    EXPECT_EQ(la[i].core, lb[i].core);
  }
}

// Any --jobs equals --jobs 1 for every engine: CSV rows, the placement
// log (decision by decision, migrations included) and both metrics
// exports.
TEST(Cluster, AnyJobsMatchesJobsOneForEveryEngine) {
  for (const auto& engine : known_placements()) {
    FleetConfig fc = churny_config(engine);
    const RunOutput ref = run_outputs(fc, 5);
    EXPECT_FALSE(ref.log.empty()) << engine;
    for (const unsigned jobs : {2u, 8u}) {
      fc.jobs = jobs;
      expect_same_output(ref, run_outputs(fc, 5),
                         engine + " jobs=" + std::to_string(jobs));
    }
  }
}

// Arrivals far beyond capacity on a tiny fleet: machines fill and close
// mid-queue and arrivals are rejected. Every engine's outputs at --jobs 8
// must still equal --jobs 1.
TEST(Cluster, HighConflictArrivalBurstsStayJobsInvariant) {
  for (const auto& engine : known_placements()) {
    FleetConfig fc = churny_config(engine);
    fc.num_machines = 48;
    fc.cores_used = 3;  // 96 BE slots fleet-wide
    fc.churn.arrival_rate_per_sec = 400.0;
    fc.churn.mean_lifetime_sec = 2.0;
    const RunOutput serial = run_outputs(fc, 4);
    fc.jobs = 8;
    expect_same_output(serial, run_outputs(fc, 4), engine + " burst");

    std::uint64_t rejected = 0;
    for (const auto& r : serial.rows) rejected += r.rejected;
    EXPECT_GT(rejected, 0u) << engine << ": the burst admitted everything";
  }
}

// --p2c-d is a real knob: every fan-out stays jobs-invariant (its draws
// live on the serial control plane).
TEST(Cluster, P2cChoicesStayJobsInvariant) {
  for (const unsigned d : {1u, 5u, 16u}) {
    FleetConfig fc = churny_config("mrc-p2c");
    fc.p2c_choices = d;
    const RunOutput ref = run_outputs(fc, 4);
    fc.jobs = 8;
    expect_same_output(ref, run_outputs(fc, 4), "d=" + std::to_string(d));
  }
}

// The control-plane timers: the parent scope (profile continuity) and the
// three phase children each record once per epoch.
TEST(Cluster, PhaseTimersRecorded) {
  auto count_of = [](const std::string& label) {
    for (const auto& [name, stat] : trace::TimerRegistry::global().snapshot()) {
      if (name == label) return stat.count;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t parent = count_of("fleet.placement");
  const std::uint64_t departures = count_of("fleet.departures");
  const std::uint64_t migrations = count_of("fleet.migrations");
  const std::uint64_t arrivals = count_of("fleet.arrivals");

  Cluster cluster(small_config(), sim::default_catalog());
  cluster.step_epoch();

  EXPECT_EQ(count_of("fleet.placement"), parent + 1);
  EXPECT_EQ(count_of("fleet.departures"), departures + 1);
  EXPECT_EQ(count_of("fleet.migrations"), migrations + 1);
  EXPECT_EQ(count_of("fleet.arrivals"), arrivals + 1);
}

TEST(FleetCli, P2cFlagParsesAndValidates) {
  {
    const char* argv[] = {"fleet_sim", "--p2c-d", "7"};
    const util::CliArgs args(3, argv);
    EXPECT_EQ(examples::fleet_config_from(args).p2c_choices, 7u);
  }
  {
    const char* argv[] = {"fleet_sim"};
    const util::CliArgs args(1, argv);
    EXPECT_EQ(examples::fleet_config_from(args).p2c_choices,
              MrcP2cPlacement::kChoices);
  }
  for (const char* bad : {"0", "-3"}) {
    const char* argv[] = {"fleet_sim", "--p2c-d", bad};
    const util::CliArgs args(3, argv);
    EXPECT_THROW(examples::fleet_config_from(args), util::CliError)
        << "--p2c-d " << bad;
  }
}

// A negative count used to wrap: --machines -1 asked for 2^32-1 machines.
// Parsed here only; no fleet is built (util::count_flag, which also
// guards --epochs, has its own test in cli_test.cpp).
TEST(FleetCli, NegativeCountFlagsAreRejected) {
  for (const char* key : {"--machines", "--cores", "--migrate-after"}) {
    for (const char* bad : {"-1", "-4294967295", "4294967296"}) {
      const char* argv[] = {"fleet_sim", key, bad};
      const util::CliArgs args(3, argv);
      EXPECT_THROW(examples::fleet_config_from(args), util::CliError)
          << key << " " << bad;
    }
  }
  {
    const char* argv[] = {"fleet_sim", "--machines", "0", "--cores", "4",
                          "--migrate-after", "4294967295"};
    const util::CliArgs args(7, argv);
    const FleetConfig fc = examples::fleet_config_from(args);
    EXPECT_EQ(fc.num_machines, 0u);
    EXPECT_EQ(fc.cores_used, 4u);
    EXPECT_EQ(fc.migrate_after, 4294967295u);
  }
}

// fleet_config_from reads every fleet-shape flag, so a full fleet command
// line passes reject_unknown() and any flag outside the table fails it.
TEST(FleetCli, FleetFlagsAreConsumedAndOthersRejected) {
  {
    const std::vector<const char*> argv = {
        "fleet_sim",
        "--machines", "8", "--cores", "4", "--policy", "DICER",
        "--placement", "mrc-p2c", "--epoch", "1", "--slo", "0.9",
        "--migrate-after", "2", "--seed", "3", "--jobs", "2",
        "--p2c-d", "3", "--arrival-rate", "5", "--mean-lifetime", "4"};
    const util::CliArgs args(static_cast<int>(argv.size()), argv.data());
    examples::fleet_config_from(args);
    EXPECT_NO_THROW(args.reject_unknown());
  }
  {
    const char* argv[] = {"fleet_sim", "--machines", "8", "--shards", "4"};
    const util::CliArgs args(5, argv);
    examples::fleet_config_from(args);
    EXPECT_THROW(args.reject_unknown(), util::CliError);
  }
}

TEST(Cluster, SeedChangesTheFleet) {
  FleetConfig fc = small_config();
  const std::string a = run_csv(fc, 3);
  fc.seed = fc.seed + 1;
  fc.churn.seed = fc.churn.seed + 1;
  const std::string b = run_csv(fc, 3);
  EXPECT_NE(a, b);
}

// The headline acceptance check: MRC-aware placement beats random on
// aggregate EFU under a load where placement quality matters.
TEST(Cluster, MrcPlacementBeatsRandomOnFleetEfu) {
  const auto& catalog = sim::default_catalog();
  FleetConfig fc = small_config();
  fc.num_machines = 32;
  fc.cores_used = 6;
  fc.churn.arrival_rate_per_sec = 25.0;
  fc.churn.mean_lifetime_sec = 8.0;

  fc.placement = "random";
  Cluster random_fleet(fc, catalog);
  const double random_efu = Cluster::mean_efu(random_fleet.run(10));

  fc.placement = "mrc";
  Cluster mrc_fleet(fc, catalog);
  const double mrc_efu = Cluster::mean_efu(mrc_fleet.run(10));

  EXPECT_GT(mrc_efu, random_efu);
}

TEST(Cluster, RejectsWhenEveryCoreIsBusy) {
  FleetConfig fc = small_config();
  fc.num_machines = 2;
  fc.cores_used = 2;  // one BE slot per machine
  fc.churn.arrival_rate_per_sec = 20.0;
  fc.churn.mean_lifetime_sec = 60.0;  // effectively nobody leaves
  Cluster cluster(fc, sim::default_catalog());
  std::uint64_t rejected = 0;
  for (int e = 0; e < 3; ++e) rejected += cluster.step_epoch().rejected;
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(cluster.tenants_running(), 2u);
}

TEST(Cluster, CsvRowRoundTripsShape) {
  EpochMetrics m;
  m.epoch = 3;
  m.t_sec = 4.0;
  m.fleet_efu = 0.875;
  const auto row = epoch_csv_row(m);
  // Same column count as the header.
  const auto count = [](const std::string& s) {
    std::size_t n = 1;
    for (char c : s) n += c == ',' ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count(row), count(epoch_csv_header()));
  EXPECT_EQ(row.substr(0, 4), "3,4,");
}

}  // namespace
}  // namespace dicer::fleet
