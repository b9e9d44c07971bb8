// In-process half of the end-to-end benchmark (run.py is the other half).
// It times calls into the repo's public layer APIs from outside and prints
// one JSON object of raw measurements as its last stdout line.
//
//   e2e_inproc figures --cache-dir DIR --jobs N
//     The figure pipeline's compute stages, called one by one: solo
//     references, the 59x59 UM/CT baseline study (cell by cell through
//     harness::run_consolidation), baseline cache save/load, the policy
//     sweep, and the 360-cell probe (per-cell vs run_consolidation_batch,
//     with a forwarding policy wrapper timing act()). It writes the same
//     two cache files the artefact binaries write, so run.py can check
//     them against the reference digests and then run the binaries warm.
//
//   e2e_inproc fleet --machines M --arrival-rate R --mean-lifetime L
//                    --seed S --jobs N --warmup-epochs W --window-epochs K
//                    --boots B --trace 0|1 --out-dir DIR
//     A fleet bound to a telemetry registry and TraceCounterSink exactly as
//     fleet_sim binds them. Boots B clusters (the last one is kept), warms
//     it W epochs, then times a fixed window of K epochs. The epoch CSV,
//     epoch JSONL and Prometheus exports cover all W+K epochs and equal
//     fleet_sim --epochs W+K byte for byte. With --trace 1, the
//     trace::TimerRegistry phase scopes the cluster already records are
//     read around every other window epoch; the epochs in between are the
//     untraced comparison for the tracing overhead. Every boot, the
//     warm-up, the window and every window epoch also carry their start
//     on CLOCK_MONOTONIC, so run.py can match them with host-speed samples.
//
//   e2e_inproc hostspeed
//     Samples host speed every 20 ms until stdin closes (see host_speed_ms)
//     and prints one "<CLOCK_MONOTONIC s> <sample ms>" line per sample.
#include <poll.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/cluster.hpp"
#include "harness/consolidation.hpp"
#include "harness/solo.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "metrics/metrics.hpp"
#include "policy/baselines.hpp"
#include "policy/factory.hpp"
#include "sim/core/catalog.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace {

using namespace dicer;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CLOCK_MONOTONIC in seconds, the clock Python's time.monotonic() reads.
double monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Flat JSON object of numbers, printed in insertion order.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    add(key, buf);
  }
  void list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    add(key, s + "]");
  }
  void print() const { std::cout << "{" << body_ << "}" << std::endl; }

 private:
  void add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + raw;
  }
  std::string body_;
};

/// Total ms and count recorded under each TimerRegistry label.
std::map<std::string, trace::TimerStat> timer_snapshot() {
  std::map<std::string, trace::TimerStat> out;
  for (auto& [label, stat] : trace::TimerRegistry::global().snapshot()) {
    out[label] = stat;
  }
  return out;
}

double timer_delta_ms(const std::map<std::string, trace::TimerStat>& before,
                      const std::map<std::string, trace::TimerStat>& after,
                      const std::string& label) {
  const auto a = after.find(label);
  if (a == after.end()) return 0.0;
  const auto b = before.find(label);
  return a->second.total_ms - (b == before.end() ? 0.0 : b->second.total_ms);
}

std::uint64_t counter_value(const std::string& label) {
  for (const auto& [name, n] : trace::TimerRegistry::global().counters()) {
    if (name == label) return n;
  }
  return 0;
}

// ---------------------------------------------------------------- figures

/// Forwards every call to the wrapped policy and times act(); the rdt
/// actuation and monitoring a policy does happens inside act().
class TimedPolicy final : public policy::Policy {
 public:
  TimedPolicy(std::unique_ptr<policy::Policy> inner, std::vector<double>* act_us)
      : inner_(std::move(inner)), act_us_(act_us) {}

  std::string name() const override { return inner_->name(); }
  void setup(policy::PolicyContext& ctx) override { inner_->setup(ctx); }
  double interval_sec() const override { return inner_->interval_sec(); }
  void act(policy::PolicyContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->act(ctx);
    act_us_->push_back(seconds_since(t0) * 1e6);
  }
  void teardown(policy::PolicyContext& ctx) override { inner_->teardown(ctx); }

 private:
  std::unique_ptr<policy::Policy> inner_;
  std::vector<double>* act_us_;
};

/// Bitwise equality of the fields a sweep row or figure reads.
bool same_result(const harness::ConsolidationResult& a,
                 const harness::ConsolidationResult& b) {
  auto bits_eq = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  if (a.be_ipcs.size() != b.be_ipcs.size()) return false;
  for (std::size_t i = 0; i < a.be_ipcs.size(); ++i) {
    if (!bits_eq(a.be_ipcs[i], b.be_ipcs[i])) return false;
  }
  return bits_eq(a.hp_ipc, b.hp_ipc) && bits_eq(a.be_ipc_mean, b.be_ipc_mean) &&
         bits_eq(a.window_sec, b.window_sec) &&
         a.hp_completions == b.hp_completions &&
         a.be_completions == b.be_completions;
}

int run_figures(const util::CliArgs& args) {
  const std::string dir = args.get_or("cache-dir", "");
  if (dir.empty()) throw util::CliError("figures: --cache-dir is required");
  const long jobs = args.get_int("jobs", 1);
  if (jobs < 1) throw util::CliError("figures: --jobs must be >= 1");
  std::filesystem::create_directories(dir);
  const auto path = [&dir](const char* f) {
    return (std::filesystem::path(dir) / f).string();
  };

  const sim::AppCatalog& catalog = sim::default_catalog();
  harness::ConsolidationConfig config;  // as every figure binary sets it
  config.cores_used = 10;
  JsonOut out;
  double failures = 0;

  // Solo references: IPC_alone per app at the full LLC.
  auto t0 = Clock::now();
  std::map<std::string, double> alone;
  for (const auto& p : catalog.profiles()) {
    alone[p.name] =
        harness::solo_steady_state(p, config.machine.llc.ways, config.machine)
            .ipc;
  }
  const double solo_s = seconds_since(t0);

  // The 59x59 x {UM, CT} baseline study, one consolidation at a time, in
  // harness::baseline_study's order and with its row arithmetic.
  t0 = Clock::now();
  harness::BaselineStudy study;
  study.config = config;
  const std::size_t n_bes = config.cores_used - 1;
  auto efu_of = [n_bes](double hp_alone, double hp, double be_alone,
                        double be_mean) {
    std::vector<metrics::IpcPair> pairs;
    pairs.push_back({hp_alone, hp});
    for (std::size_t i = 0; i < n_bes; ++i) pairs.push_back({be_alone, be_mean});
    return metrics::effective_utilisation(pairs);
  };
  std::size_t baseline_cells = 0;
  for (const auto& hp : catalog.profiles()) {
    for (const auto& be : catalog.profiles()) {
      harness::BaselineEntry e;
      e.spec = {hp.name, be.name};
      e.hp_alone_ipc = alone[hp.name];
      e.be_alone_ipc = alone[be.name];
      policy::Unmanaged um;
      const auto um_res = harness::run_consolidation(hp, be, um, config);
      e.um_hp_ipc = um_res.hp_ipc;
      e.um_be_ipc = um_res.be_ipc_mean;
      e.um_efu = efu_of(e.hp_alone_ipc, e.um_hp_ipc, e.be_alone_ipc, e.um_be_ipc);
      policy::CacheTakeover ct;
      const auto ct_res = harness::run_consolidation(hp, be, ct, config);
      e.ct_hp_ipc = ct_res.hp_ipc;
      e.ct_be_ipc = ct_res.be_ipc_mean;
      e.ct_efu = efu_of(e.hp_alone_ipc, e.ct_hp_ipc, e.be_alone_ipc, e.ct_be_ipc);
      study.entries.push_back(std::move(e));
      baseline_cells += 2;
    }
  }
  const double baseline_s = seconds_since(t0);

  t0 = Clock::now();
  harness::save_baseline_cache(path("cache_baseline_study.csv"), study, catalog);
  const double baseline_save_s = seconds_since(t0);
  t0 = Clock::now();
  const auto loaded = harness::load_baseline_cache(
      path("cache_baseline_study.csv"), catalog, config);
  const double baseline_load_s = seconds_since(t0);
  if (!loaded || loaded->entries.size() != study.entries.size()) {
    std::cerr << "e2e_inproc: baseline cache did not load back\n";
    ++failures;
  }

  // The figures select their sample from the study as loaded from the
  // cache (the figure binaries always read it back from disk).
  t0 = Clock::now();
  const auto sample =
      harness::representative_sample(loaded ? *loaded : study, 50, 70);
  const double sample_s = seconds_since(t0);

  // The shared sweep behind Figs 5-8, with its own stage scopes.
  auto before = timer_snapshot();
  t0 = Clock::now();
  harness::SweepConfig sc;
  sc.base = config;
  sc.jobs = static_cast<unsigned>(jobs);
  const auto rows = harness::policy_sweep(catalog, sample, sc,
                                          path("cache_policy_sweep.csv"));
  const double sweep_call_s = seconds_since(t0);
  auto after = timer_snapshot();
  const double sweep_compute_s =
      timer_delta_ms(before, after, "sweep.compute") / 1e3;
  const double save_s =
      baseline_save_s + timer_delta_ms(before, after, "sweep.save_cache") / 1e3;
  const double load_s =
      baseline_load_s + timer_delta_ms(before, after, "sweep.load_cache") / 1e3;

  // Cell probe: sample x 10 cores x {UM, CT, DICER}, once cell by cell and
  // once through the batched engine in the sweep's chunks of 8.
  t0 = Clock::now();
  const std::vector<std::string> policies = {"UM", "CT", "DICER"};
  struct Cell {
    const harness::BaselineEntry* entry;
    const std::string* policy;
  };
  std::vector<Cell> cells;
  for (const auto& e : sample) {
    for (const auto& p : policies) cells.push_back({&e, &p});
  }
  std::vector<double> act_us, cell_ms;
  std::vector<harness::ConsolidationResult> single;
  const auto t_single = Clock::now();
  for (const auto& c : cells) {
    TimedPolicy pol(policy::make_policy(*c.policy), &act_us);
    const auto tc = Clock::now();
    single.push_back(harness::run_consolidation(
        catalog.by_name(c.entry->spec.hp), catalog.by_name(c.entry->spec.be),
        pol, config));
    cell_ms.push_back(seconds_since(tc) * 1e3);
  }
  const double single_s = seconds_since(t_single);
  double act_total_s = 0.0;
  for (double us : act_us) act_total_s += us / 1e6;

  constexpr std::size_t kChunk = 8;
  std::vector<double> batch_cell_ms;
  std::vector<harness::ConsolidationResult> batched;
  const auto t_batch = Clock::now();
  for (std::size_t begin = 0; begin < cells.size(); begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, cells.size());
    std::vector<std::unique_ptr<policy::Policy>> pols;
    std::vector<harness::BatchConsolidationTask> tasks;
    for (std::size_t i = begin; i < end; ++i) {
      pols.push_back(policy::make_policy(*cells[i].policy));
      harness::BatchConsolidationTask task;
      task.hp = &catalog.by_name(cells[i].entry->spec.hp);
      task.be = &catalog.by_name(cells[i].entry->spec.be);
      task.policy = pols.back().get();
      task.cores_used = config.cores_used;
      tasks.push_back(task);
    }
    const auto tc = Clock::now();
    auto res = harness::run_consolidation_batch(tasks, config);
    const double per_cell =
        seconds_since(tc) * 1e3 / static_cast<double>(end - begin);
    for (auto& r : res) {
      batched.push_back(std::move(r));
      batch_cell_ms.push_back(per_cell);
    }
  }
  const double batch_s = seconds_since(t_batch);
  const double probe_s = seconds_since(t0);

  // The probe must agree bit for bit across engines and with the sweep's
  // 10-core rows.
  std::size_t probe_mismatches = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!same_result(single[i], batched[i])) ++probe_mismatches;
  }
  std::map<std::string, const harness::SweepRow*> sweep10;
  for (const auto& r : rows) {
    if (r.cores == 10) sweep10[r.hp + " " + r.be + " " + r.policy] = &r;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto it = sweep10.find(cells[i].entry->spec.label() + " " +
                                 *cells[i].policy);
    if (it == sweep10.end() || it->second->hp_ipc != single[i].hp_ipc ||
        it->second->be_ipc != single[i].be_ipc_mean) {
      ++probe_mismatches;
    }
  }
  if (probe_mismatches != 0) {
    std::cerr << "e2e_inproc: " << probe_mismatches
              << " probe cells disagree between engines or with the sweep\n";
    failures += static_cast<double>(probe_mismatches);
  }

  const double quanta = static_cast<double>(counter_value("solver.quanta"));
  const double solves = static_cast<double>(counter_value("solver.solves"));
  out.num("solo_s", solo_s);
  out.num("baseline_s", baseline_s);
  out.num("baseline_cells", static_cast<double>(baseline_cells));
  out.num("baseline_save_s", baseline_save_s);
  out.num("baseline_load_s", baseline_load_s);
  out.num("cache_save_s", save_s);
  out.num("cache_load_s", load_s);
  out.num("sample_s", sample_s);
  out.num("sweep_s", sweep_call_s);
  out.num("sweep_compute_s", sweep_compute_s);
  out.num("sweep_cells", static_cast<double>(rows.size()));
  out.num("probe_s", probe_s);
  out.num("cell_ms_p50", percentile(cell_ms, 0.50));
  out.num("cell_ms_p99", percentile(cell_ms, 0.99));
  out.num("batch_cell_ms_p50", percentile(batch_cell_ms, 0.50));
  out.num("batch_speedup", batch_s > 0 ? single_s / batch_s : 0.0);
  out.num("act_calls", static_cast<double>(act_us.size()));
  out.num("act_us_p50", percentile(act_us, 0.50));
  out.num("act_share", single_s > 0 ? act_total_s / single_s : 0.0);
  out.num("solver_quanta", quanta);
  out.num("solver_replay_ratio",
          quanta > 0 ? static_cast<double>(counter_value("solver.replays")) /
                           quanta
                     : 0.0);
  out.num("solver_rounds_per_solve",
          solves > 0 ? static_cast<double>(counter_value("solver.rounds")) /
                           solves
                     : 0.0);
  out.num("failures", failures);
  out.print();
  return 0;
}

// ------------------------------------------------------------------ fleet

int run_fleet(const util::CliArgs& args) {
  const std::string dir = args.get_or("out-dir", "");
  if (dir.empty()) throw util::CliError("fleet: --out-dir is required");
  const long warmup = args.get_int("warmup-epochs", 20);
  const long window = args.get_int("window-epochs", 5);
  const long boots = args.get_int("boots", 3);
  const bool traced = args.get_int("trace", 0) != 0;
  if (warmup < 0 || window < 1 || boots < 1) {
    throw util::CliError(
        "fleet: need --warmup-epochs >= 0, --window-epochs >= 1, --boots >= 1");
  }
  std::filesystem::create_directories(dir);
  const auto path = [&dir](const char* f) {
    return (std::filesystem::path(dir) / f).string();
  };

  // The fleet_sim flag mapping (examples/fleet_common.hpp) for the flags
  // the benchmark sets; every other field keeps its default.
  const sim::AppCatalog catalog;
  fleet::FleetConfig fc;
  fc.num_machines = static_cast<unsigned>(args.get_int("machines", 500));
  fc.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  fc.jobs = static_cast<unsigned>(args.get_int("jobs", 0));
  fc.churn.arrival_rate_per_sec = args.get_double("arrival-rate", 40.0);
  fc.churn.mean_lifetime_sec = args.get_double("mean-lifetime", 8.0);
  fc.churn.seed = fc.seed + 1;

  // Boot: construct the cluster `boots` times, each bound to its own
  // registry and counter sink; the last one is kept.
  std::vector<double> boot_s, boot_t0;
  std::unique_ptr<telemetry::Registry> registry;
  std::shared_ptr<telemetry::TraceCounterSink> sink;
  std::unique_ptr<fleet::Cluster> cluster;
  for (long b = 0; b < boots; ++b) {
    if (sink) trace::Tracer::global().remove_sink(sink);
    cluster.reset();
    registry = std::make_unique<telemetry::Registry>();
    sink = std::make_shared<telemetry::TraceCounterSink>(*registry);
    trace::Tracer::global().add_sink(sink);
    fc.metrics = registry.get();
    boot_t0.push_back(monotonic_s());
    const auto t0 = Clock::now();
    cluster = std::make_unique<fleet::Cluster>(fc, catalog);
    boot_s.push_back(seconds_since(t0));
  }

  std::ofstream csv(path("fleet.csv"));
  std::ofstream jsonl(path("epochs.jsonl"));
  if (!csv || !jsonl) throw std::runtime_error("fleet: cannot open exports");
  csv << fleet::epoch_csv_header() << '\n';
  auto write_row = [&](const fleet::EpochMetrics& m) {
    csv << fleet::epoch_csv_row(m) << '\n';
    jsonl << fleet::epoch_jsonl_row(m) << '\n';
  };

  const double warmup_t0 = monotonic_s();
  auto t0 = Clock::now();
  std::uint64_t tenants_start = 0;
  for (long e = 0; e < warmup; ++e) {
    const auto m = cluster->step_epoch();
    write_row(m);
    tenants_start = m.tenants;
  }
  const double warmup_s = seconds_since(t0);

  // Timed window. Every other epoch (odd ones) is instrumented when traced.
  const char* phases[] = {"fleet.departures", "fleet.migrations",
                          "fleet.arrivals", "fleet.step", "fleet.reduce"};
  std::map<std::string, double> phase_ms;
  std::vector<double> epoch_ms, epoch_t0, traced_ms, plain_ms;
  double export_ms = 0.0, instr_epoch_ms = 0.0;
  double efu_sum = 0.0, viol_sum = 0.0;
  std::uint64_t decisions = 0, rejected = 0, instr_arrivals = 0;
  std::uint64_t tenants_end = 0;
  telemetry::Registry& reg = *registry;
  const auto solver_quanta0 = reg.counter("dicer_solver_quanta_total").value();
  const auto solver_replays0 = reg.counter("dicer_solver_replays_total").value();
  const auto solver_solves0 = reg.counter("dicer_solver_solves_total").value();
  const auto solver_rounds0 = reg.counter("dicer_solver_rounds_total").value();
  const auto* index = cluster->placement_index();
  const std::uint64_t mutations0 = index ? index->mutations() : 0;
  const double window_t0 = monotonic_s();
  const auto t_window = Clock::now();
  for (long e = 0; e < window; ++e) {
    // The snapshots are the tracing cost, so they sit inside the epoch.
    const bool instrument = traced && (e % 2 == 1);
    epoch_t0.push_back(monotonic_s());
    const auto te = Clock::now();
    std::map<std::string, trace::TimerStat> before;
    if (instrument) before = timer_snapshot();
    const auto m = cluster->step_epoch();
    std::map<std::string, trace::TimerStat> after;
    if (instrument) after = timer_snapshot();
    const auto tw = Clock::now();
    write_row(m);
    const double ms = seconds_since(te) * 1e3;
    export_ms += seconds_since(tw) * 1e3;
    epoch_ms.push_back(ms);
    if (instrument) {
      for (const char* p : phases) phase_ms[p] += timer_delta_ms(before, after, p);
      instr_epoch_ms += ms;
      instr_arrivals += m.arrivals;
      traced_ms.push_back(ms);
    } else {
      plain_ms.push_back(ms);
    }
    efu_sum += m.fleet_efu;
    viol_sum += m.slo_violation_rate;
    decisions += m.arrivals + m.migrations;
    rejected += m.rejected;
    tenants_end = m.tenants;
  }
  trace::Tracer::global().remove_sink(sink);
  csv.flush();
  jsonl.flush();
  const auto tx = Clock::now();
  telemetry::write_prometheus(reg, path("metrics.prom"));
  export_ms += seconds_since(tx) * 1e3;
  const double wall_s = seconds_since(t_window);
  if (!csv || !jsonl) throw std::runtime_error("fleet: export write failed");

  double failures = 0;
  if (cluster->tenants_running() != tenants_end) {
    std::cerr << "e2e_inproc: tenant counter disagrees with the last row\n";
    ++failures;
  }

  JsonOut out;
  out.list("boot_s", boot_s);
  out.list("boot_t0", boot_t0);
  out.num("warmup_s", warmup_s);
  out.num("warmup_t0", warmup_t0);
  out.num("wall_s", wall_s);
  out.num("window_t0", window_t0);
  out.list("epoch_ms", epoch_ms);
  out.list("epoch_t0", epoch_t0);
  out.num("export_ms", export_ms);
  out.num("fleet_efu", efu_sum / static_cast<double>(window));
  out.num("hp_slo_violation_rate", viol_sum / static_cast<double>(window));
  out.num("decisions", static_cast<double>(decisions));
  out.num("rejected", static_cast<double>(rejected));
  out.num("tenants_start", static_cast<double>(tenants_start));
  out.num("tenants_end", static_cast<double>(tenants_end));
  out.num("failures", failures);
  if (traced) {
    const double n = static_cast<double>(traced_ms.size());
    double attributed = 0.0;
    for (const char* p : phases) {
      out.num(std::string(p) + "_ms", n > 0 ? phase_ms[p] / n : 0.0);
      attributed += phase_ms[p];
    }
    out.num("fleet.unattributed_ms",
            n > 0 ? (instr_epoch_ms - attributed) / n : 0.0);
    out.num("fleet.arrival_us_per_decision",
            instr_arrivals > 0
                ? phase_ms["fleet.arrivals"] * 1e3 /
                      static_cast<double>(instr_arrivals)
                : 0.0);
    out.num("fleet.index.mutations",
            static_cast<double>((index ? index->mutations() : 0) - mutations0));
    const double quanta = static_cast<double>(
        reg.counter("dicer_solver_quanta_total").value() - solver_quanta0);
    const double solves = static_cast<double>(
        reg.counter("dicer_solver_solves_total").value() - solver_solves0);
    out.num("solver_quanta", quanta);
    out.num("solver_replay_ratio",
            quanta > 0 ? static_cast<double>(
                             reg.counter("dicer_solver_replays_total").value() -
                             solver_replays0) /
                             quanta
                       : 0.0);
    out.num("solver_rounds_per_solve",
            solves > 0 ? static_cast<double>(
                             reg.counter("dicer_solver_rounds_total").value() -
                             solver_rounds0) /
                             solves
                       : 0.0);
    const double traced_p50 = percentile(traced_ms, 0.5);
    const double plain_p50 = percentile(plain_ms, 0.5);
    out.num("trace_overhead", plain_p50 > 0 ? traced_p50 / plain_p50 - 1.0 : 0.0);
    out.num("attributed_share",
            instr_epoch_ms > 0 ? attributed / instr_epoch_ms : 0.0);
  }
  out.print();
  return 0;
}

// ------------------------------------------------------------- host speed

volatile std::uint64_t hostspeed_sink = 0;

/// One host-speed sample: the thread CPU time, in ms, of a fixed loop of
/// eight independent multiply-xorshift chains. The loop is bound by integer
/// multiply throughput, which a busy SMT sibling on the host takes away; on
/// a shared host it slows down and speeds up with the simulator, while a
/// latency-bound loop or a memory walk barely moves.
double host_speed_ms() {
  timespec a{}, b{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
  std::uint64_t x[8];
  for (int k = 0; k < 8; ++k) {
    x[k] = hostspeed_sink + static_cast<std::uint64_t>(k) + 1;
  }
  for (long i = 0; i < 125000; ++i) {
    for (auto& v : x) {
      v = v * 6364136223846793005ull + 1442695040888963407ull;
      v ^= v >> 29;
    }
  }
  std::uint64_t sum = 0;
  for (auto v : x) sum += v;
  hostspeed_sink = hostspeed_sink + sum;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
  return static_cast<double>(b.tv_sec - a.tv_sec) * 1e3 +
         static_cast<double>(b.tv_nsec - a.tv_nsec) * 1e-6;
}

int run_hostspeed() {
  constexpr int kIntervalMs = 20;  // ~2 % of the CPU the sampler shares
  pollfd in{0, POLLIN, 0};
  // poll() is the sleep: stdin turns readable (EOF) when run.py is done.
  while (poll(&in, 1, kIntervalMs) == 0) {
    const double t = monotonic_s();
    std::printf("%.9f %.6f\n", t, host_speed_ms());
  }
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    throw util::CliError("usage: e2e_inproc figures|fleet|hostspeed [flags]");
  }
  const std::string mode = argv[1];
  const util::CliArgs args(argc - 1, argv + 1);
  if (mode == "figures") return run_figures(args);
  if (mode == "fleet") return run_fleet(args);
  if (mode == "hostspeed") return run_hostspeed();
  throw util::CliError("unknown mode '" + mode +
                       "' (expected figures|fleet|hostspeed)");
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
