// Table 1: system configuration and DICER parameters, as probed from the
// simulated platform and the controller defaults.
#include "bench_common.hpp"
#include "policy/dicer.hpp"
#include "rdt/capability.hpp"
#include "sim/machine.hpp"

static int run(int argc, char** argv) {
  using namespace dicer;
  bench::BenchEnv env(argc, argv);
  env.args.reject_unknown();
  bench::print_header("Table 1: System configuration");

  const sim::MachineConfig mc;
  sim::Machine machine(mc);
  const auto cap = rdt::Capability::probe(machine);
  const policy::DicerConfig dc;

  util::TextTable t;
  t.set_header({"", "parameter", "value"});
  t.add_row({"System", "Processor",
             std::to_string(mc.num_cores) + " cores, " +
                 util::fmt(mc.freq_hz / 1e9) + " GHz, SMT disabled"});
  t.add_row({"", "LLC",
             util::fmt(static_cast<double>(mc.llc.size_bytes) / (1024 * 1024)) +
                 " MB, " + std::to_string(mc.llc.ways) +
                 "-way set associative"});
  t.add_row({"", "Memory bandwidth",
             util::fmt(mc.link.capacity_bytes_per_sec * 8.0 / 1e9) +
                 " Gbps per channel"});
  t.add_row({"", "CAT",
             std::string(cap.cat_supported ? "yes" : "no") + ", " +
                 std::to_string(cap.cat_num_clos) + " CLOS, " +
                 std::to_string(cap.cat_ways) + "-bit CBM"});
  t.add_row({"", "CMT/MBM",
             std::string(cap.cmt_supported && cap.mbm_supported ? "yes"
                                                                : "no") +
                 ", " + std::to_string(cap.num_rmids) + " RMIDs"});
  t.add_row({"", "MBA", cap.mba_supported ? "yes" : "no (as in the paper)"});
  t.add_rule();
  t.add_row({"DICER", "Monitoring period", "T = " + util::fmt(dc.period_sec) + " sec"});
  t.add_row({"", "BW saturation threshold",
             "MemBW_threshold = " +
                 util::fmt(dc.membw_threshold_bytes_per_sec * 8.0 / 1e9) +
                 " Gbps"});
  t.add_row({"", "Phase detection threshold",
             "phase_threshold = " + util::fmt(dc.phase_threshold * 100) +
                 "% (Equation 2)"});
  t.add_row({"", "IPC stability percentage",
             "a = " + util::fmt(dc.alpha * 100) + "% (Equation 3)"});
  t.add_row({"", "Sampling settle interval",
             util::fmt(dc.sample_interval_sec) + " sec, stride " +
                 std::to_string(dc.sample_stride) + " ways"});
  t.print();
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
