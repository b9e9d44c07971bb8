#include "telemetry/exposition.hpp"

#include <cstdio>

#include "util/result_cache.hpp"

namespace dicer::telemetry {

namespace {

/// Full-precision deterministic double rendering (round-trips exactly,
/// matches the fleet CSV's %.17g convention).
std::string f17(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

void append_histogram(std::string& out, const Registry::Entry& e) {
  const Histogram& h = *e.histogram;
  std::uint64_t cumulative = 0;
  for (unsigned b = 0; b <= h.num_buckets(); ++b) {
    cumulative += h.bucket_count(b);
    const std::string le =
        b < h.num_buckets() ? f17(h.upper_bound(b)) : "+Inf";
    out += e.name + "_bucket{le=\"" + le + "\"} " +
           std::to_string(cumulative) + '\n';
  }
  out += e.name + "_sum " + f17(h.sum()) + '\n';
  out += e.name + "_count " + std::to_string(h.count()) + '\n';
}

}  // namespace

std::string to_prometheus(const Registry& registry) {
  std::string out;
  for (const auto& e : registry.entries()) {
    if (!e.help.empty()) out += "# HELP " + e.name + ' ' + e.help + '\n';
    if (e.counter) {
      out += "# TYPE " + e.name + " counter\n";
      out += e.name + ' ' + std::to_string(e.counter->value()) + '\n';
    } else if (e.gauge) {
      out += "# TYPE " + e.name + " gauge\n";
      out += e.name + ' ' + f17(e.gauge->value()) + '\n';
    } else if (e.histogram) {
      out += "# TYPE " + e.name + " histogram\n";
      append_histogram(out, e);
    }
  }
  return out;
}

std::string to_json(const Registry& registry) {
  std::string out = "{";
  bool first = true;
  for (const auto& e : registry.entries()) {
    if (!first) out += ',';
    first = false;
    out += '"' + e.name + "\":";
    if (e.counter) {
      out += std::to_string(e.counter->value());
    } else if (e.gauge) {
      out += f17(e.gauge->value());
    } else if (e.histogram) {
      const Histogram& h = *e.histogram;
      out += "{\"count\":" + std::to_string(h.count()) +
             ",\"sum\":" + f17(h.sum()) + ",\"min\":" + f17(h.min()) +
             ",\"max\":" + f17(h.max()) +
             ",\"p50\":" + f17(h.percentile(50.0)) +
             ",\"p95\":" + f17(h.percentile(95.0)) +
             ",\"p99\":" + f17(h.percentile(99.0)) + '}';
    }
  }
  out += '}';
  return out;
}

void write_prometheus(const Registry& registry, const std::string& path) {
  util::write_file_atomic(
      path, [&](std::ostream& out) { out << to_prometheus(registry); });
}

}  // namespace dicer::telemetry
