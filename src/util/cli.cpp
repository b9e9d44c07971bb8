#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <iostream>

#include "util/log.hpp"

namespace dicer::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "";  // bare flag
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  read_.insert(key);
  return kv_.count(key) > 0;
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  read_.insert(key);
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& key,
                            const std::string& def) const {
  return get(key).value_or(def);
}

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& expected) {
  throw CliError("invalid value for --" + key + ": '" + value +
                 "' (expected " + expected + ")");
}

}  // namespace

long CliArgs::get_int(const std::string& key, long def) const {
  const auto v = get(key);
  if (!v || v->empty()) return def;
  errno = 0;
  char* end = nullptr;
  const long r = std::strtol(v->c_str(), &end, 10);
  // Full consumption: `end` must land on the terminator, having consumed
  // at least one character — "4x", "x4" and "" are all rejected.
  if (end == v->c_str() || *end != '\0') bad_value(key, *v, "integer");
  if (errno == ERANGE) bad_value(key, *v, "integer in range");
  return r;
}

double CliArgs::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v || v->empty()) return def;
  errno = 0;
  char* end = nullptr;
  const double r = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') bad_value(key, *v, "number");
  if (errno == ERANGE) bad_value(key, *v, "number in range");
  return r;
}

bool CliArgs::get_bool(const std::string& key, bool def) const {
  const auto v = get(key);
  if (!v) return def;
  if (v->empty()) return true;  // bare --flag means true
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  bad_value(key, *v, "boolean (true/false/1/0/yes/no/on/off)");
}

void CliArgs::reject_unknown() const {
  if (kv_.count("help") > 0 && read_.count("help") == 0) {
    std::string usage = "usage: " + program_ + " [flags]\nflags:";
    for (const auto& key : read_) usage += "\n  --" + key;
    throw CliHelp(usage);
  }
  for (const auto& [key, value] : kv_) {
    if (read_.count(key) == 0) throw CliError("unknown flag --" + key);
  }
}

unsigned jobs_flag(const CliArgs& args) {
  const long jobs = args.get_int("jobs", 0);
  if (jobs < 0) {
    bad_value("jobs", std::to_string(jobs), "a worker count >= 0, 0 = auto");
  }
  // resolve_jobs caps any request at 4x the hardware threads; saturate
  // here so a count beyond `unsigned` cannot wrap past that cap.
  return static_cast<unsigned>(
      std::min<unsigned long>(static_cast<unsigned long>(jobs), UINT_MAX));
}

void apply_log_level_flag(const CliArgs& args) {
  // Read DICER_LOG now, so a malformed value is reported at startup even
  // by a run that never logs.
  log_threshold();
  const auto text = args.get("log-level");
  if (!text) return;
  const auto level = find_log_level(*text);
  if (!level) {
    bad_value("log-level", *text, std::string("one of ") + kLogLevelNames);
  }
  set_log_threshold(*level);
}

int cli_main_guard(const char* program, const std::function<int()>& body) {
  try {
    return body();
  } catch (const CliHelp& help) {
    std::cout << help.what() << "\n";
    return 0;
  } catch (const CliError& e) {
    std::cerr << program << ": error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << program << ": error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dicer::util
