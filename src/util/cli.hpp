// Small command-line flag parser shared by bench/example binaries.
// Supports --flag, --key=value and "--key value" forms.
//
// Numeric getters are strict: the whole value must parse ("4x", "abc",
// "1.5.2" and out-of-range numbers all throw CliError), so a typo fails
// loudly instead of silently becoming 0. Every getter and has() records
// the key it read; a front-end that has read all its flags calls
// reject_unknown() so a misspelled or retired flag fails loudly too.
// Front-ends catch CliError at the top of main (see cli_main_guard) and
// turn it into a one-line error plus a non-zero exit. A --help no getter
// read makes reject_unknown() throw CliHelp instead, listing every flag
// the front-end read; cli_main_guard prints it and exits 0.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dicer::util {

/// A malformed flag value (e.g. `--jobs=4x`). what() is a complete,
/// actionable one-liner: "invalid value for --jobs: '4x' (expected
/// integer)".
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by CliArgs::reject_unknown() on --help; what() is the usage
/// text: the program name and every flag the front-end read.
class CliHelp : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& def) const;
  /// Strict integer flag: returns `def` when absent/empty, throws CliError
  /// on trailing junk, non-numeric text or out-of-range values.
  long get_int(const std::string& key, long def) const;
  /// Strict floating-point flag: same contract as get_int.
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;
  /// Throw CliError("unknown flag --X") for the first flag (in key order)
  /// that no getter or has() has read. Call it once every flag is read.
  /// An unread --help throws CliHelp instead.
  void reject_unknown() const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;  ///< keys a getter or has() asked for
};

/// --jobs N as a worker request for ThreadPool::resolve_jobs (0, the
/// default, means auto). A negative count throws CliError.
unsigned jobs_flag(const CliArgs& args);

/// A count flag (--machines, --epochs, --cores, ...) as T. A negative
/// value, or one T cannot hold, throws CliError instead of wrapping into a
/// huge count on the cast.
template <typename T>
T count_flag(const CliArgs& args, const std::string& key, T def) {
  const long value = args.get_int(key, static_cast<long>(def));
  if (!std::in_range<T>(value)) {
    throw CliError("invalid value for --" + key + ": '" +
                   std::to_string(value) + "' (expected an integer from 0 to " +
                   std::to_string(std::numeric_limits<T>::max()) + ")");
  }
  return static_cast<T>(value);
}

/// Apply --log-level L, when given, to the log threshold (after DICER_LOG
/// has been read and, if malformed, warned about). A value that is not a
/// level name throws CliError naming the valid levels.
void apply_log_level_flag(const CliArgs& args);

/// Run `body` and translate CliError (and std::exception generally) into a
/// one-line `program: error: ...` on stderr plus exit code 2 (1 for other
/// exceptions), and CliHelp into its usage text on stdout plus exit code 0
/// — the shared epilogue of every example/bench main:
///
///   int main(int argc, char** argv) {
///     return util::cli_main_guard(argv[0], [&] { ...; return 0; });
///   }
int cli_main_guard(const char* program, const std::function<int()>& body);

}  // namespace dicer::util
