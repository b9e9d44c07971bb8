// Tiny leveled logger. The simulator and policies log controller decisions
// (allocation changes, sampling, resets) at kDebug so experiments stay quiet
// by default but a single env var (DICER_LOG=debug) exposes the control flow.
#pragma once

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

namespace dicer::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// The level names find_log_level accepts, for diagnostics.
inline constexpr const char* kLogLevelNames = "debug, info, warn, error, off";

/// Global threshold; initialised from the DICER_LOG environment variable
/// (debug|info|warn|error|off) on first use, default kWarn. A malformed
/// DICER_LOG is reported once on stderr and leaves the default.
LogLevel log_threshold() noexcept;
void set_log_threshold(LogLevel level) noexcept;

/// The level named "debug" | "info" | "warn" | "error" | "off"; nullopt on
/// anything else. Backs both DICER_LOG and the --log-level flag.
std::optional<LogLevel> find_log_level(const std::string& text) noexcept;

bool log_enabled(LogLevel level) noexcept;

/// Emit one line with a level prefix. No-op below the threshold.
/// Thread-safe: the prefixed line is assembled first and written to the
/// log stream as one mutex-guarded write, so concurrent loggers (e.g. the
/// parallel sweep's workers) can never interleave partial lines.
void log_line(LogLevel level, const std::string& msg);

/// Redirect log output (default stderr; nullptr restores stderr). The
/// stream is shared global state — meant for tests capturing output.
void set_log_file(std::FILE* file) noexcept;

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace dicer::util

#define DICER_LOG(level)                                        \
  if (!::dicer::util::log_enabled(::dicer::util::LogLevel::level)) { \
  } else                                                        \
    ::dicer::util::detail::LogStream(::dicer::util::LogLevel::level)

#define DICER_DEBUG DICER_LOG(kDebug)
#define DICER_INFO DICER_LOG(kInfo)
#define DICER_WARN DICER_LOG(kWarn)
#define DICER_ERROR DICER_LOG(kError)
