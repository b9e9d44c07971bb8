#include "util/log.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace dicer::util {

namespace {

LogLevel env_log_level() noexcept {
  const char* env = std::getenv("DICER_LOG");
  if (env == nullptr || *env == '\0') return LogLevel::kWarn;
  if (const auto level = find_log_level(env)) return *level;
  // The logger is not up yet (this initialises it), so write directly.
  std::fprintf(stderr,
               "[warn ] ignoring invalid DICER_LOG='%s' (expected one of "
               "%s); using warn\n",
               env, kLogLevelNames);
  return LogLevel::kWarn;
}

std::atomic<int>& threshold_storage() noexcept {
  static std::atomic<int> level{static_cast<int>(env_log_level())};
  return level;
}

std::atomic<std::FILE*>& log_file_storage() noexcept {
  static std::atomic<std::FILE*> file{nullptr};
  return file;
}

const char* prefix(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "[debug]";
    case LogLevel::kInfo: return "[info ]";
    case LogLevel::kWarn: return "[warn ]";
    case LogLevel::kError: return "[error]";
    case LogLevel::kOff: return "[off  ]";
  }
  return "[?]";
}

}  // namespace

std::optional<LogLevel> find_log_level(const std::string& text) noexcept {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  if (text == "off") return LogLevel::kOff;
  return std::nullopt;
}

LogLevel log_threshold() noexcept {
  return static_cast<LogLevel>(threshold_storage().load(std::memory_order_relaxed));
}

void set_log_threshold(LogLevel level) noexcept {
  threshold_storage().store(static_cast<int>(level), std::memory_order_relaxed);
}

void set_log_file(std::FILE* file) noexcept {
  log_file_storage().store(file, std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) >= static_cast<int>(log_threshold());
}

void log_line(LogLevel level, const std::string& msg) {
  if (!log_enabled(level)) return;
  // Assemble the whole line first, then write it in one call under the
  // mutex: stdio buffering gives no atomicity guarantee across the pieces
  // of an fprintf, so a multi-part write could interleave with another
  // thread's line on the same stream.
  std::string line;
  line.reserve(msg.size() + 9);
  line += prefix(level);
  line += ' ';
  line += msg;
  line += '\n';
  static std::mutex mu;
  std::FILE* out = log_file_storage().load(std::memory_order_relaxed);
  if (!out) out = stderr;
  std::lock_guard<std::mutex> lock(mu);
  std::fwrite(line.data(), 1, line.size(), out);
}

}  // namespace dicer::util
