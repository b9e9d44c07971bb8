// util::ResultCache — the one on-disk result cache behind every cached
// experiment: the baseline study, the policy sweep and the trace-app MRC
// profiles.
//
// File format: a "# <key>" line, where the key versions and fingerprints
// every input that shapes the results; an exact column header; then one
// comma-separated row per result, each with exactly as many cells as the
// header has columns. Loading is strict: a foreign key, another header, a
// row with too few or too many cells, a cell that does not parse in full
// ("0.8x", "" or "oops" as a number, "2" as a bool) or a wrong row count
// rejects the whole file with one log line, and the caller recomputes. A
// corrupt cache never crashes a bench or feeds a silent garbage value into
// a figure. Saving streams into a unique temp file next to the target and
// renames it into place, so concurrent savers and interrupted runs never
// leave a torn file behind.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dicer::util {

/// Write `path` atomically: `write` streams the content into a temp file
/// in the same directory, named uniquely per process and call, which is
/// then renamed over `path`. Throws std::runtime_error, leaving no temp
/// file behind, when the file cannot be written or renamed.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write);

class ResultCache {
 public:
  /// The cells of one data row, consumed left to right. Every getter
  /// throws std::invalid_argument on a cell it cannot parse in full.
  class Row {
   public:
    const std::string& text();
    double real();
    unsigned count();  ///< digits only: no sign, space or suffix
    bool flag();       ///< "1" or "0"

   private:
    friend class ResultCache;
    const std::string& next();
    std::vector<std::string> cells_;
    std::size_t next_ = 0;
  };

  ResultCache(std::string path, std::string key, std::string header);

  /// The file's `rows` data rows, each mapped through `read_row`
  /// (Row& -> T), in file order. nullopt when the file is missing, holds
  /// another number of rows or is defective in any way listed in the
  /// header comment. `read_row` may throw std::invalid_argument to reject
  /// a row on the caller's own terms.
  template <typename T, typename ReadRow>
  std::optional<std::vector<T>> load(std::size_t rows,
                                     ReadRow&& read_row) const {
    std::vector<T> out;
    out.reserve(rows);
    if (!scan([&](Row& row) { out.push_back(read_row(row)); }, rows)) {
      return std::nullopt;
    }
    return out;
  }

  /// (Re)write the file atomically: the key line, the header, then what
  /// `write_rows` streams (one '\n'-terminated line per row). A failure
  /// logs a warning and leaves the previous file in place.
  void save(const std::function<void(std::ostream&)>& write_rows) const;

 private:
  bool scan(const std::function<void(Row&)>& read_row,
            std::size_t rows) const;

  std::string path_;
  std::string key_;
  std::string header_;
  std::size_t columns_;
};

}  // namespace dicer::util
