#include "util/result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/log.hpp"

namespace dicer::util {

namespace {

std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = line.find(',', begin);
    cells.push_back(line.substr(begin, comma - begin));
    if (comma == std::string::npos) return cells;
    begin = comma + 1;
  }
}

}  // namespace

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  // pid + process-wide counter: concurrent writers (two processes sharing
  // a directory, or two threads of one) each stream into their own temp
  // file, and the last rename wins with a complete file either way.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp);
    write(out);
    if (!out.flush()) {
      out.close();
      std::remove(tmp.c_str());
      throw std::runtime_error("failed writing " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

const std::string& ResultCache::Row::next() {
  // The loader checked the column count, so only a reader asking for more
  // cells than the header declares gets here past the end.
  if (next_ >= cells_.size()) {
    throw std::invalid_argument("row has no column " +
                                std::to_string(next_ + 1));
  }
  return cells_[next_++];
}

const std::string& ResultCache::Row::text() { return next(); }

double ResultCache::Row::real() {
  const std::string& cell = next();
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(cell, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != cell.size()) {
    throw std::invalid_argument("column " + std::to_string(next_) +
                                ": bad number '" + cell + "'");
  }
  return v;
}

unsigned ResultCache::Row::count() {
  const std::string& cell = next();
  unsigned long v = 0;
  bool ok = !cell.empty() && cell.size() <= 10 &&
            cell.find_first_not_of("0123456789") == std::string::npos;
  if (ok) {
    v = std::stoul(cell);
    ok = v <= 0xffffffffUL;
  }
  if (!ok) {
    throw std::invalid_argument("column " + std::to_string(next_) +
                                ": bad unsigned '" + cell + "'");
  }
  return static_cast<unsigned>(v);
}

bool ResultCache::Row::flag() {
  const std::string& cell = next();
  if (cell == "1") return true;
  if (cell == "0") return false;
  throw std::invalid_argument("column " + std::to_string(next_) +
                              ": bad bool '" + cell + "'");
}

ResultCache::ResultCache(std::string path, std::string key,
                         std::string header)
    : path_(std::move(path)),
      key_(std::move(key)),
      header_(std::move(header)),
      columns_(split_cells(header_).size()) {}

bool ResultCache::scan(const std::function<void(Row&)>& read_row,
                       std::size_t rows) const {
  std::ifstream in(path_);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line != "# " + key_) {
    DICER_INFO << "result cache " << path_ << " is stale; recomputing";
    return false;
  }
  if (!std::getline(in, line) || line != header_) {
    DICER_WARN << "result cache " << path_
               << " has an unexpected column header; recomputing";
    return false;
  }
  std::size_t lineno = 2;
  try {
    Row row;
    while (std::getline(in, line)) {
      ++lineno;
      row.cells_ = split_cells(line);
      row.next_ = 0;
      if (row.cells_.size() != columns_) {
        throw std::invalid_argument(std::to_string(row.cells_.size()) +
                                    " of " + std::to_string(columns_) +
                                    " columns");
      }
      read_row(row);
    }
  } catch (const std::exception& e) {
    DICER_WARN << "result cache " << path_ << " is corrupt at line "
               << lineno << " (" << e.what() << "); recomputing";
    return false;
  }
  if (lineno - 2 != rows) {
    DICER_WARN << "result cache " << path_ << " has " << lineno - 2
               << " rows, expected " << rows << "; recomputing";
    return false;
  }
  return true;
}

void ResultCache::save(
    const std::function<void(std::ostream&)>& write_rows) const {
  try {
    write_file_atomic(path_, [&](std::ostream& out) {
      out << "# " << key_ << '\n' << header_ << '\n';
      write_rows(out);
    });
  } catch (const std::exception& e) {
    DICER_WARN << "result cache not saved: " << e.what();
  }
}

}  // namespace dicer::util
