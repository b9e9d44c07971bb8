#include "util/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dicer::util {
namespace {

namespace fs = std::filesystem;

constexpr const char* kKey = "test-cache-v1:0123";
constexpr const char* kHeader = "name,n,on,x";
constexpr const char* kRows = "a,1,1,0.5\nb,42,0,-3e-05\n";

struct Rec {
  std::string name;
  unsigned n = 0;
  bool on = false;
  double x = 0.0;
};

Rec read_rec(ResultCache::Row& c) {
  return {c.text(), c.count(), c.flag(), c.real()};
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::size_t files_in(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++n;
  }
  return n;
}

TEST(ResultCache, SaveLoadRoundTripLeavesOnlyTheFile) {
  const fs::path dir = fresh_dir("result_cache_roundtrip");
  const std::string path = (dir / "cache.csv").string();
  const ResultCache cache(path, kKey, kHeader);
  cache.save([](std::ostream& out) { out << kRows; });

  std::ifstream in(path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, std::string("# ") + kKey + "\n" + kHeader + "\n" + kRows);
  EXPECT_EQ(files_in(dir), 1u) << "temp file left next to the cache";

  const auto rows = cache.load<Rec>(2, read_rec);
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].name, "a");
  EXPECT_EQ((*rows)[0].n, 1u);
  EXPECT_TRUE((*rows)[0].on);
  EXPECT_EQ((*rows)[0].x, 0.5);
  EXPECT_EQ((*rows)[1].name, "b");
  EXPECT_EQ((*rows)[1].n, 42u);
  EXPECT_FALSE((*rows)[1].on);
  EXPECT_EQ((*rows)[1].x, -3e-05);
  fs::remove_all(dir);
}

TEST(ResultCache, EveryDefectRejectsTheWholeFile) {
  // One rule per row: each file below differs from a valid two-row cache
  // in exactly one way, and each must load as nullopt, never throw.
  const std::string key = std::string("# ") + kKey + "\n";
  const std::string header = std::string(kHeader) + "\n";
  struct Case {
    const char* defect;
    std::string content;
  };
  const std::vector<Case> cases = {
      {"foreign key", "# test-cache-v2:0123\n" + header + kRows},
      {"missing key line", header + kRows},
      {"other header", key + "name,n,on,y\n" + kRows},
      {"missing header", key},
      {"truncated row", key + header + "a,1,1\nb,42,0,-3e-05\n"},
      {"trailing column", key + header + "a,1,1,0.5,7\nb,42,0,-3e-05\n"},
      {"trailing comma", key + header + "a,1,1,0.5,\nb,42,0,-3e-05\n"},
      {"blank row", key + header + "a,1,1,0.5\n\nb,42,0,-3e-05\n"},
      {"bad number", key + header + "a,1,1,oops\nb,42,0,-3e-05\n"},
      {"partial number", key + header + "a,1,1,0.5x\nb,42,0,-3e-05\n"},
      {"empty number", key + header + "a,1,1,\nb,42,0,-3e-05\n"},
      {"bad bool", key + header + "a,1,2,0.5\nb,42,0,-3e-05\n"},
      {"word bool", key + header + "a,1,true,0.5\nb,42,0,-3e-05\n"},
      {"signed unsigned", key + header + "a,-1,1,0.5\nb,42,0,-3e-05\n"},
      {"unsigned overflow", key + header + "a,4294967296,1,0.5\nb,42,0,-3e-05\n"},
      {"too few rows", key + header + "a,1,1,0.5\n"},
      {"too many rows", key + header + kRows + "c,3,1,1\n"},
  };
  const fs::path dir = fresh_dir("result_cache_defects");
  const std::string path = (dir / "cache.csv").string();
  const ResultCache cache(path, kKey, kHeader);
  for (const auto& c : cases) {
    std::ofstream(path, std::ios::trunc) << c.content;
    EXPECT_FALSE(cache.load<Rec>(2, read_rec).has_value()) << c.defect;
  }
  // Control: the same harness accepts the valid file.
  std::ofstream(path, std::ios::trunc) << key << header << kRows;
  EXPECT_TRUE(cache.load<Rec>(2, read_rec).has_value());
  fs::remove_all(dir);
  EXPECT_FALSE(cache.load<Rec>(2, read_rec).has_value()) << "missing file";
}

TEST(ResultCache, ReaderCanRejectARow) {
  const fs::path dir = fresh_dir("result_cache_reader_reject");
  const ResultCache cache((dir / "cache.csv").string(), kKey, kHeader);
  cache.save([](std::ostream& out) { out << kRows; });
  const auto rows = cache.load<Rec>(2, [](ResultCache::Row& c) {
    Rec r = read_rec(c);
    if (r.x < 0.0) throw std::invalid_argument("negative x");
    return r;
  });
  EXPECT_FALSE(rows.has_value());
  fs::remove_all(dir);
}

TEST(ResultCache, UnwritableDirectoryWarnsAndAtomicWriteThrows) {
  const std::string path = "/nonexistent_dir_zz/cache.csv";
  // A cache that cannot be saved is a warning, not an error: the caller
  // already has its results.
  EXPECT_NO_THROW(ResultCache(path, kKey, kHeader).save(
      [](std::ostream& out) { out << kRows; }));
  EXPECT_THROW(write_file_atomic(path, [](std::ostream& out) { out << "x"; }),
               std::runtime_error);
}

}  // namespace
}  // namespace dicer::util
