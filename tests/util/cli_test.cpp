#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>

#include "util/log.hpp"

namespace dicer::util {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(CliArgs, KeyEqualsValue) {
  const auto a = make({"prog", "--hp=milc1"});
  EXPECT_EQ(a.get_or("hp", ""), "milc1");
}

TEST(CliArgs, KeySpaceValue) {
  const auto a = make({"prog", "--hp", "milc1"});
  EXPECT_EQ(a.get_or("hp", ""), "milc1");
}

TEST(CliArgs, BareFlag) {
  const auto a = make({"prog", "--recompute"});
  EXPECT_TRUE(a.has("recompute"));
  EXPECT_TRUE(a.get_bool("recompute", false));
}

TEST(CliArgs, BareFlagFollowedByFlag) {
  const auto a = make({"prog", "--recompute", "--cores", "5"});
  EXPECT_TRUE(a.get_bool("recompute", false));
  EXPECT_EQ(a.get_int("cores", 0), 5);
}

TEST(CliArgs, MissingKeyUsesDefault) {
  const auto a = make({"prog"});
  EXPECT_FALSE(a.has("x"));
  EXPECT_EQ(a.get_or("x", "d"), "d");
  EXPECT_EQ(a.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(a.get_double("x", 2.5), 2.5);
  EXPECT_TRUE(a.get_bool("x", true));
}

TEST(CliArgs, NumericParsing) {
  const auto a = make({"prog", "--n=12", "--f=0.75"});
  EXPECT_EQ(a.get_int("n", 0), 12);
  EXPECT_DOUBLE_EQ(a.get_double("f", 0.0), 0.75);
}

TEST(CliArgs, BoolSpellings) {
  EXPECT_TRUE(make({"p", "--b=true"}).get_bool("b", false));
  EXPECT_TRUE(make({"p", "--b=1"}).get_bool("b", false));
  EXPECT_TRUE(make({"p", "--b=yes"}).get_bool("b", false));
  EXPECT_TRUE(make({"p", "--b=on"}).get_bool("b", false));
  EXPECT_FALSE(make({"p", "--b=false"}).get_bool("b", true));
  EXPECT_FALSE(make({"p", "--b=0"}).get_bool("b", true));
}

TEST(CliArgs, PositionalArguments) {
  const auto a = make({"prog", "one", "--k=v", "two"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "one");
  EXPECT_EQ(a.positional()[1], "two");
}

TEST(CliArgs, ProgramName) {
  EXPECT_EQ(make({"myprog"}).program(), "myprog");
}

TEST(CliArgs, OptionalGet) {
  const auto a = make({"prog", "--k=v"});
  EXPECT_TRUE(a.get("k").has_value());
  EXPECT_FALSE(a.get("z").has_value());
}

// --- strict numeric parsing: no silent garbage -------------------------

TEST(CliArgs, IntRejectsTrailingJunk) {
  // The historical bug: strtol("4x") silently returned 4.
  EXPECT_THROW(make({"p", "--jobs=4x"}).get_int("jobs", 0), CliError);
  EXPECT_THROW(make({"p", "--jobs", "12 "}).get_int("jobs", 0), CliError);
}

TEST(CliArgs, IntRejectsNonNumeric) {
  // And strtol("abc") silently returned 0.
  EXPECT_THROW(make({"p", "--cores=abc"}).get_int("cores", 3), CliError);
}

TEST(CliArgs, IntRejectsOutOfRange) {
  EXPECT_THROW(
      make({"p", "--n=999999999999999999999999"}).get_int("n", 0), CliError);
}

TEST(CliArgs, IntAcceptsNegative) {
  EXPECT_EQ(make({"p", "--n=-3"}).get_int("n", 0), -3);
}

TEST(CliArgs, DoubleRejectsTrailingJunk) {
  EXPECT_THROW(make({"p", "--slo=0.9x"}).get_double("slo", 0.0), CliError);
  EXPECT_THROW(make({"p", "--slo=1.5.2"}).get_double("slo", 0.0), CliError);
  EXPECT_THROW(make({"p", "--slo=oops"}).get_double("slo", 0.0), CliError);
}

TEST(CliArgs, DoubleAcceptsScientific) {
  EXPECT_DOUBLE_EQ(make({"p", "--bw=6.83e10"}).get_double("bw", 0.0), 6.83e10);
}

TEST(CliArgs, BoolRejectsUnknownSpelling) {
  EXPECT_THROW(make({"p", "--b=maybe"}).get_bool("b", false), CliError);
}

TEST(CliArgs, ErrorMessageNamesFlagAndValue) {
  try {
    make({"p", "--jobs=4x"}).get_int("jobs", 0);
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--jobs"), std::string::npos) << what;
    EXPECT_NE(what.find("4x"), std::string::npos) << what;
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
  }
}

// reject_unknown(): a flag no getter or has() read is an error, so a typo
// or a retired flag cannot silently fall back to defaults.
TEST(CliArgs, RejectUnknownNamesTheTypo) {
  const auto a = make({"fleet_sim", "--machinez", "7", "--epochs", "3"});
  EXPECT_EQ(a.get_int("machines", 500), 500);
  EXPECT_EQ(a.get_int("epochs", 20), 3);
  try {
    a.reject_unknown();
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flag --machinez");
  }
}

// A correctly spelled flag the program stopped reading is just as unknown.
TEST(CliArgs, RejectUnknownCatchesRemovedFlag) {
  const auto a = make({"prog", "--jobs", "8", "--retired-knob", "8"});
  EXPECT_EQ(a.get_int("jobs", 0), 8);
  EXPECT_THROW(a.reject_unknown(), CliError);
}

TEST(CliArgs, RejectUnknownAcceptsFullyConsumedLine) {
  const auto a = make({"prog", "pos", "--n=12", "--name", "x", "--plain",
                       "--seen"});
  EXPECT_EQ(a.get_int("n", 0), 12);
  EXPECT_EQ(a.get_or("name", ""), "x");
  EXPECT_TRUE(a.get_bool("plain", false));
  EXPECT_TRUE(a.has("seen"));  // has() counts as reading the flag
  EXPECT_NO_THROW(a.reject_unknown());
  EXPECT_NO_THROW(make({"prog"}).reject_unknown());
}

// --help lists the flags the front-end read (in key order) and is not an
// unknown flag; cli_main_guard turns it into exit 0.
TEST(CliArgs, HelpListsTheFlagsRead) {
  const auto a = make({"fleet_sim", "--help"});
  EXPECT_EQ(a.get_int("machines", 500), 500);
  EXPECT_FALSE(a.has("compare"));
  try {
    a.reject_unknown();
    FAIL() << "expected CliHelp";
  } catch (const CliHelp& help) {
    EXPECT_EQ(std::string(help.what()),
              "usage: fleet_sim [flags]\nflags:\n  --compare\n  --machines");
  }
  EXPECT_EQ(cli_main_guard("fleet_sim",
                           [&] {
                             a.reject_unknown();
                             return 3;
                           }),
            0);
  // A program that reads --help itself handles it.
  const auto own = make({"prog", "--help"});
  EXPECT_TRUE(own.has("help"));
  EXPECT_NO_THROW(own.reject_unknown());
}

TEST(CliMainGuard, TranslatesCliErrorToExitTwo) {
  const int rc = cli_main_guard(
      "prog", []() -> int { throw CliError("invalid value for --x"); });
  EXPECT_EQ(rc, 2);
}

TEST(CliMainGuard, TranslatesOtherExceptionsToExitOne) {
  const int rc = cli_main_guard(
      "prog", []() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(rc, 1);
}

TEST(CliMainGuard, PassesThroughReturnCode) {
  EXPECT_EQ(cli_main_guard("prog", [] { return 0; }), 0);
  EXPECT_EQ(cli_main_guard("prog", [] { return 3; }), 3);
}

TEST(CliArgs, JobsFlagRejectsNegativeAndSaturates) {
  EXPECT_EQ(jobs_flag(make({"prog"})), 0u);
  EXPECT_EQ(jobs_flag(make({"prog", "--jobs", "3"})), 3u);
  EXPECT_THROW(jobs_flag(make({"prog", "--jobs", "-1"})), CliError);
  // Beyond `unsigned`: saturates (resolve_jobs then caps), never wraps.
  EXPECT_EQ(jobs_flag(make({"prog", "--jobs", "8589934593"})), UINT_MAX);
}

TEST(CliArgs, CountFlagRejectsNegativeAndOversized) {
  EXPECT_EQ(count_flag(make({"prog"}), "machines", 500u), 500u);
  EXPECT_EQ(count_flag(make({"prog", "--machines", "0"}), "machines", 500u),
            0u);
  EXPECT_EQ(count_flag(make({"prog", "--machines", "4294967295"}), "machines",
                       500u),
            UINT_MAX);
  for (const char* bad : {"-1", "-4294967295", "4294967296"}) {
    EXPECT_THROW(count_flag(make({"prog", "--machines", bad}), "machines",
                            500u),
                 CliError)
        << bad;
  }
  // A 64-bit count such as fleet_sim's --epochs: wide, but still >= 0.
  EXPECT_EQ(count_flag<std::uint64_t>(make({"prog", "--epochs", "7"}),
                                      "epochs", 20),
            7u);
  EXPECT_THROW(count_flag<std::uint64_t>(make({"prog", "--epochs", "-1"}),
                                         "epochs", 20),
               CliError);
  try {
    count_flag(make({"prog", "--cores", "-2"}), "cores", 10u);
    ADD_FAILURE() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_STREQ(e.what(),
                 "invalid value for --cores: '-2' (expected an integer from "
                 "0 to 4294967295)");
  }
}

TEST(CliArgs, LogLevelFlagRejectsUnknownLevels) {
  const LogLevel saved = log_threshold();
  apply_log_level_flag(make({"prog"}));  // absent: untouched
  EXPECT_EQ(log_threshold(), saved);
  apply_log_level_flag(make({"prog", "--log-level", "error"}));
  EXPECT_EQ(log_threshold(), LogLevel::kError);
  try {
    apply_log_level_flag(make({"prog", "--log-level", "verbose"}));
    ADD_FAILURE() << "expected CliError";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("debug, info, warn, error, off"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(log_threshold(), LogLevel::kError);
  set_log_threshold(saved);
}

}  // namespace
}  // namespace dicer::util
