#include "support/flags.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

namespace hring::support {
namespace {

using Status = FlagTable::Status;

enum class Color : std::uint8_t { kRed, kGreen };

const char* color_name(Color c) { return c == Color::kRed ? "red" : "green"; }

constexpr std::array kColors{Color::kRed, Color::kGreen};

/// Every kind of row, bound to public fields so tests can inspect them.
struct Fixture {
  bool quiet = false;
  std::string out_path;
  std::uint64_t seed = 1;
  std::size_t workers = 0;
  Color color = Color::kRed;
  FlagTable table{"[options]", "  preamble line\n"};

  Fixture() {
    table.toggle("--quiet", &quiet, "say less")
        .text("--out", "FILE", &out_path, "write to FILE")
        .integer("--seed", "S", &seed, "randomness seed")
        .integer<std::size_t>("--workers", "W", &workers, "threads", 1,
                              "need at least 1 worker")
        .choice("--color", "C", &color, kColors, color_name, "(default red)")
        .choice("--paint", "C", &color, kColors, color_name, "", "paint");
  }

  /// Parses `args` (program name prepended); diagnostics land in `err`.
  Status parse(std::initializer_list<const char*> args) {
    std::vector<std::string> storage{"prog"};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : storage) argv.push_back(s.data());
    out.str("");
    err.str("");
    return table.parse(static_cast<int>(argv.size()), argv.data(), 1, out,
                       err);
  }

  std::ostringstream out;
  std::ostringstream err;
};

TEST(ParseU64Test, AcceptsDigitsOnly) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "2x", "0x10", "1e3"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(FlagTableTest, SeparateAndEqualsFormsAgree) {
  Fixture f;
  ASSERT_EQ(f.parse({"--quiet", "--out", "a.json", "--seed", "7",
                     "--workers", "3", "--color", "green"}),
            Status::kOk);
  EXPECT_TRUE(f.quiet);
  EXPECT_EQ(f.out_path, "a.json");
  EXPECT_EQ(f.seed, 7u);
  EXPECT_EQ(f.workers, 3u);
  EXPECT_EQ(f.color, Color::kGreen);

  Fixture g;
  ASSERT_EQ(g.parse({"--out=b=c", "--seed=9", "--workers=2", "--color=green"}),
            Status::kOk);
  EXPECT_EQ(g.out_path, "b=c");  // only the first '=' splits
  EXPECT_EQ(g.seed, 9u);
  EXPECT_EQ(g.workers, 2u);
  EXPECT_EQ(g.color, Color::kGreen);
}

TEST(FlagTableTest, RejectsUnknownOptionAndPrintsHelp) {
  Fixture f;
  EXPECT_EQ(f.parse({"--smok"}), Status::kError);
  EXPECT_EQ(f.err.str(), "unknown option --smok\n");
  EXPECT_NE(f.out.str().find("usage: prog [options]"), std::string::npos);
}

TEST(FlagTableTest, RejectsMissingValueAndValuedToggle) {
  Fixture f;
  EXPECT_EQ(f.parse({"--seed"}), Status::kError);
  EXPECT_EQ(f.err.str(), "--seed needs a value\n");
  EXPECT_EQ(f.parse({"--quiet=1"}), Status::kError);
  EXPECT_EQ(f.err.str(), "--quiet takes no value\n");
}

TEST(FlagTableTest, IntegersNeverWrapOrThrow) {
  Fixture f;
  for (const char* bad : {"abc", "-1", "2x", "", "99999999999999999999"}) {
    EXPECT_EQ(f.parse({"--seed", bad}), Status::kError) << bad;
    EXPECT_EQ(f.err.str(), "bad --seed '" + std::string(bad) +
                               "': need a non-negative integer\n");
  }
  EXPECT_EQ(f.seed, 1u);
}

TEST(FlagTableTest, BelowMinimumUsesTheRowsMessage) {
  Fixture f;
  EXPECT_EQ(f.parse({"--workers", "0"}), Status::kError);
  EXPECT_EQ(f.err.str(), "bad --workers 0: need at least 1 worker\n");
  EXPECT_EQ(f.parse({"--workers=-7"}), Status::kError);
  EXPECT_EQ(f.err.str(), "bad --workers -7: need at least 1 worker\n");
  EXPECT_EQ(f.parse({"--workers", "many"}), Status::kError);
  EXPECT_EQ(f.err.str(), "bad --workers 'many': need a positive integer\n");
}

TEST(FlagTableTest, ChoiceMissListsTheNames) {
  Fixture f;
  EXPECT_EQ(f.parse({"--color", "blue"}), Status::kError);
  EXPECT_EQ(f.err.str(), "bad --color (red | green)\n");
  EXPECT_EQ(f.parse({"--paint", "blue"}), Status::kError);
  EXPECT_EQ(f.err.str(), "unknown paint 'blue' (red | green)\n");
}

TEST(FlagTableTest, HelpListsEveryRow) {
  Fixture f;
  EXPECT_EQ(f.parse({"--seed", "3", "-h"}), Status::kHelp);
  const std::string help = f.out.str();
  EXPECT_EQ(help.rfind("usage: prog [options]\n  preamble line\n", 0), 0u);
  for (const char* row :
       {"  --quiet             say less\n", "  --out FILE          write",
        "  --seed S            ", "  --workers W         ",
        "  --color C           red | green (default red)\n",
        "  --paint C           red | green\n", "  --help, -h          "}) {
    EXPECT_NE(help.find(row), std::string::npos) << row;
  }
}

}  // namespace
}  // namespace hring::support
