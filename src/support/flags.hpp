// Table-driven command-line flags for the example programs and benches.
//
// A FlagTable is a list of rows: flag name, value kind, target, help
// text. parse() walks argv against the rows:
//   * `--flag value` and `--flag=value` work for every valued flag;
//   * every integer goes through parse_u64 (digits only), so a sign or
//     trailing junk is a diagnostic, never a wrap-around or a throw;
//   * enum values are matched against the names the library already
//     prints (algorithm_name, scheduler_kind_name, ...);
//   * --help is rendered from the same rows, so it lists exactly what
//     the parser accepts.
// A rejected argument prints one diagnostic line to `err` and parse()
// returns kError; parse_or_exit() turns that into exit status 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hring::support {

/// Checked decimal parse: digits only (no sign, no whitespace), and
/// nullopt on overflow.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

class FlagTable {
 public:
  enum class Status : std::uint8_t { kOk, kHelp, kError };

  /// Consumes a flag's value; returns a diagnostic, or "" on success.
  using Apply = std::function<std::string(std::string_view value)>;

  /// `synopsis` follows the program name on the usage line; `preamble`
  /// (the subcommands, say) is printed between it and the flag rows.
  explicit FlagTable(std::string synopsis, std::string preamble = {})
      : synopsis_(std::move(synopsis)), preamble_(std::move(preamble)) {}

  /// A flag without a value: its presence sets *target.
  FlagTable& toggle(std::string_view name, bool* target,
                    std::string_view help) {
    return custom(name, {}, help, [target](std::string_view) {
      *target = true;
      return std::string();
    });
  }

  FlagTable& text(std::string_view name, std::string_view meta,
                  std::string* target, std::string_view help) {
    return custom(name, meta, help, [target](std::string_view value) {
      *target = value;
      return std::string();
    });
  }

  /// An unsigned integer >= `min`. A value parse_u64 refuses is reported
  /// as "bad --flag 'v': need a positive|non-negative integer"; when
  /// `below_min` is given, a number below `min` (negatives included) is
  /// reported as "bad --flag v: <below_min>" instead.
  template <class Int>
  FlagTable& integer(std::string_view name, std::string_view meta,
                     Int* target, std::string_view help, Int min = 0,
                     std::string_view below_min = {}) {
    static_assert(std::is_unsigned_v<Int>);
    return custom(
        name, meta, help,
        [flag = std::string(name), target, min,
         range = std::string(below_min)](std::string_view value) {
          const auto parsed = parse_u64(value);
          const bool negative = value.size() > 1 && value[0] == '-' &&
                                parse_u64(value.substr(1)).has_value();
          const bool small = negative || (parsed && *parsed < min);
          if (small && !range.empty()) {
            return "bad " + flag + " " + std::string(value) + ": " + range;
          }
          if (!parsed || small || static_cast<Int>(*parsed) != *parsed) {
            return "bad " + flag + " '" + std::string(value) + "': need a " +
                   (min > 0 ? "positive" : "non-negative") + " integer";
          }
          *target = static_cast<Int>(*parsed);
          return std::string();
        });
  }

  /// One of `values`, spelled as `namer(value)`. The help text starts
  /// with the choices; a miss is "bad --flag (a | b)", or
  /// "unknown <noun> 'v' (a | b)" when a noun is given.
  template <class Target, class Values, class Namer>
  FlagTable& choice(std::string_view name, std::string_view meta,
                    Target* target, const Values& values, Namer namer,
                    std::string_view help, std::string_view noun = {}) {
    std::string names;
    for (const auto& value : values) {
      if (!names.empty()) names += " | ";
      names += namer(value);
    }
    std::string full_help = names;
    if (!help.empty()) {
      // Start the help on its own line when both would overrun 78 columns.
      full_help += names.size() + help.size() + kHelpColumn + 2 > 78 ? "\n"
                                                                    : " ";
      full_help += help;
    }
    return custom(
        name, meta, full_help,
        [flag = std::string(name), target,
         options = std::vector(std::begin(values), std::end(values)), namer,
         names, what = std::string(noun)](std::string_view value) {
          for (const auto& option : options) {
            if (value == namer(option)) {
              *target = option;
              return std::string();
            }
          }
          return (what.empty() ? "bad " + flag
                               : "unknown " + what + " '" +
                                     std::string(value) + "'") +
                 " (" + names + ")";
        });
  }

  /// A flag with a value that `apply` consumes; an empty `meta` makes it
  /// a flag without a value (see toggle).
  FlagTable& custom(std::string_view name, std::string_view meta,
                    std::string_view help, Apply apply) {
    rows_.push_back(Row{std::string(name), std::string(meta),
                        std::string(help), std::move(apply)});
    return *this;
  }

  /// Applies argv[first..argc) to the rows. --help / -h prints the help
  /// to `out`; an unknown option prints its diagnostic and the help.
  [[nodiscard]] Status parse(int argc, char** argv, int first = 1,
                             std::ostream& out = std::cout,
                             std::ostream& err = std::cerr) const {
    for (int i = first; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_help(out, argv[0]);
        return Status::kHelp;
      }
      const std::size_t eq = arg.find('=');
      const std::string_view name = arg.substr(0, eq);
      const auto row =
          std::find_if(rows_.begin(), rows_.end(),
                       [name](const Row& r) { return r.name == name; });
      if (row == rows_.end()) {
        err << "unknown option " << arg << "\n";
        print_help(out, argv[0]);
        return Status::kError;
      }
      std::string_view value;
      if (eq != std::string_view::npos) {
        if (row->meta.empty()) {
          err << name << " takes no value\n";
          return Status::kError;
        }
        value = arg.substr(eq + 1);
      } else if (!row->meta.empty()) {
        if (i + 1 >= argc) {
          err << arg << " needs a value\n";
          return Status::kError;
        }
        value = argv[++i];
      }
      if (const std::string error = row->apply(value); !error.empty()) {
        err << error << "\n";
        return Status::kError;
      }
    }
    return Status::kOk;
  }

  /// parse(), exiting the process on --help (status 0) or a rejected
  /// argument (status 1).
  void parse_or_exit(int argc, char** argv, int first = 1) const {
    const Status status = parse(argc, argv, first);
    if (status == Status::kHelp) std::exit(EXIT_SUCCESS);
    if (status == Status::kError) std::exit(EXIT_FAILURE);
  }

  void print_help(std::ostream& out, std::string_view program) const {
    out << "usage: " << program << " " << synopsis_ << "\n" << preamble_;
    for (const Row& row : rows_) {
      print_row(out, row.meta.empty() ? row.name : row.name + " " + row.meta,
                row.help);
    }
    print_row(out, "--help, -h", "print this help and exit");
  }

 private:
  /// Help text starts this many columns after the two-space indent.
  static constexpr std::size_t kHelpColumn = 20;

  struct Row {
    std::string name;
    std::string meta;  // value placeholder; empty for toggles
    std::string help;  // '\n' continues on the next, indented line
    Apply apply;
  };

  static void print_row(std::ostream& out, std::string left,
                        std::string_view help) {
    left.resize(std::max(kHelpColumn, left.size() + 2), ' ');
    out << "  " << left;
    for (const char c : help) {
      out << c;
      if (c == '\n') out << std::string(kHelpColumn + 2, ' ');
    }
    out << "\n";
  }

  std::string synopsis_;
  std::string preamble_;
  std::vector<Row> rows_;
};

}  // namespace hring::support
