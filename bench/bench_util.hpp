// Shared plumbing for the table benches: `--csv` switches the output from
// the aligned console table to RFC-4180 CSV, `--json` to a JSON array of
// row objects (prose headlines and footers are suppressed so the stream
// is machine-parseable), and `--smoke` asks the bench to shrink its grid
// to a seconds-scale sanity pass — CI runs every binary that way. Any
// other argument is an error, so a typo cannot silently run the full grid.
#pragma once

#include <iostream>
#include <string>

#include "support/flags.hpp"
#include "support/table.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"

namespace hring::benchutil {

enum class Format { kTable, kCsv, kJson };

struct Options {
  Format format = Format::kTable;
  /// Run the smallest representative grid, trading statistical weight
  /// for wall time.
  bool smoke = false;
};

/// Parses the bench command line; exits on --help (0) or a bad argument
/// (1).
[[nodiscard]] inline Options parse_options(int argc, char** argv) {
  bool csv = false;
  bool json = false;
  Options options;
  support::FlagTable flags("[options]");
  flags.toggle("--csv", &csv, "RFC-4180 CSV instead of the console table")
      .toggle("--json", &json,
              "JSON array of row objects (prose dropped; wins\n"
              "over --csv)")
      .toggle("--smoke", &options.smoke,
              "smallest representative grid (seconds)");
  flags.parse_or_exit(argc, argv);
  options.format = json ? Format::kJson : csv ? Format::kCsv : Format::kTable;
  return options;
}

/// Prose line preceding a table — dropped in JSON mode, where the output
/// must stay a single parseable value.
inline void headline(Format format, const std::string& text) {
  if (format != Format::kJson) std::cout << text << "\n\n";
}

/// Prose after the table (interpretation, paper cross-references) —
/// likewise dropped in JSON mode.
inline void footer(Format format, const std::string& text) {
  if (format != Format::kJson) std::cout << text;
}

inline void emit(const support::Table& table, Format format) {
  switch (format) {
    case Format::kCsv: table.print_csv(std::cout); break;
    case Format::kJson: table.print_json(std::cout); break;
    case Format::kTable: table.print(std::cout); break;
  }
}

/// Table plus a telemetry summary. In JSON mode the output becomes
/// `{"rows": [...], "telemetry": {...}}` so machine consumers get the
/// metrics registry alongside the rows; the other formats print the
/// table as usual and ignore the registry (the timeline data has no
/// tabular rendering).
inline void emit(const support::Table& table, Format format,
                 const telemetry::MetricsRegistry& registry) {
  if (format != Format::kJson) {
    emit(table, format);
    return;
  }
  std::cout << "{\"rows\": ";
  table.print_json(std::cout);
  std::cout << ", \"telemetry\": ";
  telemetry::write_metrics_json(std::cout, registry);
  std::cout << "}\n";
}

}  // namespace hring::benchutil
