// Experiment E11 (extension) — complexity exponents, fitted.
//
// The theorems' asymptotic *shapes*, recovered empirically: a log-log
// least-squares fit of measured cost against n estimates the growth
// exponent. Expected from the paper (k fixed):
//   A_k: time Θ(n) -> slope ≈ 1;  messages Θ(n²) -> slope ≈ 2
//   B_k: time Θ(n²) -> slope ≈ 2; messages Θ(n²) -> slope ≈ 2
// Each cell seeds its own Rng from its index in the size list. The grid
// runs serially: its largest cell (A_k at n = 256) dominates the wall
// time, so a worker pool would not shorten it.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "ring/generator.hpp"
#include "support/table.hpp"

namespace {

using namespace hring;

struct Cell {
  std::size_t n;
  double time;
  double messages;
};

/// Least-squares slope of log(y) against log(x).
double loglog_slope(const std::vector<Cell>& cells,
                    double (*pick)(const Cell&)) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double m = static_cast<double>(cells.size());
  for (const Cell& c : cells) {
    const double x = std::log(static_cast<double>(c.n));
    const double y = std::log(pick(c));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (m * sxy - sx * sy) / (m * sxx - sx * sx);
}

}  // namespace

int main(int argc, char** argv) {
  const auto [format, smoke] = benchutil::parse_options(argc, argv);
  const std::size_t k = 2;

  if (format != benchutil::Format::kJson) {
    std::cout << "E11: growth exponents from log-log fits (k = " << k
              << ", unit delays, distinct-label rings)\n\n";
  }
  support::Table table({"algo", "n", "time", "msgs"});

  for (const auto algo :
       {election::AlgorithmId::kAk, election::AlgorithmId::kBk}) {
    std::vector<std::size_t> sizes =
        algo == election::AlgorithmId::kAk
            ? std::vector<std::size_t>{16, 32, 64, 128, 256}
            : std::vector<std::size_t>{8, 16, 32, 64};
    // The fit needs >= 3 sizes; smoke keeps the three smallest.
    if (smoke) sizes.resize(3);
    std::vector<Cell> cells;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      support::Rng rng(0xE11 + i);
      const auto ring = ring::distinct_ring(sizes[i], rng);
      core::ElectionConfig config;
      config.algorithm = {algo, k, false};
      config.engine = core::EngineKind::kEvent;
      config.delay = core::DelayKind::kWorstCase;
      const auto m = core::measure(ring, config);
      HRING_ENSURES(m.ok());
      cells.push_back({sizes[i], m.result.stats.time_units,
                       static_cast<double>(m.result.stats.messages_sent)});
    }
    for (const Cell& c : cells) {
      table.row()
          .cell(election::algorithm_name(algo))
          .cell(static_cast<std::uint64_t>(c.n))
          .cell(c.time, 0)
          .cell(c.messages, 0);
    }
    if (format != benchutil::Format::kJson) {
      const double t_slope =
          loglog_slope(cells, [](const Cell& c) { return c.time; });
      const double m_slope =
          loglog_slope(cells, [](const Cell& c) { return c.messages; });
      std::cout << election::algorithm_name(algo)
                << ": time exponent = " << t_slope << " (paper: "
                << (algo == election::AlgorithmId::kAk ? 1 : 2)
                << "), message exponent = " << m_slope << " (paper: 2)\n";
    }
  }
  if (format != benchutil::Format::kJson) std::cout << "\n";
  benchutil::emit(table, format);
  benchutil::footer(
      format,
      "\npaper: A_k time is Theta(k n) -> exponent ~1 in n; all "
      "message complexities and\nB_k's time are Theta(n^2) at "
      "fixed k -> exponents ~2.\n");
  return 0;
}
