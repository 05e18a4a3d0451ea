// Experiment E9 — baseline context on identified rings (K_1).
//
// On K_1 every algorithm in the library applies. The classical baselines
// bracket the design space: Le Lann (exactly n²+n messages), Chang-Roberts
// (O(n log n) average / O(n²) worst), Peterson (O(n log n) worst). The
// paper's algorithms pay extra for homonym-tolerance: A_k ~ (2k+1)n² and
// B_k ~ k²n² messages even when k = 1 — that premium is the point of the
// comparison. (Reference [10]'s U* ∩ K_k algorithm is unavailable; the
// classical trio stands in — see DESIGN.md "Substitutions".)
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "ring/generator.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace hring;
  const auto [format, smoke] = benchutil::parse_options(argc, argv);

  benchutil::headline(format,
                      "E9: all algorithms on random K_1 rings (event "
                      "engine, unit delays, k = 1)");
  support::Table table({"algo", "n", "msgs", "msgs/n2", "time", "time/n",
                        "bits/proc", "comparisons"});
  support::Rng rng(0xE9);
  for (const std::size_t n : {8u, 16u, 32u, 64u}) {
    if (smoke && n > 16) continue;
    const auto ring = ring::distinct_ring(n, rng);
    for (const auto algo : election::all_algorithms()) {
      core::ElectionConfig config;
      config.algorithm = {algo, 1, false};
      config.engine = core::EngineKind::kEvent;
      config.delay = core::DelayKind::kWorstCase;
      const auto m = core::measure(ring, config);
      if (!m.ok()) {
        std::cerr << election::algorithm_name(algo)
                  << " verification FAILED on " << ring.to_string() << ": "
                  << m.verification.to_string() << "\n";
        return 1;
      }
      table.row()
          .cell(election::algorithm_name(algo))
          .cell(static_cast<std::uint64_t>(n))
          .cell(m.result.stats.messages_sent)
          .cell(static_cast<double>(m.result.stats.messages_sent) /
                    static_cast<double>(n * n),
                3)
          .cell(m.result.stats.time_units, 0)
          .cell(m.result.stats.time_units / static_cast<double>(n))
          .cell(static_cast<std::uint64_t>(m.result.stats.peak_space_bits))
          .cell(m.result.stats.label_comparisons);
    }
  }
  benchutil::emit(table, format);
  benchutil::footer(
      format,
      "\nreading: Peterson's msgs/n2 vanishes (O(n log n)); "
      "LeLann sits at 1+1/n exactly;\nA_1/B_1 pay the homonym "
      "premium (msgs/n2 ~= 3 and ~1) but are the only rows\n"
      "that still work when labels repeat. Time: every algorithm "
      "is O(n) here except\nB_k (O(n2): phase barriers).\n");
  return 0;
}
