// Experiment E2 — Theorem 1 / Corollary 3: impossibility as an experiment.
//
// For each algorithm parameter k we build the Lemma 1 fooling ring
// R_{n,k'} (k' = 2k+3 copies of a K_1 base plus one fresh label) and run
// A_k on it synchronously. The proof predicts: the processes aligned with
// the base ring's winner cannot distinguish R_{n,k'} from the base ring
// before information from the fresh label arrives, so several of them
// elect — within the replay window of T_base steps. The table reports the
// violation step, the number of false leaders, and the proof's windows.
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "ring/fooling.hpp"
#include "ring/generator.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace hring;
  const auto [format, smoke] = benchutil::parse_options(argc, argv);

  benchutil::headline(format,
                      "E2: A_k on fooling rings R_{n,k'} in U* \\ K_k "
                      "(k' = 2k+3)");
  support::Table table({"k (algo)", "n (base)", "k' (actual)", "|R|",
                        "outcome", "violation step", "T_base", "(k'-2)n",
                        "false leaders"});
  for (const std::size_t k : {1u, 2u, 3u, 4u}) {
    for (const std::size_t n : {3u, 4u, 6u}) {
      if (smoke && (k > 2 || n > 4)) continue;
      const auto base = ring::sequential_ring(n);
      const std::size_t k_actual = 2 * k + 3;
      const auto fooled = ring::fooling_ring(base, k_actual);

      // Reference: the synchronous run on the base ring, to get T.
      core::ElectionConfig base_config;
      base_config.algorithm = {election::AlgorithmId::kAk, k, false};
      const auto base_run = core::run_election(base, base_config);

      core::ElectionConfig config = base_config;
      config.stop_on_violation = true;
      const auto result = core::run_election(fooled, config);
      std::size_t false_leaders = 0;
      for (const auto& p : result.processes) {
        if (p.is_leader) ++false_leaders;
      }
      table.row()
          .cell(static_cast<std::uint64_t>(k))
          .cell(static_cast<std::uint64_t>(n))
          .cell(static_cast<std::uint64_t>(k_actual))
          .cell(static_cast<std::uint64_t>(fooled.size()))
          .cell(sim::outcome_name(result.outcome))
          .cell(result.stats.steps)
          .cell(base_run.stats.steps)
          .cell(static_cast<std::uint64_t>((k_actual - 2) * n))
          .cell(static_cast<std::uint64_t>(false_leaders));
    }
  }
  benchutil::emit(table, format);
  benchutil::footer(
      format,
      "\npaper: every row must end in a violation with >= 2 false "
      "leaders (Theorem 1 via\nLemma 1), at a step <= T_base <= "
      "(k'-2)n — the replay window of the construction.\nKnowing the "
      "honest k' makes the same rings electable (see "
      "impossibility_demo).\n");
  return 0;
}
