// Experiment E1 — Lemma 1 / Corollaries 2 and 4: the Ω(kn) lower bound.
//
// Any leader-election algorithm for U* ∩ K_k (a fortiori for A ∩ K_k)
// needs at least 1 + (k-2)·n synchronous steps on every K_1 ring. We run
// the synchronous executions of A_k and B_k on distinct-label rings and
// report measured steps against the bound. Expectations from the paper:
// every ratio steps/bound >= 1, and A_k's steps/(k·n) settle near a small
// constant (~2), witnessing the asymptotic optimality claimed in §I.
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "ring/generator.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace hring;
  const auto [format, smoke] = benchutil::parse_options(argc, argv);

  benchutil::headline(format,
                      "E1: synchronous steps vs the Lemma 1 lower bound "
                      "1 + (k-2)n on K_1 rings");
  support::Table table({"algo", "n", "k", "steps", "bound 1+(k-2)n",
                        "steps/bound", "steps/(k*n)"});
  for (const auto algo :
       {election::AlgorithmId::kAk, election::AlgorithmId::kBk}) {
    for (const std::size_t k : {2u, 4u, 8u, 16u}) {
      for (const std::size_t n : {8u, 16u, 32u, 64u}) {
        // B_16 on n=64 runs ~1M synchronous steps; trim the quadratic
        // corner to keep the harness snappy without losing the trend.
        if (algo == election::AlgorithmId::kBk && k * n > 512) continue;
        if (smoke && (k > 4 || n > 16)) continue;
        const auto ring = ring::sequential_ring(n);
        core::ElectionConfig config;
        config.algorithm = {algo, k, false};
        config.scheduler = core::SchedulerKind::kSynchronous;
        const auto m = core::measure(ring, config);
        if (!m.ok()) {
          std::cerr << "verification FAILED: "
                    << m.verification.to_string() << "\n";
          return 1;
        }
        const auto steps = m.result.stats.steps;
        const auto bound = core::lower_bound_steps(n, k);
        table.row()
            .cell(election::algorithm_name(algo))
            .cell(static_cast<std::uint64_t>(n))
            .cell(static_cast<std::uint64_t>(k))
            .cell(steps)
            .cell(bound)
            .cell(static_cast<double>(steps) / static_cast<double>(bound))
            .cell(static_cast<double>(steps) /
                  static_cast<double>(k * n));
      }
    }
  }
  benchutil::emit(table, format);
  benchutil::footer(
      format,
      "\npaper: steps/bound must be >= 1 for every row (Lemma 1); "
      "A_k's steps/(k*n)\nstays bounded (time-optimality, "
      "Corollary 2 + Theorem 2), while B_k's grows with k*n\n"
      "(its time is Theta(k^2 n^2), Theorem 4).\n");
  return 0;
}
