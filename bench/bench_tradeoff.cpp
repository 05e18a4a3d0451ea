// Experiment E7 — the time/space trade-off between A_k and B_k.
//
// The abstract's claim: the two algorithms "achieve the classical
// trade-off between time and space". Under worst-case unit delays we
// measure both on the same rings and report the two quotients that tell
// the story: time(Bk)/time(Ak) (grows ~ k·n: B_k's quadratic time) and
// space(Ak)/space(Bk) (grows ~ n: A_k's linear string storage).
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "ring/generator.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace hring;
  const auto [format, smoke] = benchutil::parse_options(argc, argv);

  benchutil::headline(format,
                      "E7: A_k vs B_k on shared rings (event engine, unit "
                      "delays)");
  support::Table table({"n", "k", "Ak time", "Bk time", "Bk/Ak time",
                        "Ak bits", "Bk bits", "Ak/Bk bits", "Ak msgs",
                        "Bk msgs"});
  support::Rng rng(0xE7);
  for (const std::size_t k : {2u, 4u}) {
    for (const std::size_t n : {8u, 16u, 32u, 64u}) {
      if (k * n > 192) continue;
      if (smoke && (k > 2 || n > 16)) continue;
      const auto ring = ring::random_asymmetric_ring(
          n, k, (n + k - 1) / k + 2, rng);
      if (!ring) continue;

      core::ElectionConfig base;
      base.engine = core::EngineKind::kEvent;
      base.delay = core::DelayKind::kWorstCase;
      auto ak = base;
      ak.algorithm = {election::AlgorithmId::kAk, k, false};
      auto bk = base;
      bk.algorithm = {election::AlgorithmId::kBk, k, false};

      const auto ma = core::measure(*ring, ak);
      const auto mb = core::measure(*ring, bk);
      if (!ma.ok() || !mb.ok()) {
        std::cerr << "verification FAILED on " << ring->to_string() << "\n";
        return 1;
      }
      table.row()
          .cell(static_cast<std::uint64_t>(n))
          .cell(static_cast<std::uint64_t>(k))
          .cell(ma.result.stats.time_units, 0)
          .cell(mb.result.stats.time_units, 0)
          .cell(mb.result.stats.time_units / ma.result.stats.time_units)
          .cell(static_cast<std::uint64_t>(ma.result.stats.peak_space_bits))
          .cell(static_cast<std::uint64_t>(mb.result.stats.peak_space_bits))
          .cell(static_cast<double>(ma.result.stats.peak_space_bits) /
                static_cast<double>(mb.result.stats.peak_space_bits))
          .cell(ma.result.stats.messages_sent)
          .cell(mb.result.stats.messages_sent);
    }
  }
  benchutil::emit(table, format);
  benchutil::footer(
      format,
      "\npaper: A_k wins time by a factor growing ~k*n; B_k wins "
      "space by a factor\ngrowing ~n. Neither dominates — the "
      "classical trade-off of the abstract.\n");
  return 0;
}
