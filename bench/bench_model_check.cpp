// Experiment E13 (extension) — exhaustive schedule verification.
//
// For every canonical asymmetric ring up to the size/alphabet cutoffs,
// run the model checker: EVERY asynchronous interleaving of A_k and B_k
// (k = the ring's actual multiplicity) is explored and checked against
// the §II specification, including true-leader conformance. The table
// aggregates per (n, alphabet, algorithm): rings covered, total distinct
// configurations, total transitions, and the verdict.
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/model_checker.hpp"
#include "ring/counting.hpp"
#include "ring/generator.hpp"
#include "support/assert.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace hring;
  const auto [format, smoke] = benchutil::parse_options(argc, argv);

  benchutil::headline(format,
                      "E13: exhaustive model checking of A_k and B_k on "
                      "all small asymmetric rings");
  support::Table table({"algo", "n", "alphabet", "rings", "configs",
                        "transitions", "max depth", "verdict"});

  struct Family {
    std::size_t n;
    std::size_t alphabet;
  };
  const Family families[] = {{2, 2}, {3, 2}, {3, 3}, {4, 2}, {4, 3},
                             {5, 2}};
  for (const auto algo :
       {election::AlgorithmId::kAk, election::AlgorithmId::kBk}) {
    for (const auto& family : families) {
      if (smoke && family.n > 3) continue;
      const auto rings =
          ring::enumerate_rings(family.n, family.alphabet,
                                /*asymmetric_only=*/true,
                                /*canonical_only=*/true);
      HRING_ENSURES(rings.size() ==
                    ring::count_asymmetric_rings(family.n, family.alphabet));
      std::uint64_t configs = 0;
      std::uint64_t transitions = 0;
      std::size_t max_depth = 0;
      bool all_ok = true;
      bool all_complete = true;
      for (const auto& r : rings) {
        const auto report = core::check_all_schedules(
            r, {algo, r.max_multiplicity(), false});
        configs += report.configurations;
        transitions += report.transitions;
        max_depth = std::max(max_depth, report.max_depth);
        all_ok = all_ok && report.ok;
        all_complete = all_complete && report.complete;
        if (!report.ok) {
          std::cerr << "VIOLATION on " << r.to_string() << ":\n"
                    << report.to_string() << "\n";
        }
      }
      table.row()
          .cell(election::algorithm_name(algo))
          .cell(static_cast<std::uint64_t>(family.n))
          .cell(static_cast<std::uint64_t>(family.alphabet))
          .cell(static_cast<std::uint64_t>(rings.size()))
          .cell(configs)
          .cell(transitions)
          .cell(static_cast<std::uint64_t>(max_depth))
          .cell(all_ok ? (all_complete ? "OK (exhaustive)" : "OK (partial)")
                       : "VIOLATION");
    }
  }
  benchutil::emit(table, format);
  benchutil::footer(
      format,
      "\npaper: Theorems 2/3 promise correctness on A ∩ K_k under "
      "every fair schedule;\nthe checker confirms it for every "
      "ring in these families, with zero sampling.\n");
  return 0;
}
