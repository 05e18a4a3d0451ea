// Experiment E12 (extension) — empirical adversary search.
//
// The upper bounds of Theorems 2/4 are worst-case over all asynchronous
// executions. Here we *search* for bad executions: many randomized
// daemons (random-single and random-subset, distinct seeds) run the same
// election, and the observed spread of configuration steps is compared
// against the synchronous run and the theorem ceiling. Expectations:
// every sampled execution elects the same true leader, no sampled
// execution beats the Lemma 1 lower bound, and none exceeds the theorem
// ceiling (for A_k: one action per message + n inits bounds steps by
// messages + n).
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "ring/generator.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace hring;
  const auto [format, smoke] = benchutil::parse_options(argc, argv);

  const std::size_t kSamples = smoke ? 8 : 64;
  if (format != benchutil::Format::kJson) {
    std::cout << "E12: randomized-daemon adversary search (" << kSamples
              << " schedules per cell)\n\n";
  }
  support::Table table({"algo", "n", "k", "daemon", "min steps",
                        "max steps", "sync steps", "lower bound",
                        "ceiling (msgs+n)"});

  support::Rng ring_rng(0xE12);
  for (const auto algo :
       {election::AlgorithmId::kAk, election::AlgorithmId::kBk}) {
    for (const std::size_t n : {8u, 16u}) {
      if (smoke && n > 8) continue;
      const std::size_t k = 2;
      const auto ring =
          ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, ring_rng);
      if (!ring) continue;
      const auto expected_leader = ring->true_leader();

      core::ElectionConfig sync_config;
      sync_config.algorithm = {algo, k, false};
      const auto sync_run = core::run_election(*ring, sync_config);
      HRING_ENSURES(sync_run.leader_pid() == expected_leader);
      const std::uint64_t ceiling = sync_run.stats.messages_sent + n;

      for (const auto daemon : {core::SchedulerKind::kRandomSingle,
                                core::SchedulerKind::kRandomSubset}) {
        // One campaign per daemon: kSamples schedules of the same ring,
        // every terminal configuration verified and checked against the
        // true leader (the paper's schedule-independence expectation).
        core::SweepConfig sweep;
        sweep.election.algorithm = {algo, k, false};
        sweep.election.scheduler = daemon;
        sweep.source = core::RingSource::fixed(*ring);
        sweep.cells = kSamples;
        sweep.seed = 0xBAD5EED;
        sweep.check_true_leader = true;
        const auto campaign = core::run_campaign(sweep);
        HRING_ENSURES(campaign.all_verified());
        HRING_ENSURES(campaign.outcome_count(sim::Outcome::kTerminated) ==
                      kSamples);
        const auto* steps = campaign.metrics.find_histogram("campaign.steps");
        HRING_ENSURES(steps != nullptr && steps->count() == kSamples);
        table.row()
            .cell(election::algorithm_name(algo))
            .cell(static_cast<std::uint64_t>(n))
            .cell(static_cast<std::uint64_t>(k))
            .cell(core::scheduler_kind_name(daemon))
            .cell(static_cast<std::uint64_t>(steps->min()))
            .cell(static_cast<std::uint64_t>(steps->max()))
            .cell(sync_run.stats.steps)
            .cell(core::lower_bound_steps(n, k))
            .cell(ceiling);
      }
    }
  }
  benchutil::emit(table, format);
  benchutil::footer(
      format,
      "\npaper: the winner is schedule-independent (checked for "
      "every sample); min steps\nrespects the Lemma 1 bound; "
      "sequential daemons stretch executions toward one\naction "
      "per step but never past the message-count ceiling.\n");
  return 0;
}
