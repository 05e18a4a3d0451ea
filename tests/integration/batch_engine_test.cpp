// The batch engine's correctness obligation: byte-identical per-cell
// Stats against the scalar StepEngine for every covered configuration.
//
// A campaign is run twice over the same cell grid — once on the batch
// backend (more cells than slots per arena, to exercise slot
// recycling) and once on the scalar backend — and every per-cell field
// is compared, including the full sim::Stats (defaulted operator==, so
// any divergence in steps, actions, message/bit accounting, space peaks
// or label-comparison counts fails the grid cell that produced it).
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "election/algorithm.hpp"
#include "election/batch_step.hpp"
#include "ring/generator.hpp"
#include "sim/batch_link.hpp"
#include "sim/run_result.hpp"
#include "support/rng.hpp"

namespace hring {
namespace {

using core::CampaignBackend;
using core::SweepConfig;
using election::AlgorithmId;

struct CellRecord {
  std::uint64_t election_seed = 0;
  sim::Outcome outcome = sim::Outcome::kDeadlock;
  std::optional<sim::ProcessId> leader;
  bool verified = false;
  sim::Stats stats;
};

std::vector<CellRecord> run_cells(SweepConfig config, CampaignBackend backend,
                                  std::size_t workers) {
  config.backend = backend;
  config.workers = workers;
  std::vector<CellRecord> out(config.cells);
  config.cell_sink = [&out](const core::CellView& view) {
    out[view.cell] = CellRecord{view.election_seed, view.outcome, view.leader,
                                view.verified, view.stats};
  };
  const auto result = core::run_campaign(config);
  EXPECT_EQ(result.backend, backend);
  EXPECT_EQ(result.cells, config.cells);
  return out;
}

void expect_identical(const std::vector<CellRecord>& batch,
                      const std::vector<CellRecord>& scalar,
                      const std::string& where) {
  ASSERT_EQ(batch.size(), scalar.size()) << where;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string at = where + " cell " + std::to_string(i);
    EXPECT_EQ(batch[i].election_seed, scalar[i].election_seed) << at;
    EXPECT_EQ(batch[i].outcome, scalar[i].outcome) << at;
    EXPECT_EQ(batch[i].leader, scalar[i].leader) << at;
    EXPECT_EQ(batch[i].verified, scalar[i].verified) << at;
    EXPECT_EQ(batch[i].stats, scalar[i].stats) << at << " (Stats diverged)";
  }
}

constexpr core::SchedulerKind kAllSchedulers[] = {
    core::SchedulerKind::kSynchronous,  core::SchedulerKind::kRoundRobin,
    core::SchedulerKind::kRandomSingle, core::SchedulerKind::kRandomSubset,
    core::SchedulerKind::kConvoy,
};

TEST(BatchEngineCrossCheck, AkGridMatchesScalarEngine) {
  for (std::size_t k = 1; k <= 3; ++k) {
    for (std::size_t n = 2; n <= 7; ++n) {
      for (const auto scheduler : kAllSchedulers) {
        SweepConfig config;
        config.election.algorithm = {AlgorithmId::kAk, k, false};
        config.election.scheduler = scheduler;
        config.source = core::RingSource::random_asymmetric(n);
        config.cells = 5;
        config.seed = 0xA5EED + 1000 * k + 10 * n +
                      static_cast<std::uint64_t>(scheduler);
        config.batch_slots = 3;  // fewer slots than cells: recycle slots
        config.check_true_leader = true;

        const auto batch = run_cells(config, CampaignBackend::kBatch, 2);
        const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
        expect_identical(batch, scalar,
                         "Ak k=" + std::to_string(k) + " n=" +
                             std::to_string(n) + " sched=" +
                             core::scheduler_kind_name(scheduler));
        for (const auto& cell : batch) {
          EXPECT_EQ(cell.outcome, sim::Outcome::kTerminated);
          EXPECT_TRUE(cell.verified);
        }
      }
    }
  }
}

TEST(BatchEngineCrossCheck, ChangRobertsGridMatchesScalarEngine) {
  for (std::size_t n = 2; n <= 7; ++n) {
    for (const auto scheduler : kAllSchedulers) {
      SweepConfig config;
      config.election.algorithm = {AlgorithmId::kChangRoberts, 1, false};
      config.election.scheduler = scheduler;
      config.source = core::RingSource::distinct(n);
      config.cells = 5;
      config.seed = 0xC5EED + 10 * n + static_cast<std::uint64_t>(scheduler);
      config.batch_slots = 2;

      const auto batch = run_cells(config, CampaignBackend::kBatch, 2);
      const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
      expect_identical(batch, scalar,
                       "CR n=" + std::to_string(n) + " sched=" +
                           core::scheduler_kind_name(scheduler));
      for (const auto& cell : batch) {
        EXPECT_EQ(cell.outcome, sim::Outcome::kTerminated);
        EXPECT_TRUE(cell.verified);
      }
    }
  }
}

TEST(BatchEngineCrossCheck, BudgetExhaustionMatchesScalarEngine) {
  // A budget that truncates mid-election must cut both engines at the
  // same step with the same partial Stats.
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kChangRoberts, 1, false};
  config.election.scheduler = core::SchedulerKind::kRandomSingle;
  config.election.budget = 3;
  config.source = core::RingSource::distinct(6);
  config.cells = 8;
  config.seed = 0xB0D9ED;
  config.verify = false;  // truncated runs have no terminal state to check

  const auto batch = run_cells(config, CampaignBackend::kBatch, 1);
  const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
  expect_identical(batch, scalar, "budget=3");
  for (const auto& cell : batch) {
    EXPECT_EQ(cell.outcome, sim::Outcome::kBudgetExhausted);
    EXPECT_EQ(cell.stats.steps, 3u);
  }
}

TEST(BatchEngineCrossCheck, BudgetCutCellsMatchScalarEngineEverywhere) {
  // The batch engine derives its run totals (messages, message bits, peak
  // space) once per cell, when the slot closes. Cells the budget stops
  // mid-election pin that derivation on partial runs: for both algorithms
  // and every daemon, each budget lies below the election's step count.
  struct Case {
    election::AlgorithmConfig algorithm;
    core::RingSource source;
  };
  const Case cases[] = {
      {{AlgorithmId::kAk, 1, false}, core::RingSource::random_asymmetric(5)},
      {{AlgorithmId::kAk, 2, false}, core::RingSource::random_asymmetric(7)},
      {{AlgorithmId::kChangRoberts, 1, false}, core::RingSource::distinct(6)},
  };
  for (const Case& c : cases) {
    // Every election needs at least 2n + 1 steps: the winning token's n
    // hops after the first firing, then the n hops of the finish wave.
    const std::uint64_t n = c.source.n;
    for (const auto scheduler : kAllSchedulers) {
      for (const std::uint64_t budget : {std::uint64_t{1}, n, 2 * n}) {
        SweepConfig config;
        config.election.algorithm = c.algorithm;
        config.election.scheduler = scheduler;
        config.election.budget = budget;
        config.source = c.source;
        config.cells = 5;
        config.seed = 0xB0D6E7 + 100 * budget +
                      static_cast<std::uint64_t>(scheduler);
        config.batch_slots = 2;
        config.verify = false;  // truncated runs have no terminal state

        std::string at = election::algorithm_name(c.algorithm.id);
        at += " n=";
        at += std::to_string(n);
        at += " sched=";
        at += core::scheduler_kind_name(scheduler);
        at += " budget=";
        at += std::to_string(budget);
        const auto batch = run_cells(config, CampaignBackend::kBatch, 2);
        const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
        expect_identical(batch, scalar, at);
        for (const auto& cell : batch) {
          EXPECT_EQ(cell.outcome, sim::Outcome::kBudgetExhausted) << at;
          EXPECT_EQ(cell.stats.steps, budget) << at;
        }
      }
    }
  }
}

TEST(BatchEngineCrossCheck, FixedRingSourceMatchesScalarEngine) {
  const auto ring = ring::LabeledRing::from_values({2, 1, 3, 1, 2, 1});
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kAk, 3, false};
  config.election.scheduler = core::SchedulerKind::kRandomSubset;
  config.source = core::RingSource::fixed(ring);
  config.cells = 12;
  config.seed = 0xF15ED;
  config.batch_slots = 4;
  config.check_true_leader = true;

  const auto batch = run_cells(config, CampaignBackend::kBatch, 2);
  const auto scalar = run_cells(config, CampaignBackend::kScalar, 2);
  expect_identical(batch, scalar, "fixed ring");
}

TEST(BatchEngineCrossCheck, ConvoyFairnessForcingMatchesScalarEngine) {
  // The convoy daemon starves the largest enabled pid. At n = 17 that
  // process stays enabled past the 128-step fairness bound, so the run
  // depends on the aging pass forcing it; the grid above (n <= 7) ends
  // before the bound is reached.
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kAk, 2, false};
  config.election.scheduler = core::SchedulerKind::kConvoy;
  config.source = core::RingSource::random_asymmetric(17);
  config.cells = 10;
  config.seed = 0xC0A7;
  config.batch_slots = 3;
  config.check_true_leader = true;

  const auto batch = run_cells(config, CampaignBackend::kBatch, 1);
  const auto scalar = run_cells(config, CampaignBackend::kScalar, 1);
  expect_identical(batch, scalar, "convoy n=17");
  for (const auto& cell : batch) {
    EXPECT_EQ(cell.outcome, sim::Outcome::kTerminated);
    EXPECT_TRUE(cell.verified);
  }
}

// The cross-checks above compare the two backends with each other, so a
// change that moved both in step (say, a memoized Lyndon test crediting
// the wrong comparison count on every path) would pass them. These totals
// pin absolute A_k counts over 300 random asymmetric rings per case.
struct GoldenCase {
  std::size_t k;
  std::size_t n;
  core::SchedulerKind scheduler;
  std::uint64_t label_comparisons;
  std::uint64_t messages_sent;
  std::uint64_t steps;
};

TEST(BatchEngineGolden, AkTotalsMatchRecordedCounts) {
  const GoldenCase cases[] = {
      {.k = 2, .n = 12, .scheduler = core::SchedulerKind::kSynchronous,
       .label_comparisons = 899288, .messages_sent = 110988,
       .steps = 11199},
      {.k = 3, .n = 17, .scheduler = core::SchedulerKind::kRandomSubset,
       .label_comparisons = 2514505, .messages_sent = 223550,
       .steps = 50352},
      {.k = 1, .n = 5, .scheduler = core::SchedulerKind::kSynchronous,
       .label_comparisons = 71936, .messages_sent = 19500, .steps = 4800},
  };
  for (const GoldenCase& golden : cases) {
    SweepConfig config;
    config.election.algorithm = {AlgorithmId::kAk, golden.k, false};
    config.election.scheduler = golden.scheduler;
    config.source = core::RingSource::random_asymmetric(golden.n);
    config.cells = 300;
    config.seed = 7 + 13 * golden.n + golden.k;
    config.check_true_leader = true;
    for (const auto backend :
         {CampaignBackend::kBatch, CampaignBackend::kScalar}) {
      std::string at = "Ak k=";
      at += std::to_string(golden.k);
      at += " n=";
      at += std::to_string(golden.n);
      at += " backend=";
      at += core::campaign_backend_name(backend);
      std::uint64_t comparisons = 0;
      std::uint64_t messages = 0;
      std::uint64_t steps = 0;
      for (const CellRecord& cell : run_cells(config, backend, 1)) {
        EXPECT_EQ(cell.outcome, sim::Outcome::kTerminated) << at;
        EXPECT_TRUE(cell.verified) << at;
        comparisons += cell.stats.label_comparisons;
        messages += cell.stats.messages_sent;
        steps += cell.stats.steps;
      }
      EXPECT_EQ(comparisons, golden.label_comparisons) << at;
      EXPECT_EQ(messages, golden.messages_sent) << at;
      EXPECT_EQ(steps, golden.steps) << at;
    }
  }
}

// The batch engine reads a cell's peak_space_bits off its final
// configuration, which is the peak over time only if no node's space ever
// shrinks during a run. Drive each batch algorithm directly, one random
// enabled process per step, and check every node after every firing.
template <class Algo>
void expect_space_never_decreases(const election::AlgorithmConfig& algorithm,
                                  const ring::LabeledRing& ring,
                                  std::uint64_t seed,
                                  const std::string& where) {
  const std::size_t n = ring.size();
  const std::size_t label_bits = ring.label_bits();
  Algo algo;
  algo.configure(1, n, algorithm);
  algo.reset_slot(0, ring);
  sim::LinkPlane links;
  links.reset(n);
  sim::Stats stats;
  stats.reset(n);
  support::Rng rng(seed);

  std::vector<std::size_t> space(n);
  for (std::size_t g = 0; g < n; ++g) {
    space[g] = algo.space_bits(g, label_bits);
  }
  std::vector<sim::ProcessId> enabled;
  std::size_t growths = 0;
  for (;;) {
    enabled.clear();
    for (sim::ProcessId pid = 0; pid < n; ++pid) {
      const sim::Message* head = links.peek(pid == 0 ? n - 1 : pid - 1);
      if (!algo.spec().halted.test(pid) && algo.enabled(pid, head)) {
        enabled.push_back(pid);
      }
    }
    if (enabled.empty()) break;
    const sim::ProcessId pid = enabled[rng.below(enabled.size())];
    const std::size_t in = pid == 0 ? n - 1 : pid - 1;
    const sim::Message* head = links.peek(in);
    election::BatchFireContext ctx(stats, links, in, pid, pid, head);
    algo.fire(pid, head, ctx);
    for (std::size_t g = 0; g < n; ++g) {
      const std::size_t now = algo.space_bits(g, label_bits);
      ASSERT_GE(now, space[g]) << where << " node " << g;
      if (now > space[g]) ++growths;
      space[g] = now;
    }
  }
  for (std::size_t g = 0; g < n; ++g) {
    EXPECT_TRUE(algo.spec().halted.test(g)) << where << " node " << g;
  }
  if (algorithm.id == AlgorithmId::kAk) {
    EXPECT_GT(growths, 0u) << where;  // A_k strings grow as tokens pass
  }
}

TEST(BatchAlgorithmSpace, NeverDecreasesDuringARun) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Rng rng(seed);
    const std::size_t k = 1 + seed % 3;
    const std::size_t n = 3 + seed % 7;
    const auto ak_ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ak_ring.has_value());
    std::string at = " seed=";
    at += std::to_string(seed);
    expect_space_never_decreases<election::BatchAk>(
        {AlgorithmId::kAk, k, false}, *ak_ring, seed, "Ak" + at);
    expect_space_never_decreases<election::BatchChangRoberts>(
        {AlgorithmId::kChangRoberts, 1, false}, ring::distinct_ring(n, rng),
        seed, "CR" + at);
  }
}

}  // namespace
}  // namespace hring
