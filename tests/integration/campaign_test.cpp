// Campaign semantics: worker-count and batch-slot invariance, the
// one-seed determinism contract, backend resolution, and cell streaming.
#include <array>
#include <atomic>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "support/json.hpp"

namespace hring {
namespace {

using core::CampaignBackend;
using core::SweepConfig;
using election::AlgorithmId;

std::string registry_json(const telemetry::MetricsRegistry& registry) {
  std::ostringstream out;
  {
    support::JsonWriter json(out);
    registry.to_json(json);
  }
  return out.str();
}

SweepConfig ak_campaign() {
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kAk, 2, false};
  config.election.scheduler = core::SchedulerKind::kRandomSubset;
  config.source = core::RingSource::random_asymmetric(6);
  config.cells = 32;
  config.seed = 0xCA4FA16;
  config.check_true_leader = true;
  return config;
}

/// What a cell sink sees of one cell, copied out of the worker's arena.
struct CellRecord {
  std::uint64_t election_seed = 0;
  std::optional<sim::ProcessId> leader;
  bool verified = false;
  sim::Stats stats;
  bool operator==(const CellRecord&) const = default;
};

/// Per-cell records of `config` on the scalar backend with `workers`
/// threads, indexed by cell.
std::vector<CellRecord> cell_records(SweepConfig config,
                                     std::size_t workers) {
  std::vector<CellRecord> cells(config.cells);
  config.workers = workers;
  config.backend = CampaignBackend::kScalar;
  config.cell_sink = [&cells](const core::CellView& view) {
    cells[view.cell] =
        CellRecord{view.election_seed, view.leader, view.verified,
                   view.stats};
  };
  (void)core::run_campaign(config);
  return cells;
}

/// 1 and 4 workers agree cell for cell, and every cell equals a serial
/// run_election of `ring_of(cell)` with the cell's derived seed.
void expect_matches_serial(
    const SweepConfig& config,
    const std::function<ring::LabeledRing(std::size_t)>& ring_of) {
  const auto serial = cell_records(config, 1);
  EXPECT_EQ(cell_records(config, 4), serial);
  for (std::size_t cell = 0; cell < serial.size(); ++cell) {
    core::ElectionConfig replay = config.election;
    replay.seed = serial[cell].election_seed;
    replay.monitor_spec = false;  // campaigns measure, they don't monitor
    const auto result = core::run_election(ring_of(cell), replay);
    EXPECT_EQ(result.stats, serial[cell].stats) << "cell " << cell;
    EXPECT_EQ(result.leader_pid(), serial[cell].leader) << "cell " << cell;
    EXPECT_TRUE(serial[cell].verified) << "cell " << cell;
  }
}

/// The ring a kDistinct campaign draws for `cell` (one-seed convention).
ring::LabeledRing distinct_cell_ring(const SweepConfig& config,
                                     std::size_t cell) {
  support::Rng rng(core::derive_cell_seeds(config.seed, cell).ring_seed);
  return ring::distinct_ring(config.source.n, rng);
}

TEST(CampaignTest, MergedResultIsInvariantUnderWorkerCount) {
  // The merged registry aggregates integer-valued Stats; double sums of
  // integers are exact far below 2^53, so any worker count must produce
  // the same document, bit for bit.
  for (const auto backend :
       {CampaignBackend::kBatch, CampaignBackend::kScalar}) {
    SweepConfig config = ak_campaign();
    config.backend = backend;

    config.workers = 1;
    const auto one = core::run_campaign(config);
    const std::string one_json = registry_json(one.metrics);

    for (const std::size_t workers : {2u, 4u}) {
      config.workers = workers;
      const auto many = core::run_campaign(config);
      EXPECT_EQ(many.workers, workers);
      EXPECT_EQ(registry_json(many.metrics), one_json)
          << core::campaign_backend_name(backend) << " workers=" << workers;
      EXPECT_EQ(many.outcome_counts, one.outcome_counts);
      EXPECT_EQ(many.verify_failures, one.verify_failures);
    }
    EXPECT_EQ(one.outcome_count(sim::Outcome::kTerminated), config.cells);
    EXPECT_TRUE(one.all_verified());
  }
}

TEST(CampaignTest, MergedResultIsInvariantUnderBatchSlotsAndGrain) {
  SweepConfig config = ak_campaign();
  config.backend = CampaignBackend::kBatch;
  config.workers = 2;
  const auto reference = core::run_campaign(config);
  const std::string reference_json = registry_json(reference.metrics);

  for (const std::size_t slots : {1u, 3u, 64u}) {
    config.batch_slots = slots;
    config.queue_grain = slots == 3 ? 1 : 0;
    const auto run = core::run_campaign(config);
    EXPECT_EQ(registry_json(run.metrics), reference_json)
        << "batch_slots=" << slots;
  }
}

TEST(CampaignTest, CampaignSeedChangesEveryCell) {
  SweepConfig config = ak_campaign();
  config.seed = 0x1;
  const auto a = core::run_campaign(config);
  config.seed = 0x2;
  const auto b = core::run_campaign(config);
  EXPECT_NE(registry_json(a.metrics), registry_json(b.metrics));
}

TEST(CampaignTest, CellsReplayInIsolationThroughRunElection) {
  // The one-seed convention: any cell of a fixed-ring campaign is
  // reproducible by run_election with the derived election seed.
  const auto ring = ring::LabeledRing::from_values({4, 1, 3, 2});
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kChangRoberts, 1, false};
  config.election.scheduler = core::SchedulerKind::kRandomSingle;
  config.source = core::RingSource::fixed(ring);
  config.cells = 10;
  config.seed = 0xDECADE;

  struct Captured {
    std::uint64_t seed = 0;
    sim::Stats stats;
  };
  std::vector<Captured> cells(config.cells);
  config.cell_sink = [&cells](const core::CellView& view) {
    cells[view.cell] = Captured{view.election_seed, view.stats};
  };
  (void)core::run_campaign(config);

  for (std::size_t cell = 0; cell < config.cells; ++cell) {
    const auto seeds = core::derive_cell_seeds(config.seed, cell);
    EXPECT_EQ(cells[cell].seed, seeds.election_seed);

    core::ElectionConfig replay = config.election;
    replay.seed = seeds.election_seed;
    replay.monitor_spec = false;  // campaigns measure, they don't monitor
    const auto result = core::run_election(ring, replay);
    EXPECT_EQ(result.stats, cells[cell].stats) << "cell " << cell;
  }
}

TEST(CampaignTest, SinkIsInvokedExactlyOncePerCell) {
  SweepConfig config = ak_campaign();
  config.cells = 50;
  config.workers = 4;
  std::atomic<std::size_t> calls{0};
  std::vector<std::atomic<std::uint32_t>> per_cell(config.cells);
  config.cell_sink = [&](const core::CellView& view) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ASSERT_LT(view.cell, per_cell.size());
    per_cell[view.cell].fetch_add(1, std::memory_order_relaxed);
  };
  (void)core::run_campaign(config);
  EXPECT_EQ(calls.load(), config.cells);
  for (std::size_t i = 0; i < per_cell.size(); ++i) {
    EXPECT_EQ(per_cell[i].load(), 1u) << "cell " << i;
  }
}

TEST(CampaignTest, QuantilesComeFromMergedStatsHistograms) {
  SweepConfig config = ak_campaign();
  const auto result = core::run_campaign(config);
  const double min_steps = result.quantile("steps", 0.0);
  const double max_steps = result.quantile("steps", 1.0);
  EXPECT_GE(min_steps, 1.0);
  EXPECT_GE(max_steps, min_steps);
  const auto* hist = result.metrics.find_histogram("campaign.steps");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), config.cells);
  EXPECT_DOUBLE_EQ(hist->min(), min_steps);
  EXPECT_DOUBLE_EQ(hist->max(), max_steps);
}

TEST(CampaignTest, BackendResolution) {
  SweepConfig config = ak_campaign();
  EXPECT_EQ(core::resolve_backend(config), CampaignBackend::kBatch);

  // Algorithms outside the batch engine's coverage fall back to scalar.
  SweepConfig peterson = config;
  peterson.election.algorithm = {AlgorithmId::kPeterson, 1, false};
  peterson.source = core::RingSource::distinct(6);
  peterson.check_true_leader = false;
  EXPECT_EQ(core::resolve_backend(peterson), CampaignBackend::kScalar);

  // So does the event engine and per-cell telemetry collection.
  SweepConfig event = config;
  event.election.engine = core::EngineKind::kEvent;
  EXPECT_EQ(core::resolve_backend(event), CampaignBackend::kScalar);
  SweepConfig telemetry = config;
  telemetry.collect_telemetry = true;
  EXPECT_EQ(core::resolve_backend(telemetry), CampaignBackend::kScalar);

  // Requesting the batch backend outside its coverage is an error.
  peterson.backend = CampaignBackend::kBatch;
  EXPECT_THROW((void)core::resolve_backend(peterson), std::invalid_argument);
  EXPECT_THROW((void)core::run_campaign(peterson), std::invalid_argument);
}

TEST(CampaignTest, ScalarFallbackRunsUncoveredAlgorithms) {
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kPeterson, 1, false};
  config.election.scheduler = core::SchedulerKind::kRandomSingle;
  config.source = core::RingSource::distinct(5);
  config.cells = 8;
  config.seed = 0xFA11BAC;
  const auto result = core::run_campaign(config);
  EXPECT_EQ(result.backend, CampaignBackend::kScalar);
  EXPECT_EQ(result.outcome_count(sim::Outcome::kTerminated), config.cells);
  EXPECT_TRUE(result.all_verified());
}

TEST(CampaignTest, ElectionGridMatchesSerial) {
  // A grid across n and k: engine state is thread-confined and all
  // randomness is per-cell, so per-cell results cannot depend on the
  // worker count.
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t n = 4 + i * 3;
    const std::size_t k = 1 + i % 3;
    support::Rng rng(1000 + i);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    SweepConfig config;
    config.election.algorithm = {AlgorithmId::kAk, k, false};
    config.election.scheduler = core::SchedulerKind::kRandomSubset;
    config.source = core::RingSource::fixed(*ring);
    config.cells = 8;
    config.seed = 1000 + i;
    config.check_true_leader = true;
    expect_matches_serial(config, [&ring](std::size_t) { return *ring; });
  }
}

TEST(CampaignTest, LabelComparisonCountsAreThreadConfined) {
  // Each cell's run resets and reads the thread-local comparison counter;
  // concurrent workers must report the serial per-cell counts.
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kBk, 1, false};
  config.source = core::RingSource::distinct(8);
  config.cells = 12;
  config.seed = 7;
  expect_matches_serial(config, [&config](std::size_t cell) {
    return distinct_cell_ring(config, cell);
  });
}

TEST(CampaignTest, RecycledEnginesInvariantUnderWorkerCount) {
  // Scalar workers recycle a thread_local engine: consecutive cells, and
  // on the caller's thread consecutive campaigns of different ring sizes,
  // reuse links and stats buffers. Results must not depend on which cells
  // shared an engine.
  for (std::size_t n = 3; n <= 9; ++n) {
    SweepConfig config;
    config.election.algorithm = {AlgorithmId::kAk, 1, false};
    config.election.scheduler = core::SchedulerKind::kRandomSingle;
    config.source = core::RingSource::distinct(n);
    config.cells = 4;
    config.seed = 90 + n;
    expect_matches_serial(config, [&config](std::size_t cell) {
      return distinct_cell_ring(config, cell);
    });
  }
}

/// The registry document of `config` run on `backend` with `workers`.
std::string campaign_json(SweepConfig config, CampaignBackend backend,
                          std::size_t workers) {
  config.backend = backend;
  config.workers = workers;
  return registry_json(core::run_campaign(config).metrics);
}

/// A Chang–Roberts campaign, for alternating with ak_campaign() on the
/// same recycled runners.
SweepConfig cr_campaign() {
  SweepConfig config;
  config.election.algorithm = {AlgorithmId::kChangRoberts, 1, false};
  config.election.scheduler = core::SchedulerKind::kSynchronous;
  config.source = core::RingSource::distinct(9);
  config.cells = 24;
  config.seed = 0xC4A11;
  config.batch_slots = 5;
  config.check_true_leader = true;
  return config;
}

TEST(CampaignTest, RecycledRunnersCarryNothingBetweenCampaigns) {
  // Batch campaigns on one thread borrow the same recycled runners. Back
  // to back, with the algorithm, n, k, scheduler and batch_slots all
  // changing, each must still match the scalar engine's registry.
  std::vector<SweepConfig> configs;
  configs.push_back(cr_campaign());
  configs.push_back(ak_campaign());
  SweepConfig wide = ak_campaign();
  wide.election.algorithm.k = 3;
  wide.election.scheduler = core::SchedulerKind::kConvoy;
  wide.source = core::RingSource::random_asymmetric(11);
  wide.batch_slots = 64;
  configs.push_back(wide);
  SweepConfig narrow = cr_campaign();
  narrow.election.scheduler = core::SchedulerKind::kRoundRobin;
  narrow.source = core::RingSource::distinct(3);
  narrow.batch_slots = 1;
  configs.push_back(narrow);
  SweepConfig small = ak_campaign();
  small.election.algorithm.k = 1;
  small.election.scheduler = core::SchedulerKind::kSynchronous;
  small.source = core::RingSource::random_asymmetric(4);
  small.batch_slots = 2;
  configs.push_back(small);

  for (const std::size_t workers : {1u, 3u}) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_EQ(campaign_json(configs[i], CampaignBackend::kBatch, workers),
                campaign_json(configs[i], CampaignBackend::kScalar, 1))
          << "campaign " << i << " workers=" << workers;
    }
  }
}

TEST(CampaignTest, CampaignAfterAThrowingSinkStartsClean) {
  // A sink that throws mid-campaign returns its runners with slots still
  // bound to unfinished cells; the next campaign must not see them.
  const SweepConfig config = ak_campaign();
  const std::string expected =
      campaign_json(config, CampaignBackend::kScalar, 1);
  for (const std::size_t workers : {1u, 2u}) {
    SweepConfig throwing = config;
    throwing.batch_slots = 7;
    throwing.backend = CampaignBackend::kBatch;
    throwing.workers = workers;
    throwing.cell_sink = [](const core::CellView& view) {
      if (view.cell == 5) throw std::runtime_error("mid-run");
    };
    EXPECT_THROW((void)core::run_campaign(throwing), std::runtime_error);
    EXPECT_EQ(campaign_json(config, CampaignBackend::kBatch, workers),
              expected)
        << "workers=" << workers;
  }
}

TEST(CampaignTest, CampaignStartedFromASinkBorrowsOtherRunners) {
  // A single-worker campaign runs inline on the caller's runner; a
  // campaign started from its sink must not borrow that runner while the
  // outer cell's Stats still live in it.
  SweepConfig inner = ak_campaign();
  inner.source = core::RingSource::random_asymmetric(9);
  inner.cells = 6;
  const std::string inner_expected =
      campaign_json(inner, CampaignBackend::kScalar, 1);

  SweepConfig outer = ak_campaign();
  const std::string outer_expected =
      campaign_json(outer, CampaignBackend::kScalar, 1);
  std::vector<std::string> inner_runs;
  std::size_t sunk = 0;
  outer.backend = CampaignBackend::kBatch;
  outer.workers = 1;
  outer.cell_sink = [&](const core::CellView& view) {
    ++sunk;
    const sim::Stats before = view.stats;
    if (view.cell % 8 == 3) {
      inner_runs.push_back(campaign_json(inner, CampaignBackend::kBatch, 1));
    }
    EXPECT_EQ(view.stats, before) << "cell " << view.cell;
  };
  EXPECT_EQ(registry_json(core::run_campaign(outer).metrics),
            outer_expected);
  EXPECT_EQ(sunk, outer.cells);
  ASSERT_EQ(inner_runs.size(), 4u);
  for (const std::string& run : inner_runs) EXPECT_EQ(run, inner_expected);
}

TEST(CampaignTest, ConcurrentCallersKeepSeparateRunners) {
  // Each calling thread recycles its own runners; two threads running
  // batch campaigns side by side must both match the scalar registries.
  const std::vector<SweepConfig> configs = {ak_campaign(), cr_campaign()};
  std::vector<std::string> expected;
  for (const SweepConfig& config : configs) {
    expected.push_back(campaign_json(config, CampaignBackend::kScalar, 1));
  }
  constexpr std::size_t kRounds = 3;
  std::array<std::vector<std::string>, 2> got;
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < got.size(); ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        // Each thread alternates algorithms, out of phase with the other.
        const SweepConfig& config = configs[(t + round) % configs.size()];
        got[t].push_back(
            campaign_json(config, CampaignBackend::kBatch, 1 + round % 2));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), kRounds);
    for (std::size_t round = 0; round < kRounds; ++round) {
      EXPECT_EQ(got[t][round], expected[(t + round) % configs.size()])
          << "thread " << t << " round " << round;
    }
  }
}

TEST(CampaignTest, DefaultWorkerCountPositive) {
  SweepConfig config = ak_campaign();
  config.workers = 0;  // hardware concurrency
  EXPECT_GE(core::run_campaign(config).workers, 1u);
}

TEST(CampaignTest, PropagatesFirstException) {
  SweepConfig config = ak_campaign();
  config.workers = 4;
  config.cell_sink = [](const core::CellView& view) {
    if (view.cell == 13) throw std::runtime_error("boom");
  };
  EXPECT_THROW((void)core::run_campaign(config), std::runtime_error);
}

TEST(CampaignTest, PropagatesExceptionOnSingleWorkerPath) {
  // The workers == 1 path runs inline; its errors must surface the same
  // way the pool's do.
  SweepConfig config = ak_campaign();
  config.workers = 1;
  config.cell_sink = [](const core::CellView& view) {
    if (view.cell == 2) throw std::runtime_error("inline boom");
  };
  EXPECT_THROW((void)core::run_campaign(config), std::runtime_error);
}

TEST(CampaignTest, PropagatesExactlyOneOfManyExceptions) {
  // Every cell throws on every worker; exactly one exception (some cell's)
  // must reach the caller, with its message intact.
  SweepConfig config = ak_campaign();
  config.workers = 4;
  config.cell_sink = [](const core::CellView& view) {
    throw std::runtime_error("cell " + std::to_string(view.cell));
  };
  try {
    (void)core::run_campaign(config);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("cell ", 0), 0u) << e.what();
  }
}

TEST(CampaignTest, EmptyCampaign) {
  SweepConfig config = ak_campaign();
  config.cells = 0;
  config.workers = 4;
  config.cell_sink = [](const core::CellView& view) {
    ADD_FAILURE() << "sink called for cell " << view.cell;
  };
  const auto result = core::run_campaign(config);
  EXPECT_EQ(result.cells, 0u);
  EXPECT_EQ(result.outcome_counts, (std::array<std::uint64_t, 4>{}));
  EXPECT_TRUE(result.all_verified());
}

}  // namespace
}  // namespace hring
