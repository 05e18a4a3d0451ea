// Broad randomized sweep across the whole configuration space: random
// rings × algorithms × engines × daemons × delay models, 200 cases,
// every one fully verified. The per-dimension suites prove each feature;
// this one proves the combinations compose.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "ring/classes.hpp"
#include "ring/generator.hpp"

namespace hring::core {
namespace {

using election::AlgorithmId;

struct Case {
  std::string description;
  bool ok = false;
  std::string error;
};

Case run_case(std::uint64_t index) {
  support::Rng rng(0xF0220000 + index);
  const std::size_t n = 2 + rng.below(14);
  const std::size_t k = 1 + rng.below(4);

  // Pick an algorithm; baselines get K_1 rings, the paper's algorithms
  // get homonym rings of A ∩ K_k.
  const auto& algos = election::all_algorithms();
  const AlgorithmId algo =
      algos[static_cast<std::size_t>(rng.below(algos.size()))];
  const bool paper_algo = election::elects_true_leader(algo);

  std::optional<ring::LabeledRing> ring;
  if (paper_algo) {
    ring = ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
  } else {
    ring = ring::distinct_ring(n, rng);
  }
  if (!ring.has_value()) return {"sampling failed", false, "no ring"};

  ElectionConfig config;
  config.algorithm = {algo, paper_algo ? k : 1, false};
  config.engine =
      rng.chance(0.5) ? EngineKind::kStep : EngineKind::kEvent;
  switch (rng.below(5)) {
    case 0:
      config.scheduler = SchedulerKind::kSynchronous;
      break;
    case 1:
      config.scheduler = SchedulerKind::kRoundRobin;
      break;
    case 2:
      config.scheduler = SchedulerKind::kRandomSingle;
      break;
    case 3:
      config.scheduler = SchedulerKind::kRandomSubset;
      break;
    default:
      config.scheduler = SchedulerKind::kConvoy;
      break;
  }
  switch (rng.below(3)) {
    case 0:
      config.delay = DelayKind::kWorstCase;
      break;
    case 1:
      config.delay = DelayKind::kUniformRandom;
      break;
    default:
      config.delay = DelayKind::kSlowLink;
      break;
  }
  config.seed = rng();

  Case out;
  out.description = std::string(election::algorithm_name(algo)) + " on " +
                    ring->to_string() + " k=" +
                    std::to_string(config.algorithm.k) + " engine=" +
                    engine_kind_name(config.engine) +
                    " sched=" + scheduler_kind_name(config.scheduler) +
                    " delay=" + delay_kind_name(config.delay);
  const auto m = measure(*ring, config);
  out.ok = m.ok();
  if (!out.ok) out.error = m.verification.to_string();
  return out;
}

TEST(FuzzSweepTest, TwoHundredRandomConfigurationsAllVerify) {
  for (std::size_t i = 0; i < 200; ++i) {
    const Case c = run_case(i);
    EXPECT_TRUE(c.ok) << "case " << i << ": " << c.description << "\n"
                      << c.error;
  }
}

}  // namespace
}  // namespace hring::core
