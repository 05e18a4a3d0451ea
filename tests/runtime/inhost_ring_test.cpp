// In-host runtime: real threads, SPSC byte links, wire frames.
//
// Correctness here is the conformance harness's job
// (tests/runtime/conformance_test.cpp); these tests cover the runtime's
// own machinery — bootstrap, election results across all five
// algorithms at growing worker counts (the TSan stress matrix), budget
// and deadlock outcomes, telemetry, and the wire-path mutation tests
// that inject corrupted byte streams straight into the links.
#include "runtime/inhost/inhost_ring.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "ring/labeled_ring.hpp"
#include "runtime/inhost/inhost_links.hpp"
#include "runtime/inhost/membership.hpp"
#include "runtime/wire.hpp"
#include "support/rng.hpp"

namespace hring::runtime {
namespace {

using election::AlgorithmConfig;
using election::AlgorithmId;
using sim::Label;
using sim::Message;

TEST(RingMembershipTest, BootstrapSequence) {
  RingMembership membership(3);
  EXPECT_FALSE(membership.all_joined());
  membership.join(0);
  membership.join(1);
  membership.join(2);
  EXPECT_TRUE(membership.all_joined());
  membership.set_next(0, 1);
  membership.set_next(1, 2);
  membership.set_next(2, 0);
  EXPECT_EQ(membership.next_of(0), 1u);
  EXPECT_EQ(membership.next_of(2), 0u);
  membership.start_election();
  EXPECT_TRUE(membership.await_start([] { return false; }));
  membership.beat(1);
  membership.beat(1);
  EXPECT_EQ(membership.beats(1), 2u);
  EXPECT_EQ(membership.beats(0), 0u);
}

TEST(RingMembershipTest, DoubleJoinViolatesPrecondition) {
  RingMembership membership(2);
  membership.join(0);
  EXPECT_DEATH(membership.join(0), "precondition");
}

TEST(InHostRingTest, ElectsTrueLeaderOnSmallRing) {
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 1, 5});
  const auto result =
      run_inhost(ring, election::make_factory({AlgorithmId::kAk, 2, false}));
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_EQ(result.leader_pid(),
            std::optional<sim::ProcessId>(ring.true_leader()));
  EXPECT_EQ(result.messages_sent, result.messages_received);
  EXPECT_EQ(result.wire_rejects, 0u);
  EXPECT_EQ(result.sends_abandoned, 0u);
  EXPECT_GT(result.actions, 0u);
  EXPECT_GT(result.peak_space_bits, 0u);
}

TEST(InHostRingTest, TraceIsSortedAndComplete) {
  const auto ring = ring::LabeledRing::from_values({2, 7, 1, 8});
  const auto result =
      run_inhost(ring, election::make_factory({AlgorithmId::kAk, 1, false}));
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  ASSERT_EQ(result.trace.size(), result.actions);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_LT(result.trace[i - 1].seq, result.trace[i].seq) << "at " << i;
  }
  // Stamps are drawn from one counter starting at 0 with no other users:
  // a terminated run's stamps are exactly 0..actions-1.
  if (!result.trace.empty()) {
    EXPECT_EQ(result.trace.front().seq, 0u);
    EXPECT_EQ(result.trace.back().seq, result.actions - 1);
  }
}

TEST(InHostRingTest, RecordTraceOffLeavesTraceEmpty) {
  const auto ring = ring::LabeledRing::from_values({2, 7, 1, 8});
  InHostConfig config;
  config.record_trace = false;
  const auto result = run_inhost(
      ring, election::make_factory({AlgorithmId::kChangRoberts, 1, false}),
      config);
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_TRUE(result.trace.empty());
}

TEST(InHostRingTest, LatencyTelemetryIsRecorded) {
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 1, 5});
  const auto result =
      run_inhost(ring, election::make_factory({AlgorithmId::kBk, 2, false}));
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  const auto* latency =
      result.metrics.find_histogram("inhost_message_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), result.messages_received);
  const auto* rejects = result.metrics.find_counter("inhost_wire_rejects");
  ASSERT_NE(rejects, nullptr);
  EXPECT_EQ(rejects->value, 0u);
}

TEST(InHostRingTest, BudgetExhaustionIsReported) {
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 1, 5});
  InHostConfig config;
  config.max_actions_per_process = 2;  // far below what A_2 needs
  const auto result = run_inhost(
      ring, election::make_factory({AlgorithmId::kAk, 2, false}), config);
  EXPECT_EQ(result.outcome, sim::Outcome::kBudgetExhausted);
}

// -- TSan stress matrix ----------------------------------------------------
// All five algorithms at ring sizes from 3 to 64 workers. Under the tsan
// preset this is the runtime's main race hunt: bootstrap, SPSC traffic,
// backpressure, shutdown — every pairing gets exercised at every size.

struct StressCase {
  AlgorithmId id;
  // gtest prints a parameter without a PrintTo as its raw bytes, and that
  // print is part of each ctest name. Naming the padding keeps it zero, so
  // the names are the same on every run instead of carrying stack garbage.
  std::array<std::uint8_t, sizeof(std::size_t) - sizeof(AlgorithmId)>
      padding{};
  std::size_t k;
};

class InHostStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(InHostStressTest, ElectionsAcrossRingSizes) {
  const StressCase param = GetParam();
  support::Rng rng(0xC0FFEE);
  for (const std::size_t n : {3u, 8u, 24u, 64u}) {
    // Distinct labels: K_1 ⊆ K_k, so one ring family serves every
    // algorithm, baselines included.
    const auto ring = ring::distinct_ring(n, rng);
    const auto result = run_inhost(
        ring, election::make_factory({param.id, param.k, false}));
    ASSERT_EQ(result.outcome, sim::Outcome::kTerminated)
        << algorithm_name(param.id) << " n=" << n;
    ASSERT_TRUE(result.leader_pid().has_value())
        << algorithm_name(param.id) << " n=" << n;
    EXPECT_EQ(result.messages_sent, result.messages_received);
    EXPECT_EQ(result.wire_rejects, 0u);
    if (election::elects_true_leader(param.id)) {
      EXPECT_EQ(result.leader_pid(),
                std::optional<sim::ProcessId>(ring.true_leader()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, InHostStressTest,
    ::testing::Values(StressCase{.id = AlgorithmId::kAk, .k = 1},
                      StressCase{.id = AlgorithmId::kAk, .k = 3},
                      StressCase{.id = AlgorithmId::kBk, .k = 2},
                      StressCase{.id = AlgorithmId::kChangRoberts, .k = 1},
                      StressCase{.id = AlgorithmId::kLeLann, .k = 1},
                      StressCase{.id = AlgorithmId::kPeterson, .k = 1}),
    [](const ::testing::TestParamInfo<StressCase>& param_info) {
      return std::string(algorithm_name(param_info.param.id)) + "_k" +
             std::to_string(param_info.param.k);
    });

// -- Wire-path mutation tests ----------------------------------------------
// PR 4 hardened the codecs against corrupted streams; these tests turn
// that into runtime behavior: garbage injected into a live link must be
// rejected and contained — the election still terminates correctly.

TEST(InHostLinksMutationTest, CorruptFramesAreDroppedAndCounted) {
  InHostLinks links;
  links.reset(2, /*label_bits=*/8, /*capacity_bytes=*/1024);

  // A valid frame sandwiched between two corrupt ones.
  wire::Frame bad_tag;
  wire::encode(Message::token(Label(1)), 0, bad_tag);
  bad_tag[0] = 0xEE;  // out-of-range kind
  links.poke_raw(0, bad_tag.data(), bad_tag.size());
  links.send(0, Message::token(Label(5)));
  wire::Frame overflow;
  wire::encode(Message::token(Label(3)), 0, overflow);
  overflow[2] = 0xFF;  // label bits far past label_bits=8
  links.poke_raw(0, overflow.data(), overflow.size());

  // peek skips the leading bad frame and serves the valid one.
  const Message* head = links.peek(0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, Message::token(Label(5)));
  EXPECT_EQ(links.rejects(0), 1u);
  EXPECT_EQ(links.try_recv(0), std::optional<Message>(Message::token(Label(5))));
  // The trailing bad frame is consumed and rejected by the next scan.
  EXPECT_EQ(links.peek(0), nullptr);
  EXPECT_EQ(links.rejects(0), 2u);
  EXPECT_EQ(links.total_rejects(), 2u);
}

TEST(InHostLinksMutationTest, TruncatedTailWaitsWithoutCrashing) {
  // A partial frame (producer mid-write in a real deployment) is not an
  // error: the consumer simply does not see a message yet.
  InHostLinks links;
  links.reset(1, /*label_bits=*/8, /*capacity_bytes=*/1024);
  wire::Frame frame;
  wire::encode(Message::token(Label(7)), 0, frame);
  links.poke_raw(0, frame.data(), 5);  // first 5 bytes only
  EXPECT_EQ(links.peek(0), nullptr);
  EXPECT_EQ(links.depth(0), 0u);
  EXPECT_EQ(links.pending_bytes(0), 5u);
  EXPECT_EQ(links.rejects(0), 0u);  // incomplete != corrupt
  // The rest of the frame arrives: the message materializes.
  links.poke_raw(0, frame.data() + 5, frame.size() - 5);
  const Message* head = links.peek(0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, Message::token(Label(7)));
}

TEST(InHostRingMutationTest, ElectionSurvivesInjectedGarbage) {
  // Corrupted frames seeded into every link of a live ring: the workers'
  // decoders must reject them on arrival while the election elects over
  // the surviving traffic — containment, not just detection.
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 1, 5});
  InHostConfig config;
  config.pre_start_poke = [&](InHostLinks& links) {
    std::vector<std::uint8_t> garbage(wire::kFrameBytes, 0xEE);
    for (std::size_t port = 0; port < ring.size(); ++port) {
      links.poke_raw(port, garbage.data(), garbage.size());
    }
  };
  const auto result = run_inhost(
      ring, election::make_factory({AlgorithmId::kAk, 2, false}), config);
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_EQ(result.leader_pid(),
            std::optional<sim::ProcessId>(ring.true_leader()));
  EXPECT_EQ(result.wire_rejects, ring.size());  // one garbage frame per link
  EXPECT_EQ(result.messages_sent, result.messages_received);
}

TEST(InHostRingMutationTest, TruncatedStreamInjectionDoesNotWedgeTheRun) {
  // A trailing partial frame on one link (a crashed producer's last
  // write, in deployment terms): the consumer must treat it as
  // not-yet-a-message. The election completes; the run reports dirty
  // links honestly (the orphan bytes never become a message).
  const auto ring = ring::LabeledRing::from_values({2, 7, 1, 8});
  std::vector<std::uint8_t> half(7, 0x55);
  InHostConfig config;
  config.pre_start_poke = [&](InHostLinks& links) {
    links.poke_raw(0, half.data(), half.size());
  };
  const auto result = run_inhost(
      ring, election::make_factory({AlgorithmId::kChangRoberts, 1, false}),
      config);
  // The orphan 7 bytes shift port 0's stream off frame alignment: every
  // later frame on that port decodes as garbage and is dropped. The
  // runtime must neither crash nor hang — it ends via the watchdog (the
  // election cannot complete with a poisoned link) with rejects counted.
  EXPECT_NE(result.outcome, sim::Outcome::kTerminated);
  EXPECT_GT(result.wire_rejects, 0u);
}

}  // namespace
}  // namespace hring::runtime
