// Dynamic §II model-conformance auditor.
//
// The engines trust a Process to be a guarded-action program of the model:
// deterministic, local (a firing reads and writes only the firing
// process's own variables), exchanging O(b)-bit messages over FIFO links,
// and — for A_k and B_k — staying inside the space bounds of Theorems 2
// and 4. Nothing enforces that trust: a Process is arbitrary C++.
// audit_algorithm() closes the gap by instrumenting real runs and checking
// each obligation dynamically:
//
//   [replay]        the same delivery sequence executed twice produces an
//                   identical transition log (pid, action, consumed
//                   message, sent messages per firing);
//   [locality]      no firing changes any other process's observable state
//                   (state hashes of all n-1 bystanders are compared
//                   across every firing);
//   [message-width] every sent payload fits in the ring's b label bits —
//                   the model's messages carry labels of the ring, not
//                   arbitrary integers;
//   [send-burst]    a single firing sends at most a small constant number
//                   of messages (§II statements are straight-line; every
//                   algorithm of the paper sends <= 2 per firing);
//   [fifo]          the receive sequence on every link is exactly the send
//                   sequence of its producer, reconstructed independently
//                   of the engine's own queues;
//   [space]         peak space_bits stays within the paper's bound —
//                   (2k+1)·n·b + 2b + 3 for A_k (Theorem 2),
//                   2⌈log k⌉ + 3b + 5 for B_k (Theorem 4);
//   [spec]          the §II election specification (SpecMonitor);
//   [termination]   the run reaches a clean terminal configuration.
//
// A report with ok() == false names every violated obligation; mock
// algorithms that break locality or message bounds are rejected (see
// tests/integration/spec_audit_test.cpp for the negative fixtures).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/election_driver.hpp"
#include "election/algorithm.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"
#include "sim/run_result.hpp"

namespace hring::core {

struct SpecAuditConfig {
  /// Daemon driving the audited runs. Any kind works: the randomized ones
  /// are seeded, so the replay check still sees identical schedules.
  SchedulerKind scheduler = SchedulerKind::kRandomSubset;
  std::uint64_t seed = 1;
  /// When set, overrides `scheduler`/`seed`: every audited run gets a
  /// fresh scheduler from this factory. The conformance harness passes
  /// ReplayScheduler factories here, so the auditor's checks run over a
  /// schedule linearized from a real concurrent execution. The factory
  /// must produce identically-behaving schedulers on every call (the
  /// replay check runs twice).
  std::function<std::unique_ptr<sim::Scheduler>()> scheduler_factory;
  /// Step budget per audited run.
  std::uint64_t max_steps = 1'000'000;
  /// Step-engine fairness bound. Replay audits must set this above the
  /// schedule length: force-including an aged process would diverge from
  /// the recorded schedule (the recorded run already was fair).
  std::size_t fairness_bound = 128;
  /// [send-burst] bound on messages per firing.
  std::size_t max_sends_per_firing = 4;
  /// Individual checks; all on by default.
  bool check_replay = true;
  bool check_locality = true;
  bool check_message_width = true;
  bool check_fifo = true;
  bool check_space_bound = true;
  /// Require Outcome::kTerminated (off when auditing deliberately
  /// non-terminating fixtures).
  bool require_termination = true;
};

struct SpecAuditReport {
  /// Violations, each prefixed with its check name ("[locality] ...").
  std::vector<std::string> violations;
  sim::Outcome outcome = sim::Outcome::kDeadlock;
  std::uint64_t firings = 0;
  std::uint64_t messages = 0;
  /// Peak process space observed / the paper bound it was checked against
  /// (unset for algorithms the paper states no bound for).
  std::size_t peak_space_bits = 0;
  std::optional<std::size_t> space_bound_bits;
  /// Widest message observed / the model's cap (tag + b payload bits).
  std::size_t peak_message_bits = 0;
  std::size_t message_bits_bound = 0;
  /// True when the second (replay) run actually executed.
  bool replay_ran = false;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// "ok: 57 firings, 31 msgs, space 23/23 bits" — one-line rendering.
  [[nodiscard]] std::string summary() const;
};

/// Space bound the paper promises for `algorithm` on an n-process ring
/// with b-bit labels: ak_space_bound (Theorem 2) for A_k, bk_space_bound
/// (Theorem 4) for B_k — core/experiment.hpp holds the formulas. nullopt
/// for the baselines (the paper states no bound for them).
[[nodiscard]] std::optional<std::size_t> paper_space_bound_bits(
    const election::AlgorithmConfig& algorithm, std::size_t n,
    std::size_t b);

/// Audits one registered algorithm on `ring`. The space bound is derived
/// from the paper's theorems via paper_space_bound_bits().
[[nodiscard]] SpecAuditReport audit_algorithm(
    const ring::LabeledRing& ring,
    const election::AlgorithmConfig& algorithm,
    const SpecAuditConfig& config = {});

/// Audits an arbitrary process factory (mocks, prototypes) against an
/// optional explicit space bound in bits.
[[nodiscard]] SpecAuditReport audit_factory(
    const ring::LabeledRing& ring, const sim::ProcessFactory& factory,
    const SpecAuditConfig& config = {},
    std::optional<std::size_t> space_bound_bits = std::nullopt);

}  // namespace hring::core
