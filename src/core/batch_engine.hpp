// Batched step engine: many small-n elections per arena.
//
// The scalar StepEngine runs one ring at a time over heap-allocated
// Process objects. A campaign runs millions of small rings, where the
// per-cell fixed costs (process construction, engine rebinding, scheduler
// allocation) dominate the handful of microseconds the election itself
// takes. BatchRunner amortizes them away: it packs `slots` rings of n
// nodes into one arena — bit/label planes for node state (BitPlane,
// SpecPlanes), one LinkPlane for every link of every ring, one flat age
// plane — and recycles each slot for the next cell once its election
// completes. No per-node heap objects, no virtual dispatch on the stepping
// path, no allocation after the arena warms up.
//
// Slot-major stepping, warm lent arenas. step_all runs each active slot to
// termination, deadlock or budget before it moves to the next one, so a
// cell's state stays in cache for its whole run and the thread-local
// Label-comparison counter is read once per cell. `slots` is therefore the
// number of cells a worker binds per refill, not an interleaving width.
// Under the synchronous daemon every enabled process fires, so no age ever
// leaves 0: that step fires the enabled list directly, without the
// selection, sort and aging passes of the other daemons. Run totals
// (messages sent/received, message bits, peak space) are derived once per
// cell from the per-process and per-kind counters the firings keep. A
// runner's storage outlives its campaign: configure() re-arms it without
// freeing anything, and run_campaign lends its workers runners recycled on
// the calling thread (core/campaign.cpp). On the A_k k=2 n=12 `sweep`
// benchmark this took a 4-worker campaign from 106.8k to 147.6k
// elections/s (median of ten 10 s pairs, 4-vCPU Xeon KVM guest, GCC 12.2
// Release; DESIGN §4c).
//
// Semantics are the scalar engine's, mirrored exactly: the same enabled
// set construction, fairness forcing, scheduler selection (BatchScheduler
// embeds the same concrete scheduler types by value) and firing-order
// rules as StepEngine::step_once, over batch algorithms
// (election/batch_step.hpp) whose actions mirror the scalar processes.
// Per-cell Stats are byte-identical to a scalar run of the same
// (ring, config, seed) — the batch-vs-scalar cross-check grid in
// tests/integration/batch_engine_test enforces it field by field,
// including the Label-comparison count and cells cut short by the budget.
//
// One BatchRunner is single-threaded; campaign workers each borrow one
// (core/campaign.cpp) and pull cells from a shared CellQueue.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/election_driver.hpp"
#include "election/batch_step.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/batch_link.hpp"
#include "sim/run_result.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace hring::core {

/// The step-engine schedulers, embedded by value and tag-dispatched — a
/// recycled slot re-seeds its scheduler without touching the allocator
/// (make_scheduler, by contrast, heap-allocates one per run).
class BatchScheduler {
 public:
  /// Re-arms the scheduler for a new cell; mirrors make_scheduler's
  /// construction (including RandomSubset's p = 0.5).
  void reset(SchedulerKind kind, std::uint64_t seed) {
    kind_ = kind;
    switch (kind) {
      case SchedulerKind::kSynchronous:
      case SchedulerKind::kConvoy:
        break;  // stateless
      case SchedulerKind::kRoundRobin:
        round_robin_ = sim::RoundRobinScheduler();
        break;
      case SchedulerKind::kRandomSingle:
        random_single_ = sim::RandomSingleScheduler(support::Rng(seed));
        break;
      case SchedulerKind::kRandomSubset:
        random_subset_ =
            sim::RandomSubsetScheduler(support::Rng(seed), 0.5);
        break;
    }
  }

  /// The selecting daemons only: under kSynchronous, BatchRunner fires
  /// every enabled process without a selection.
  // hring-lint: hot-path
  void select(const std::vector<sim::ProcessId>& enabled,
              std::vector<sim::ProcessId>& out) {
    switch (kind_) {
      case SchedulerKind::kSynchronous:
        break;
      case SchedulerKind::kRoundRobin:
        round_robin_.select(enabled, out);
        return;
      case SchedulerKind::kRandomSingle:
        random_single_.select(enabled, out);
        return;
      case SchedulerKind::kRandomSubset:
        random_subset_.select(enabled, out);
        return;
      case SchedulerKind::kConvoy:
        convoy_.select(enabled, out);
        return;
    }
    HRING_ASSERT(false);
  }

 private:
  SchedulerKind kind_ = SchedulerKind::kSynchronous;
  sim::RoundRobinScheduler round_robin_;
  sim::RandomSingleScheduler random_single_{support::Rng(0)};
  sim::RandomSubsetScheduler random_subset_{support::Rng(0), 0.5};
  sim::ConvoyScheduler convoy_;
};

/// Completed cell, reported by BatchRunner::step_all. `stats` points into
/// the runner and stays valid until the producing slot is re-activated.
struct BatchCellResult {
  std::size_t cell = 0;
  sim::Outcome outcome = sim::Outcome::kDeadlock;
  std::optional<sim::ProcessId> leader;
  bool verified = false;
  const sim::Stats* stats = nullptr;
};

/// Arena-wide configuration; every cell of a campaign shares it.
struct BatchConfig {
  std::size_t slots = 64;
  /// Ring size — fixed across the batch (campaigns sweep seeds, not n).
  std::size_t n = 0;
  election::AlgorithmConfig algorithm;
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  std::uint64_t budget = 10'000'000;
  std::size_t fairness_bound = 128;  // sim::StepConfig's default
  /// Check the terminal configuration (§II bullets) per cell.
  bool verify = true;
  /// With verify: also require the elected process to be the precomputed
  /// expected leader passed to activate().
  bool check_true_leader = false;
};

template <class Algo>
class BatchRunner {
 public:
  void configure(const BatchConfig& config);

  /// Binds a free slot to cell `cell` over `ring` (size must equal
  /// config.n), with the cell's election seed. `expected_leader` is the
  /// true leader to verify against (ignored unless check_true_leader).
  void activate(std::size_t cell, const ring::LabeledRing& ring,
                std::uint64_t election_seed,
                std::optional<sim::ProcessId> expected_leader);

  [[nodiscard]] std::size_t free_slots() const { return free_.size(); }
  [[nodiscard]] bool has_active() const { return active_count_ > 0; }

  /// Runs every active slot to termination, deadlock or budget, one slot
  /// after the other. Each completed cell is appended to `done` (not
  /// cleared here) and its slot freed, so no slot is active afterwards;
  /// drain `done` before the next activate() — each result's `stats`
  /// pointer is valid only until its slot is re-activated.
  void step_all(std::vector<BatchCellResult>& done);

 private:
  struct Slot {
    bool active = false;
    std::size_t cell = 0;
    std::size_t label_bits = 0;
    sim::Stats stats;
    BatchScheduler scheduler;
    std::optional<sim::ProcessId> expected_leader;
  };

  [[nodiscard]] std::size_t in_link(std::size_t slot,
                                    sim::ProcessId pid) const {
    return slot * n_ + (pid == 0 ? n_ - 1 : pid - 1);
  }
  [[nodiscard]] std::size_t out_link(std::size_t slot,
                                     sim::ProcessId pid) const {
    return slot * n_ + pid;
  }

  /// Mirrors StepEngine::run for one slot: steps it until no process is
  /// enabled or the budget is spent, then closes the cell.
  [[nodiscard]] BatchCellResult run_slot(std::size_t s);

  /// Mirrors StepEngine::step_once for one slot; false when no process is
  /// enabled (terminal or deadlock).
  [[nodiscard]] bool step_slot(std::size_t s);

  /// Fires enabled process `pid` of slot `s`.
  void fire_one(std::size_t s, sim::ProcessId pid);

  /// True iff slot `s` halted cleanly: all nodes halted, all links empty.
  [[nodiscard]] bool slot_is_clean(std::size_t s) const;

  /// Closes the slot's statistics and verifies the terminal configuration;
  /// mirrors make_result + verify_election.
  [[nodiscard]] BatchCellResult finish_slot(std::size_t s, std::uint64_t steps,
                                            sim::Outcome outcome);

  BatchConfig config_;
  std::size_t n_ = 0;
  Algo algo_;
  sim::LinkPlane links_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> age_;  // slots * n, same indexing as planes
  std::vector<std::size_t> free_;   // free slot indices (LIFO)
  std::size_t active_count_ = 0;
  // Shared scratch for the per-slot enabled/chosen sets (one runner is
  // single-threaded, so one pair serves every slot).
  std::vector<sim::ProcessId> enabled_buf_;
  std::vector<sim::ProcessId> chosen_buf_;
};

using BatchAkRunner = BatchRunner<election::BatchAk>;
using BatchChangRobertsRunner = BatchRunner<election::BatchChangRoberts>;

extern template class BatchRunner<election::BatchAk>;
extern template class BatchRunner<election::BatchChangRoberts>;

}  // namespace hring::core
