#include "core/batch_engine.hpp"

#include "words/label.hpp"

namespace hring::core {

template <class Algo>
void BatchRunner<Algo>::configure(const BatchConfig& config) {
  HRING_EXPECTS(config.slots >= 1);
  HRING_EXPECTS(config.n >= 1);
  config_ = config;
  n_ = config.n;
  algo_.configure(config.slots, n_, config.algorithm);
  links_.reset(config.slots * n_);
  // Resize, don't clear: a recycled runner keeps every slot's Stats
  // vectors. An exception between activate() and step_all() (a cell ring
  // that failed to generate mid-refill) leaves slots bound, so every slot
  // is re-armed as free.
  slots_.resize(config.slots);
  for (Slot& slot : slots_) slot.active = false;
  age_.assign(config.slots * n_, 0);
  free_.clear();
  // LIFO free list, lowest slot on top: a lightly loaded runner keeps
  // re-using the same few slots (warm caches) instead of striding the
  // whole arena.
  for (std::size_t s = config.slots; s-- > 0;) free_.push_back(s);
  active_count_ = 0;
  enabled_buf_.reserve(n_);
  chosen_buf_.reserve(n_);
}

template <class Algo>
void BatchRunner<Algo>::activate(std::size_t cell,
                                 const ring::LabeledRing& ring,
                                 std::uint64_t election_seed,
                                 std::optional<sim::ProcessId> expected_leader) {
  HRING_EXPECTS(!free_.empty());
  HRING_EXPECTS(ring.size() == n_);
  const std::size_t s = free_.back();
  free_.pop_back();
  ++active_count_;

  Slot& slot = slots_[s];
  slot.active = true;
  slot.cell = cell;
  slot.label_bits = ring.label_bits();
  slot.stats.reset(n_);
  slot.scheduler.reset(config_.scheduler, election_seed);
  slot.expected_leader = expected_leader;

  algo_.reset_slot(s, ring);
  const std::size_t base = s * n_;
  for (std::size_t pid = 0; pid < n_; ++pid) {
    links_.reset_link(base + pid);
    age_[base + pid] = 0;
  }
}

// hring-lint: hot-path
template <class Algo>
void BatchRunner<Algo>::fire_one(std::size_t s, sim::ProcessId pid) {
  const std::size_t g = s * n_ + pid;
  // Recompute the head: an earlier firing in this step may have changed
  // the in-link — but only by appending, never by popping another
  // process's head, so the head seen here is the one γ prescribes
  // (same argument as StepEngine::step_once).
  const sim::Message* head = links_.peek(in_link(s, pid));
  HRING_ASSERT(!algo_.spec().halted.test(g));
  HRING_ASSERT(algo_.enabled(g, head));
  election::BatchFireContext ctx(slots_[s].stats, links_, in_link(s, pid),
                                 out_link(s, pid), pid, head);
  algo_.fire(g, head, ctx);
}

// hring-lint: hot-path
template <class Algo>
bool BatchRunner<Algo>::step_slot(std::size_t s) {
  Slot& slot = slots_[s];
  const std::size_t base = s * n_;
  const bool synchronous = config_.scheduler == SchedulerKind::kSynchronous;

  enabled_buf_.clear();
  for (sim::ProcessId pid = 0; pid < n_; ++pid) {
    const std::size_t g = base + pid;
    const sim::Message* head = links_.peek(in_link(s, pid));
    if (!algo_.spec().halted.test(g) && algo_.enabled(g, head)) {
      enabled_buf_.push_back(pid);
    } else if (!synchronous) {
      age_[g] = 0;
    }
  }
  if (enabled_buf_.empty()) return false;

  if (synchronous) {
    // The synchronous daemon selects every enabled process, so none is
    // ever skipped and every age stays 0: fire the enabled list, already
    // in ascending pid order, as it stands.
    for (const sim::ProcessId pid : enabled_buf_) fire_one(s, pid);
    slot.stats.actions += enabled_buf_.size();
    return true;
  }

  chosen_buf_.clear();
  for (const sim::ProcessId pid : enabled_buf_) {
    if (age_[base + pid] >= config_.fairness_bound) {
      chosen_buf_.push_back(pid);
    }
  }
  slot.scheduler.select(enabled_buf_, chosen_buf_);
  std::sort(chosen_buf_.begin(), chosen_buf_.end());
  chosen_buf_.erase(std::unique(chosen_buf_.begin(), chosen_buf_.end()),
                    chosen_buf_.end());
  HRING_ASSERT(!chosen_buf_.empty());

  for (const sim::ProcessId pid : chosen_buf_) {
    fire_one(s, pid);
    age_[base + pid] = 0;
  }
  slot.stats.actions += chosen_buf_.size();
  // Age the enabled-but-skipped processes: one merge pass over the two
  // ascending sets (same pass as StepEngine::step_once).
  std::size_t c = 0;
  for (const sim::ProcessId pid : enabled_buf_) {
    if (c < chosen_buf_.size() && chosen_buf_[c] == pid) {
      ++c;
    } else {
      ++age_[base + pid];
    }
  }
  HRING_ASSERT(c == chosen_buf_.size());  // chosen ⊆ enabled
  return true;
}

template <class Algo>
bool BatchRunner<Algo>::slot_is_clean(std::size_t s) const {
  const std::size_t base = s * n_;
  for (std::size_t pid = 0; pid < n_; ++pid) {
    if (!algo_.spec().halted.test(base + pid)) return false;
  }
  for (std::size_t pid = 0; pid < n_; ++pid) {
    if (!links_.empty(base + pid)) return false;
  }
  return true;
}

template <class Algo>
BatchCellResult BatchRunner<Algo>::finish_slot(std::size_t s,
                                               std::uint64_t steps,
                                               sim::Outcome outcome) {
  Slot& slot = slots_[s];
  const std::size_t base = s * n_;
  const election::SpecPlanes& spec = algo_.spec();

  // Close the statistics (make_result's epilogue). The firings kept only
  // the per-process and per-kind counters; the totals the scalar engine
  // adds up per firing are their sums. A batch node's space never
  // decreases within a run, so the peak over time is the final maximum
  // (which covers the initial-space accounting of ExecutionCore::begin_run
  // too).
  sim::Stats& stats = slot.stats;
  stats.steps = steps;
  stats.time_units = static_cast<double>(steps);
  for (std::size_t pid = 0; pid < n_; ++pid) {
    stats.messages_sent += stats.sent_by_process[pid];
    stats.messages_received += stats.received_by_process[pid];
    stats.peak_space_bits = std::max(
        stats.peak_space_bits, algo_.space_bits(base + pid, slot.label_bits));
    stats.peak_link_occupancy =
        std::max(stats.peak_link_occupancy, links_.high_water(base + pid));
  }
  for (std::size_t kind = 0; kind < sim::kNumMsgKinds; ++kind) {
    const sim::Message of_kind{static_cast<sim::MsgKind>(kind), sim::Label{}};
    stats.message_bits_sent += stats.sent_by_kind[kind] *
                               sim::message_bits(of_kind, slot.label_bits);
  }

  BatchCellResult result;
  result.cell = slot.cell;
  result.outcome = outcome;
  result.stats = &stats;

  std::size_t leaders = 0;
  for (std::size_t pid = 0; pid < n_; ++pid) {
    if (spec.leader.test(base + pid)) {
      ++leaders;
      result.leader = pid;
    }
  }
  if (leaders != 1) result.leader.reset();

  if (config_.verify) {
    // Terminal-configuration checks, mirroring verify_election (raw label
    // compares: engine self-checks never count toward the statistic).
    bool ok = outcome == sim::Outcome::kTerminated && leaders == 1;
    if (ok) {
      const sim::Label leader_label = spec.id[base + *result.leader];
      for (std::size_t pid = 0; ok && pid < n_; ++pid) {
        const std::size_t g = base + pid;
        ok = spec.done.test(g) && spec.halted.test(g) &&
             spec.has_leader.test(g) &&
             spec.leader_label[g].value() == leader_label.value();
      }
      if (ok && config_.check_true_leader) {
        ok = slot.expected_leader.has_value() &&
             *result.leader == *slot.expected_leader;
      }
    }
    result.verified = ok;
  }

  slot.active = false;
  --active_count_;
  free_.push_back(s);
  return result;
}

// hring-lint: hot-path
template <class Algo>
BatchCellResult BatchRunner<Algo>::run_slot(std::size_t s) {
  // The slot runs uninterrupted from its first step to its last, so the
  // thread-local comparison counter's delta over the run is the cell's
  // count.
  const std::uint64_t comparisons_before = sim::Label::comparison_count();
  std::uint64_t steps = 0;
  sim::Outcome outcome = sim::Outcome::kBudgetExhausted;
  for (; steps < config_.budget; ++steps) {
    if (!step_slot(s)) {
      outcome = slot_is_clean(s) ? sim::Outcome::kTerminated
                                 : sim::Outcome::kDeadlock;
      break;
    }
  }
  slots_[s].stats.label_comparisons =
      sim::Label::comparison_count() - comparisons_before;
  return finish_slot(s, steps, outcome);
}

// hring-lint: hot-path
template <class Algo>
void BatchRunner<Algo>::step_all(std::vector<BatchCellResult>& done) {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].active) done.push_back(run_slot(s));
  }
}

template class BatchRunner<election::BatchAk>;
template class BatchRunner<election::BatchChangRoberts>;

}  // namespace hring::core
