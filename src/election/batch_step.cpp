#include "election/batch_step.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace hring::election {

// ---------------------------------------------------------------------------
// Chang–Roberts

void BatchChangRoberts::configure(std::size_t slots, std::size_t n,
                                  const AlgorithmConfig& config) {
  HRING_EXPECTS(config.id == AlgorithmId::kChangRoberts);
  n_ = n;
  spec_.reset(slots * n);
}

void BatchChangRoberts::reset_slot(std::size_t slot,
                                   const ring::LabeledRing& ring) {
  HRING_EXPECTS(ring.size() == n_);
  spec_.reset_slot(slot * n_, ring);
}

// hring-lint: hot-path
void BatchChangRoberts::fire(std::size_t g, const sim::Message* head,
                             BatchFireContext& ctx) {
  if (spec_.init.test(g)) {
    // CR1
    spec_.init.clear(g);
    ctx.send(sim::Message::token(spec_.id[g]));
    return;
  }
  HRING_EXPECTS(head != nullptr);
  switch (head->kind) {
    case sim::MsgKind::kToken: {
      const Label x = ctx.consume().label;
      if (spec_.leader.test(g)) {
        // CR-drain: leftover candidates are swallowed by the elected leader.
        return;
      }
      if (x > spec_.id[g]) {
        // CR-forward
        ctx.send(sim::Message::token(x));
      } else if (x == spec_.id[g]) {
        // CR-elect: our candidate survived a full loop.
        spec_.leader.set(g);
        spec_.leader_label[g] = spec_.id[g];
        spec_.has_leader.set(g);
        spec_.done.set(g);
        ctx.send(sim::Message::finish_label(spec_.id[g]));
      }
      // else CR-swallow: a smaller candidate dies here.
      return;
    }
    case sim::MsgKind::kFinishLabel: {
      const Label x = ctx.consume().label;
      if (spec_.leader.test(g)) {
        // CR-halt
        spec_.halted.set(g);
      } else {
        // CR-learn
        spec_.leader_label[g] = x;
        spec_.has_leader.set(g);
        spec_.done.set(g);
        ctx.send(sim::Message::finish_label(x));
        spec_.halted.set(g);
      }
      return;
    }
    default:
      HRING_ASSERT(false);  // no other kinds are ever sent
  }
}

// ---------------------------------------------------------------------------
// A_k

void BatchAk::configure(std::size_t slots, std::size_t n,
                        const AlgorithmConfig& config) {
  HRING_EXPECTS(config.id == AlgorithmId::kAk);
  HRING_EXPECTS(config.k >= 1);
  n_ = n;
  k_ = config.k;
  spec_.reset(slots * n);
  // Growing the node vector default-constructs fresh strings; shrink never
  // happens, so recycled slots keep their buffer capacity.
  if (nodes_.size() < slots * n) nodes_.resize(slots * n);
}

void BatchAk::reset_slot(std::size_t slot, const ring::LabeledRing& ring) {
  HRING_EXPECTS(ring.size() == n_);
  spec_.reset_slot(slot * n_, ring);
  for (std::size_t pid = 0; pid < n_; ++pid) {
    Node& node = nodes_[slot * n_ + pid];
    node.string.clear();
    node.counts.clear();
    node.max_count = 0;
  }
}

// hring-lint: hot-path
std::size_t& BatchAk::count_slot(Node& node, sim::Label::rep_type value) {
  for (auto& [label, count] : node.counts) {
    if (label == value) return count;
  }
  node.counts.emplace_back(value, 0);
  return node.counts.back().second;
}

// hring-lint: hot-path
bool BatchAk::append_and_test(Node& node, sim::Label x) {
  node.string.push_back(x);
  node.max_count = std::max(node.max_count, ++count_slot(node, x.value()));
  if (node.max_count < 2 * k_ + 1) return false;
  const std::size_t period = node.string.period();
  const std::size_t sub = node.string.prefix_period(period);
  if (sub < period && period % sub == 0) return false;  // symmetric prefix
  return node.string.period_least_rotation() == 0;
}

// hring-lint: hot-path
void BatchAk::fire(std::size_t g, const sim::Message* head,
                   BatchFireContext& ctx) {
  if (spec_.init.test(g)) {
    // A1: p.INIT <- FALSE, p.string <- p.id, send ⟨p.id⟩.
    spec_.init.clear(g);
    const bool elected_immediately = append_and_test(nodes_[g], spec_.id[g]);
    HRING_ASSERT(!elected_immediately);  // needs 2k+1 >= 3 copies
    ctx.send(sim::Message::token(spec_.id[g]));
    return;
  }
  HRING_EXPECTS(head != nullptr);
  if (head->kind == sim::MsgKind::kToken) {
    const sim::Message msg = ctx.consume();
    if (spec_.leader.test(g)) {
      // A5: the leader swallows circulating tokens.
      return;
    }
    if (!append_and_test(nodes_[g], msg.label)) {
      // A2: grow the string, forward the token.
      ctx.send(sim::Message::token(msg.label));
    } else {
      // A3: Leader(p.string . x) holds — elect self, flood ⟨FINISH⟩.
      spec_.leader.set(g);
      spec_.leader_label[g] = spec_.id[g];
      spec_.has_leader.set(g);
      spec_.done.set(g);
      ctx.send(sim::Message::finish());
    }
    return;
  }
  HRING_EXPECTS(head->kind == sim::MsgKind::kFinish);
  ctx.consume();
  if (!spec_.leader.test(g)) {
    // A4: learn the leader's label from the grown string and halt.
    words::IncrementalPeriod& grown = nodes_[g].string;
    spec_.leader_label[g] = grown.sequence()[grown.period_least_rotation()];
    spec_.has_leader.set(g);
    spec_.done.set(g);
    ctx.send(sim::Message::finish());
    spec_.halted.set(g);
  } else {
    // A6: ⟨FINISH⟩ returned to the leader — the execution is over.
    spec_.halted.set(g);
  }
}

}  // namespace hring::election
