// Batched stepping paths for the sweep engine (core/batch_engine.hpp).
//
// A batch algorithm holds the local state of every node of every ring in a
// batch as dense per-node planes — packed bit planes for the Booleans,
// flat label planes for the identifiers — instead of one heap-allocated
// Process per node. The guard/action logic mirrors the scalar Process
// implementations action for action (A1–A6, CR1–CR-halt), in the same
// order and through the same words:: machinery, so every statistic the
// engines collect — including the Label-comparison count — is
// byte-identical to a scalar run. That equivalence is enforced by the
// batch-vs-scalar cross-check grid in tests/integration/batch_engine_test.
//
// Only A_k and Chang–Roberts have batched paths; campaigns over the other
// algorithms fall back to the scalar ExecutionCore (core/campaign.hpp).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "election/algorithm.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/batch_link.hpp"
#include "sim/message.hpp"
#include "sim/stats.hpp"
#include "support/bitplane.hpp"
#include "words/periodicity.hpp"

namespace hring::election {

using sim::Label;
using sim::Message;
using sim::ProcessId;

/// Per-firing execution context of the batch engine: the accounting of the
/// scalar FireContext (sim/engine.hpp) without observers or fault
/// injection, over arena links instead of per-ring Link objects. It keeps
/// only the per-process and per-kind counters; the run totals they sum to
/// (messages sent/received, message bits) are derived once per cell when
/// the batch engine closes the slot's Stats.
class BatchFireContext {
 public:
  BatchFireContext(sim::Stats& stats, sim::LinkPlane& links,
                   std::size_t in_link, std::size_t out_link,
                   sim::ProcessId pid, const sim::Message* head)
      : stats_(stats),
        links_(links),
        in_link_(in_link),
        out_link_(out_link),
        pid_(pid),
        head_(head) {}

  // hring-lint: hot-path
  sim::Message consume() {
    HRING_EXPECTS(head_ != nullptr);  // guard matched a message
    HRING_EXPECTS(!consumed_);        // each message received exactly once
    consumed_ = true;
    const sim::Message msg = links_.pop(in_link_);
    // Raw-representation self-check, exactly as in the scalar engine: it
    // must not count toward the label-comparison statistic.
    HRING_ASSERT(msg.kind == head_->kind &&
                 msg.label.value() == head_->label.value());
    ++stats_.received_by_kind[sim::kind_index(msg.kind)];
    ++stats_.received_by_process[pid_];
    return msg;
  }

  // hring-lint: hot-path
  void send(const sim::Message& msg) {
    ++stats_.sent_by_kind[sim::kind_index(msg.kind)];
    ++stats_.sent_by_process[pid_];
    links_.send(out_link_, msg);
  }

  [[nodiscard]] bool consumed() const { return consumed_; }

 private:
  sim::Stats& stats_;
  sim::LinkPlane& links_;
  std::size_t in_link_;
  std::size_t out_link_;
  sim::ProcessId pid_;
  const sim::Message* head_;
  bool consumed_ = false;
};

/// The §II spec variables of every node in the batch, as planes. Shared by
/// the batched algorithms; the campaign verifier reads the terminal state
/// through it.
struct SpecPlanes {
  support::BitPlane init;       // algorithm INIT flag (A1/CR1 pending)
  support::BitPlane leader;     // isLeader
  support::BitPlane done;       // done
  support::BitPlane halted;     // halted
  support::BitPlane has_leader; // p.leader set
  std::vector<sim::Label> id;           // node labels, clockwise per slot
  std::vector<sim::Label> leader_label; // p.leader (valid iff has_leader)

  void reset(std::size_t nodes) {
    init.reset(nodes);
    leader.reset(nodes);
    done.reset(nodes);
    halted.reset(nodes);
    has_leader.reset(nodes);
    id.assign(nodes, sim::Label{});
    leader_label.assign(nodes, sim::Label{});
  }

  /// Rebinds the nodes [base, base + n) to a fresh ring: INIT set, every
  /// other variable cleared, labels copied clockwise.
  void reset_slot(std::size_t base, const ring::LabeledRing& ring) {
    for (std::size_t pid = 0; pid < ring.size(); ++pid) {
      const std::size_t g = base + pid;
      init.set(g);
      leader.clear(g);
      done.clear(g);
      halted.clear(g);
      has_leader.clear(g);
      id[g] = ring.label(pid);
      leader_label[g] = sim::Label{};
    }
  }
};

/// Chang–Roberts, batched. Node state is exactly the scalar
/// ChangRobertsProcess's: the spec variables plus the INIT flag — all of it
/// lives in the planes; fire() mirrors chang_roberts.cpp branch for branch.
class BatchChangRoberts {
 public:
  /// Arena sizing for `slots` rings of `n` nodes each; k is ignored
  /// (Chang–Roberts takes no parameter).
  void configure(std::size_t slots, std::size_t n,
                 const AlgorithmConfig& config);

  /// Binds `slot` to a fresh ring (ring.size() must equal n).
  void reset_slot(std::size_t slot, const ring::LabeledRing& ring);

  // hring-lint: hot-path
  [[nodiscard]] bool enabled(std::size_t g, const sim::Message* head) const {
    if (spec_.init.test(g)) return true;
    return head != nullptr;
  }

  void fire(std::size_t g, const sim::Message* head, BatchFireContext& ctx);

  // hring-lint: hot-path
  [[nodiscard]] std::size_t space_bits(std::size_t /*g*/,
                                       std::size_t label_bits) const {
    // Mirrors ChangRobertsProcess::space_bits: id + leader labels plus
    // INIT/isLeader/done Booleans. Constant, so never decreasing: the batch
    // engine reads the peak off the final configuration.
    return 2 * label_bits + 3;
  }

  [[nodiscard]] const SpecPlanes& spec() const { return spec_; }

 private:
  std::size_t n_ = 0;
  SpecPlanes spec_;
};

/// A_k (§IV), batched. The spec variables live in planes; the per-node
/// grown string keeps the scalar representation (words::IncrementalPeriod
/// plus the flat occurrence-count vector) in one arena vector, recycled
/// across cells with capacity kept — the same machinery AkProcess uses, so
/// the incremental, memoized Lyndon test credits the identical comparison
/// count.
class BatchAk {
 public:
  void configure(std::size_t slots, std::size_t n,
                 const AlgorithmConfig& config);

  void reset_slot(std::size_t slot, const ring::LabeledRing& ring);

  // hring-lint: hot-path
  [[nodiscard]] bool enabled(std::size_t g, const sim::Message* head) const {
    if (spec_.init.test(g)) return true;
    return head != nullptr;
  }

  void fire(std::size_t g, const sim::Message* head, BatchFireContext& ctx);

  // hring-lint: hot-path
  [[nodiscard]] std::size_t space_bits(std::size_t g,
                                       std::size_t label_bits) const {
    // Mirrors AkProcess::space_bits: |string| labels + p.id + p.leader +
    // 3 Booleans; the border array is a recomputable accelerator. The
    // string only grows within a run, so space never decreases: the batch
    // engine reads the peak off the final configuration.
    return (nodes_[g].string.size() + 2) * label_bits + 3;
  }

  [[nodiscard]] const SpecPlanes& spec() const { return spec_; }

 private:
  /// The growing part of one node's state; everything fixed-width lives in
  /// the planes.
  struct Node {
    words::IncrementalPeriod string;
    /// Occurrence count per label for the 2k+1 threshold — the same flat
    /// layout as AkProcess::counts_ (raw-value comparisons, uncounted).
    std::vector<std::pair<sim::Label::rep_type, std::size_t>> counts;
    std::size_t max_count = 0;
  };

  [[nodiscard]] std::size_t& count_slot(Node& node,
                                        sim::Label::rep_type value);
  /// Mirrors AkProcess::append_and_test — identical order of operations.
  [[nodiscard]] bool append_and_test(Node& node, sim::Label x);

  std::size_t n_ = 0;
  std::size_t k_ = 1;
  SpecPlanes spec_;
  std::vector<Node> nodes_;
};

}  // namespace hring::election
