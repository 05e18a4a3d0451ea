// The benchmark's closed-loop workloads, their seeded inputs, and the
// input and check helpers the per-layer ledger (ledger.hpp) shares.
//
// Each workload drives one substrate through the library's public entry
// points, one operation at a time (the caller waits for each operation
// before issuing the next):
//
//   sweep   core::run_campaign, A_k k=2, random asymmetric n=12 rings,
//           batch backend (kAuto), fixed worker count
//   inhost  runtime::run_inhost, A_k k=2, random asymmetric n=8 rings,
//           trace recording off, flight recorder detached
//
// The scalar step engine (B_k k=3 on random asymmetric n=16 rings,
// random-subset scheduler, library defaults) and the model checker (A_k
// and B_k on every canonical asymmetric binary ring of size 7) are
// measured by the ledger only: their end-to-end times drifted too much
// between runs on a shared host to gate on (see README.md).
//
// Inputs are generated from the seed before timing starts. Every
// operation is checked (Gate) and a failed check is a failed operation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"
#include "core/model_checker.hpp"
#include "ring/labeled_ring.hpp"
#include "runtime/inhost/inhost_ring.hpp"
#include "sim/engine.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Per-operation correctness gate: counts attempted and failed operations
/// and keeps the first few failure messages for the report.
class Gate {
 public:
  /// Records one operation; `errors` empty means it passed.
  void record(const std::vector<std::string>& errors) {
    ++attempted_;
    if (errors.empty()) return;
    ++failed_;
    for (const std::string& e : errors) {
      if (messages_.size() < 8) messages_.push_back(e);
    }
  }

  /// Records one operation that passed iff `ok`.
  void check(bool ok, const std::string& what) {
    record(ok ? std::vector<std::string>{} : std::vector<std::string>{what});
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// -- Workload constants ---------------------------------------------------

inline constexpr std::size_t kSweepN = 12;
inline constexpr std::size_t kSweepK = 2;
inline constexpr std::size_t kSweepCellsPerCampaign = 2048;
inline constexpr std::size_t kSweepCampaigns = 48;
/// Campaign workers: four, capped at the host's hardware concurrency. On a
/// four-core host two workers were bimodal (one campaign ran at 1x, the
/// next at 2.5x of one worker) while four ran within a few percent.
[[nodiscard]] std::size_t sweep_workers();

inline constexpr std::size_t kSimN = 16;
inline constexpr std::size_t kSimK = 3;

inline constexpr std::size_t kInhostN = 8;
inline constexpr std::size_t kInhostK = 2;
inline constexpr std::size_t kInhostInputs = 512;

inline constexpr std::size_t kModelCheckN = 7;

/// The ring alphabet run_campaign uses for random asymmetric rings when
/// none is given: ceil(n/k) + 2.
[[nodiscard]] constexpr std::size_t default_alphabet(std::size_t n,
                                                     std::size_t k) {
  return (n + k - 1) / k + 2;
}

// -- Seeded inputs ----------------------------------------------------------

/// One ring with what an operation on it is checked against.
struct RingInput {
  hring::ring::LabeledRing ring;
  std::uint64_t election_seed = 0;
  hring::sim::ProcessId leader = 0;  // ring.true_leader()
  std::size_t space_bound_bits = 0;  // Theorem 2 (A_k) or 4 (B_k)
  std::uint64_t message_bound = 0;   // Theorem 2 (A_k); 0 when unused
};

/// The scalar-engine election configuration for one input (B_k k=3,
/// random-subset scheduler, library defaults).
[[nodiscard]] hring::core::ElectionConfig sim_config(
    std::uint64_t election_seed);
/// The runtime configuration of `inhost`.
[[nodiscard]] hring::runtime::InHostConfig inhost_config();
/// The base campaign configuration of `sweep` (seed and cells set per call).
[[nodiscard]] hring::core::SweepConfig sweep_config(std::size_t cells);
/// Campaign seeds of `sweep`, one per operation.
[[nodiscard]] std::vector<std::uint64_t> sweep_seeds(std::uint64_t seed);
/// The first `count` scalar-engine (B_k) / `inhost` inputs for `seed`.
[[nodiscard]] std::vector<RingInput> sim_inputs(std::uint64_t seed,
                                                std::size_t count,
                                                Tracer* tracer);
[[nodiscard]] std::vector<RingInput> inhost_inputs(std::uint64_t seed,
                                                   std::size_t count,
                                                   Tracer* tracer);
/// enumerate_rings(7, 2, asymmetric, canonical), in a seed-chosen order.
[[nodiscard]] std::vector<hring::ring::LabeledRing> modelcheck_family(
    std::uint64_t seed);

/// Checks of one run_election result against its input (terminated,
/// verify_election, true leader, B_k space bound).
[[nodiscard]] std::vector<std::string> check_election(
    const RingInput& input, const hring::sim::RunResult& result,
    Tracer* tracer);
/// check_election on the in-host result, plus zero wire rejects and zero
/// abandoned sends.
[[nodiscard]] std::vector<std::string> check_inhost(
    const RingInput& input, const hring::runtime::InHostResult& result,
    Tracer* tracer);
/// Exhaustive and violation-free.
[[nodiscard]] std::vector<std::string> check_report(
    const hring::core::ModelCheckReport& report);

// -- Workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed`; returns a digest of them.
  virtual std::uint64_t generate(std::uint64_t seed, Tracer* tracer) = 0;
  /// Work done once before timing so caches and lazy set-up are warm.
  virtual void warm_up(Gate& gate) = 0;
  /// Operations in one pass over the inputs.
  [[nodiscard]] virtual std::size_t family_size() const = 0;
  /// Elections one operation completes.
  [[nodiscard]] virtual std::size_t elections_per_op() const { return 1; }
  /// Runs operation `i` (< family_size()) and records it in `gate`.
  virtual void run(std::size_t i, Gate& gate, Tracer* tracer) = 0;
};

/// The workload named `name`, or nullptr.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name);

/// Order-sensitive 64-bit digest (splitmix64 chaining).
class Digest {
 public:
  void add(std::uint64_t v);
  void add(const hring::ring::LabeledRing& ring);
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x6A09E667F3BCC908ULL;
};

}  // namespace perfbench
