// The per-layer ledger of the traced run.
//
// Each probe drives one substrate through its public functions on inputs
// derived from the seed (sweep's first campaign, the in-host rings, the
// scalar-engine B_k rings, the model-checking family), with a fixed amount
// of work so that the exact counts (steps, messages, configurations, ...)
// repeat for a seed. Every probe operation goes through the correctness
// gate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Ledger {
  std::vector<Metric> metrics;
  /// Digest of every exact count the probes report (mc.*, sim.* totals,
  /// batch.steps_per_cell, campaign.messages_per_cell_p50).
  std::uint64_t counts_digest = 0;
};

/// Runs every layer probe with inputs derived from `seed`.
[[nodiscard]] Ledger run_ledger(std::uint64_t seed, Gate& gate,
                                Tracer& tracer);

}  // namespace perfbench
