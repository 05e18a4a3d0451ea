// Shared experiment plumbing: the paper's theorem bound formulas and a
// run-and-verify helper. This is the one table of bounds — the benches,
// the spec audit (paper_space_bound_bits), runtime conformance and the
// benchmark all read their ceilings from here, so they are compared
// against the paper the same way.
#pragma once

#include <cstdint>
#include <string>

#include "core/election_driver.hpp"
#include "core/verification.hpp"

namespace hring::core {

// -- Theorem 2 (A_k) ------------------------------------------------------
/// Time upper bound: (2k+2)·n time units.
[[nodiscard]] double ak_time_bound(std::size_t n, std::size_t k);
/// Message upper bound: n²(2k+1) + n.
[[nodiscard]] std::uint64_t ak_message_bound(std::size_t n, std::size_t k);
/// Space upper bound: (2k+1)·n·b + 2b + 3 bits per process.
[[nodiscard]] std::size_t ak_space_bound(std::size_t n, std::size_t k,
                                         std::size_t b);

// -- Theorem 4 (B_k) ------------------------------------------------------
/// Space bound: 2⌈log₂ k⌉ + 3b + 5 bits per process (exact, not just O(·)).
[[nodiscard]] std::size_t bk_space_bound(std::size_t k, std::size_t b);
/// Phase-count bound: X <= (k+1)·n.
[[nodiscard]] std::size_t bk_phase_bound(std::size_t n, std::size_t k);

// -- Lemma 1 / Corollary 2 ------------------------------------------------
/// Minimum synchronous steps of any U* ∩ K_k algorithm on a K_1 ring:
/// 1 + (k-2)·n (k >= 2).
[[nodiscard]] std::uint64_t lower_bound_steps(std::size_t n, std::size_t k);

/// One verified run: executes run_election and checks the terminal state.
/// True-leader conformance is required exactly when the algorithm is one
/// of the paper's (A_k/B_k).
struct Measurement {
  sim::RunResult result;
  VerificationReport verification;
  [[nodiscard]] bool ok() const { return verification.ok; }
};

[[nodiscard]] Measurement measure(const ring::LabeledRing& ring,
                                  const ElectionConfig& config);

}  // namespace hring::core
