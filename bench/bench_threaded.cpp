// Experiment E15 (extension) — the algorithms on real OS threads.
//
// The threaded runtime provides genuine asynchrony (one thread per
// process, blocking FIFO channels). Repeated runs per cell check that
// every OS interleaving elects the true leader, and the table compares
// wall-clock against the step engine on the same rings — quantifying what
// the simulation abstracts away (scheduling, cache traffic, wakeups).
#include <chrono>
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/election_driver.hpp"
#include "ring/generator.hpp"
#include "runtime/threaded_ring.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace hring;
  const auto [format, smoke] = benchutil::parse_options(argc, argv);
  using Clock = std::chrono::steady_clock;

  const int kRuns = smoke ? 2 : 5;
  if (format != benchutil::Format::kJson) {
    std::cout << "E15: threaded runtime vs step engine (" << kRuns
              << " runs per cell)\n\n";
  }
  support::Table table({"algo", "n", "k", "threaded ms/run", "sim ms/run",
                        "msgs (threaded)", "msgs (sim)", "leaders ok"});
  support::Rng rng(0xE15);
  for (const auto algo :
       {election::AlgorithmId::kAk, election::AlgorithmId::kBk}) {
    for (const std::size_t n : {4u, 8u, 16u, 32u}) {
      if (smoke && n > 8) continue;
      const std::size_t k = 2;
      const auto ring =
          ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
      if (!ring) continue;
      const auto expected = ring->true_leader();
      const auto factory = election::make_factory({algo, k, false});

      bool leaders_ok = true;
      std::uint64_t threaded_msgs = 0;
      const auto t0 = Clock::now();
      for (int run = 0; run < kRuns; ++run) {
        const auto result = runtime::run_threaded(*ring, factory);
        leaders_ok = leaders_ok &&
                     result.outcome == sim::Outcome::kTerminated &&
                     result.leader_pid() ==
                         std::optional<sim::ProcessId>(expected);
        threaded_msgs = result.messages_sent;
      }
      const auto t1 = Clock::now();

      core::ElectionConfig config;
      config.algorithm = {algo, k, false};
      config.monitor_spec = false;
      std::uint64_t sim_msgs = 0;
      const auto t2 = Clock::now();
      for (int run = 0; run < kRuns; ++run) {
        sim_msgs = core::run_election(*ring, config).stats.messages_sent;
      }
      const auto t3 = Clock::now();

      const auto ms = [kRuns](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count() /
               kRuns;
      };
      table.row()
          .cell(election::algorithm_name(algo))
          .cell(static_cast<std::uint64_t>(n))
          .cell(static_cast<std::uint64_t>(k))
          .cell(ms(t1 - t0), 3)
          .cell(ms(t3 - t2), 3)
          .cell(threaded_msgs)
          .cell(sim_msgs)
          .cell(leaders_ok ? "yes" : "NO");
    }
  }
  benchutil::emit(table, format);
  benchutil::footer(
      format,
      "\nreading: the winner is identical in every run (theorems "
      "hold under real\nschedules); message counts may differ "
      "between interleavings for B_k (discard\norder) while A_k's "
      "are schedule-invariant; thread wake-ups dominate the\n"
      "threaded wall-clock.\n");
  return 0;
}
