// Experiment E17 (extension) — transport-layer throughput and latency.
//
// The same elections on the three execution substrates behind the
// Transport concept: the step engine on simulated links (sim), the
// mutex-channel threaded runtime (channel), and the in-host runtime
// (inhost: one OS thread per process, lock-free SPSC byte links,
// wire-framed messages). Throughput is whole elections per second;
// the inhost rows also report per-message wire latency quantiles from
// the runtime's inhost_message_latency_ns histogram — the cost of a
// real enqueue→decode hop, which the simulator abstracts to zero.
#include <chrono>
#include <iostream>
#include <optional>

#include "bench/bench_util.hpp"
#include "core/election_driver.hpp"
#include "ring/generator.hpp"
#include "runtime/inhost/inhost_ring.hpp"
#include "runtime/threaded_ring.hpp"
#include "support/table.hpp"
#include "telemetry/metrics.hpp"

int main(int argc, char** argv) {
  using namespace hring;
  const auto [format, smoke] = benchutil::parse_options(argc, argv);
  using Clock = std::chrono::steady_clock;

  const int kRuns = smoke ? 3 : 10;
  benchutil::headline(format,
                      "E17: elections/sec and per-message latency by "
                      "transport (" + std::to_string(kRuns) +
                          " runs per cell)");

  support::Table table({"transport", "algo", "n", "k", "elections/s",
                        "msgs/run", "lat p50 us", "lat p90 us",
                        "lat p99 us", "leaders ok"});
  telemetry::MetricsRegistry merged;
  support::Rng rng(0xE17);
  const std::size_t k = 2;
  for (const std::size_t n : {8u, 32u, 64u}) {
    if (smoke && n > 32) continue;
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    if (!ring) continue;
    const auto expected = ring->true_leader();
    const election::AlgorithmConfig algo{election::AlgorithmId::kAk, k,
                                         false};
    const auto factory = election::make_factory(algo);

    struct Cell {
      const char* transport = "";
      double elections_per_sec = 0;
      std::uint64_t msgs = 0;
      bool leaders_ok = true;
      std::optional<double> p50, p90, p99;
    };
    std::vector<Cell> cells;

    {  // sim: the step engine under the synchronous daemon.
      core::ElectionConfig config;
      config.algorithm = algo;
      config.monitor_spec = false;
      Cell cell;
      cell.transport = "sim";
      const auto t0 = Clock::now();
      for (int run = 0; run < kRuns; ++run) {
        const auto result = core::run_election(*ring, config);
        cell.msgs = result.stats.messages_sent;
        cell.leaders_ok =
            cell.leaders_ok &&
            result.leader_pid() == std::optional<sim::ProcessId>(expected);
      }
      cell.elections_per_sec =
          kRuns / std::chrono::duration<double>(Clock::now() - t0).count();
      cells.push_back(cell);
    }

    {  // channel: the mutex/cv threaded runtime.
      Cell cell;
      cell.transport = "channel";
      const auto t0 = Clock::now();
      for (int run = 0; run < kRuns; ++run) {
        const auto result = runtime::run_threaded(*ring, factory);
        cell.msgs = result.messages_sent;
        cell.leaders_ok =
            cell.leaders_ok &&
            result.outcome == sim::Outcome::kTerminated &&
            result.leader_pid() == std::optional<sim::ProcessId>(expected);
      }
      cell.elections_per_sec =
          kRuns / std::chrono::duration<double>(Clock::now() - t0).count();
      cells.push_back(cell);
    }

    {  // inhost: SPSC byte links + wire frames; latency from telemetry.
      runtime::InHostConfig config;
      config.record_trace = false;  // pure throughput
      Cell cell;
      cell.transport = "inhost";
      telemetry::MetricsRegistry latency;
      const auto t0 = Clock::now();
      for (int run = 0; run < kRuns; ++run) {
        const auto result = runtime::run_inhost(*ring, factory, config);
        cell.msgs = result.messages_sent;
        cell.leaders_ok =
            cell.leaders_ok &&
            result.outcome == sim::Outcome::kTerminated &&
            result.leader_pid() == std::optional<sim::ProcessId>(expected);
        latency.merge(result.metrics);
      }
      cell.elections_per_sec =
          kRuns / std::chrono::duration<double>(Clock::now() - t0).count();
      if (const auto* hist =
              latency.find_histogram("inhost_message_latency_ns")) {
        cell.p50 = telemetry::histogram_quantile(*hist, 0.50) / 1e3;
        cell.p90 = telemetry::histogram_quantile(*hist, 0.90) / 1e3;
        cell.p99 = telemetry::histogram_quantile(*hist, 0.99) / 1e3;
      }
      merged.merge(latency);
      cells.push_back(cell);
    }

    {  // inhost+flight: same runtime with the flight recorder attached.
      // The delta against the inhost row above is the recorder's whole
      // cost — two relaxed stores and a release store per event. The
      // committed acceptance bound (attached within 1.5x of detached)
      // is asserted at n=1000 by RecorderOverheadTest; these rows track
      // the same ratio at bench scale.
      runtime::InHostConfig config;
      config.record_trace = false;
      config.flight_recorder = true;
      Cell cell;
      cell.transport = "inhost+flight";
      const auto t0 = Clock::now();
      for (int run = 0; run < kRuns; ++run) {
        const auto result = runtime::run_inhost(*ring, factory, config);
        cell.msgs = result.messages_sent;
        cell.leaders_ok =
            cell.leaders_ok &&
            result.outcome == sim::Outcome::kTerminated &&
            result.leader_pid() == std::optional<sim::ProcessId>(expected);
      }
      cell.elections_per_sec =
          kRuns / std::chrono::duration<double>(Clock::now() - t0).count();
      cells.push_back(cell);
    }

    for (const Cell& cell : cells) {
      auto& row = table.row();
      row.cell(cell.transport)
          .cell(election::algorithm_name(algo.id))
          .cell(static_cast<std::uint64_t>(n))
          .cell(static_cast<std::uint64_t>(k))
          .cell(cell.elections_per_sec, 1)
          .cell(cell.msgs);
      if (cell.p50.has_value()) {
        row.cell(*cell.p50, 2).cell(*cell.p90, 2).cell(*cell.p99, 2);
      } else {
        row.cell("-").cell("-").cell("-");
      }
      row.cell(cell.leaders_ok ? "yes" : "NO");
    }
  }

  benchutil::emit(table, format, merged);
  benchutil::footer(format,
                    "\nsim pays no synchronization; channel pays one "
                    "mutex+cv per hop; inhost pays encode/decode plus a "
                    "futex doorbell only when the consumer parked.\n");
  return 0;
}
