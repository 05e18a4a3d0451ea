#include "ledger.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>

#include "core/batch_engine.hpp"
#include "core/campaign.hpp"
#include "core/election_driver.hpp"
#include "core/model_checker.hpp"
#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "runtime/inhost/inhost_ring.hpp"
#include "stats.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

using namespace hring;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Cells of the sweep probes: the first cells of sweep's first campaign.
constexpr std::size_t kProbeCells = 4096;
/// Repetitions of the short timing probes; their median is reported.
constexpr std::size_t kProbeReps = 3;
/// Elections per mode (monitor on/off, recorder on/off) of the sim and
/// in-host probes.
constexpr std::size_t kProbeElections = 256;

struct SweepCells {
  std::uint64_t campaign_seed = 0;
  std::vector<ring::LabeledRing> rings;
  std::vector<sim::ProcessId> leaders;
};

/// ring.gen_us: the per-cell ring generation run_campaign performs
/// (random_asymmetric_ring from the cell's derived ring seed, then
/// true_leader()), timed over the probe cells.
SweepCells probe_ring(std::uint64_t seed, Gate& gate, Tracer& tracer,
                      std::vector<Metric>& out) {
  SweepCells cells;
  cells.campaign_seed = sweep_seeds(seed).front();
  const std::size_t alphabet = default_alphabet(kSweepN, kSweepK);
  std::vector<double> us;
  for (std::size_t rep = 0; rep < kProbeReps; ++rep) {
    cells.rings.clear();
    cells.leaders.clear();
    cells.rings.reserve(kProbeCells);
    cells.leaders.reserve(kProbeCells);
    std::size_t missing = 0;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(&tracer, "ring");
      for (std::size_t cell = 0; cell < kProbeCells; ++cell) {
        const core::CellSeeds s =
            core::derive_cell_seeds(cells.campaign_seed, cell);
        support::Rng rng(s.ring_seed);
        auto r = ring::random_asymmetric_ring(kSweepN, kSweepK, alphabet, rng);
        if (!r.has_value()) {
          ++missing;
          continue;
        }
        cells.leaders.push_back(r->true_leader());
        cells.rings.push_back(std::move(*r));
      }
    }
    us.push_back(seconds_since(t0) * 1e6 / kProbeCells);
    gate.check(missing == 0, "ring generation failed");
  }
  out.push_back({"ring.gen_us", median(us), "us"});
  return cells;
}

/// batch.*: one BatchRunner<BatchAk> on this thread over the probe cells,
/// with the arena configuration run_campaign uses.
std::uint64_t probe_batch(const SweepCells& cells, Gate& gate, Tracer& tracer,
                          std::vector<Metric>& out) {
  const core::SweepConfig sweep = sweep_config(kProbeCells);
  core::BatchConfig config;
  config.slots = sweep.batch_slots;
  config.n = kSweepN;
  config.algorithm = sweep.election.algorithm;
  config.scheduler = sweep.election.scheduler;
  config.budget = sweep.election.budget;
  config.check_true_leader = true;

  std::vector<double> cells_per_s;
  std::optional<std::uint64_t> steps_total;
  for (std::size_t rep = 0; rep < kProbeReps; ++rep) {
    core::BatchAkRunner runner;
    runner.configure(config);
    std::vector<core::BatchCellResult> done;
    std::uint64_t steps = 0;
    std::size_t next = 0;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(&tracer, "core.batch_engine");
      while (next < cells.rings.size() || runner.has_active()) {
        while (runner.free_slots() > 0 && next < cells.rings.size()) {
          runner.activate(
              next, cells.rings[next],
              core::derive_cell_seeds(cells.campaign_seed, next).election_seed,
              cells.leaders[next]);
          ++next;
        }
        done.clear();
        runner.step_all(done);
        for (const core::BatchCellResult& r : done) {
          steps += r.stats->steps;
          gate.check(r.outcome == sim::Outcome::kTerminated && r.verified,
                     "batch cell " + std::to_string(r.cell) +
                         " did not terminate verified");
        }
      }
    }
    cells_per_s.push_back(static_cast<double>(cells.rings.size()) /
                          seconds_since(t0));
    gate.check(!steps_total.has_value() || *steps_total == steps,
               "batch step count differs between repetitions");
    steps_total = steps;
  }
  out.push_back({"batch.cells_per_s_1w", median(cells_per_s), "1/s"});
  const double steps_per_cell = static_cast<double>(*steps_total) /
                                static_cast<double>(cells.rings.size());
  out.push_back({"batch.steps_per_cell", steps_per_cell, "count"});
  return *steps_total;
}

/// campaign.*: run_campaign with sweep's worker count over run_campaign
/// with one worker, same campaign.
double probe_campaign(std::uint64_t campaign_seed, Gate& gate, Tracer& tracer,
                      std::vector<Metric>& out) {
  core::SweepConfig config = sweep_config(kProbeCells);
  config.seed = campaign_seed;
  auto timed = [&](std::size_t workers) {
    config.workers = workers;
    const auto t0 = Clock::now();
    core::CampaignResult result;
    {
      Tracer::Scope span(&tracer, "core.campaign");
      result = core::run_campaign(config);
    }
    const double s = seconds_since(t0);
    gate.check(result.all_verified() &&
                   result.outcome_count(sim::Outcome::kTerminated) ==
                       config.cells,
               "campaign cell failed");
    return std::make_pair(s, std::move(result));
  };
  std::vector<double> speedup;
  double messages_p50 = 0.0;
  for (std::size_t rep = 0; rep < kProbeReps; ++rep) {
    const auto [s1, r1] = timed(1);
    // An untimed W-worker campaign first: idle cores of a virtual machine
    // take a campaign or two to come up to speed, which would otherwise be
    // charged to the timed one.
    (void)timed(sweep_workers());
    const auto [sw, rw] = timed(sweep_workers());
    speedup.push_back(s1 / sw);
    Tracer::Scope span(&tracer, "telemetry");
    messages_p50 = rw.quantile("messages_sent", 0.5);
  }
  out.push_back({"campaign.speedup_w", median(speedup), "ratio"});
  out.push_back({"campaign.messages_per_cell_p50", messages_p50, "count"});
  return messages_p50;
}

struct SimTotals {
  std::uint64_t steps = 0;
  std::uint64_t messages = 0;
  std::uint64_t comparisons = 0;
  std::size_t peak_space_bits = 0;
};

/// sim.*, verify.us: scalar-engine B_k elections with the spec monitor on
/// (library default) and off, alternating, on the same seeds.
SimTotals probe_sim(std::uint64_t seed, Gate& gate, Tracer& tracer,
                    std::vector<Metric>& out) {
  const std::vector<RingInput> inputs =
      sim_inputs(seed, kProbeElections, &tracer);
  SimTotals totals;
  double on_s = 0.0;
  double off_s = 0.0;
  std::int64_t verify_ns = 0;
  std::uint64_t verify_calls = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool monitor = (pass == 0) == (i % 2 == 0);
      core::ElectionConfig config = sim_config(inputs[i].election_seed);
      config.monitor_spec = monitor;
      const auto t0 = Clock::now();
      sim::RunResult result;
      {
        Tracer::Scope span(&tracer, "sim");
        result = core::run_election(inputs[i].ring, config);
      }
      (monitor ? on_s : off_s) += seconds_since(t0);
      const std::size_t first = tracer.spans().size();
      gate.record(check_election(inputs[i], result, &tracer));
      for (std::size_t s = first; s < tracer.spans().size(); ++s) {
        const Tracer::Span& span = tracer.spans()[s];
        if (span.name != "core.verification") continue;
        verify_ns += span.end_ns - span.start_ns;
        ++verify_calls;
      }
      if (!monitor) continue;
      totals.steps += result.stats.steps;
      totals.messages += result.stats.messages_sent;
      totals.comparisons += result.stats.label_comparisons;
      totals.peak_space_bits =
          std::max(totals.peak_space_bits, result.stats.peak_space_bits);
    }
  }
  const auto count = static_cast<double>(inputs.size());
  out.push_back({"sim.elections_per_s", count / on_s, "1/s"});
  out.push_back({"sim.us_per_step",
                 on_s * 1e6 / static_cast<double>(totals.steps), "us"});
  out.push_back({"sim.steps_per_election",
                 static_cast<double>(totals.steps) / count, "count"});
  out.push_back({"sim.messages_per_election",
                 static_cast<double>(totals.messages) / count, "count"});
  out.push_back({"sim.label_comparisons_per_election",
                 static_cast<double>(totals.comparisons) / count, "count"});
  out.push_back({"sim.peak_space_bits",
                 static_cast<double>(totals.peak_space_bits), "bits"});
  out.push_back({"sim.monitor_ratio", on_s / off_s, "ratio"});
  out.push_back({"verify.us",
                 static_cast<double>(verify_ns) / 1e3 /
                     static_cast<double>(verify_calls),
                 "us"});
  return totals;
}

/// inhost.*: inhost's elections with the flight recorder detached
/// (workload default) and attached, alternating, on the same rings.
void probe_inhost(std::uint64_t seed, Gate& gate, Tracer& tracer,
                  std::vector<Metric>& out) {
  const std::vector<RingInput> inputs =
      inhost_inputs(seed, kProbeElections, &tracer);
  const sim::ProcessFactory factory =
      election::make_factory({election::AlgorithmId::kAk, kInhostK, false});
  telemetry::MetricsRegistry latency;
  std::vector<double> elect_us;
  std::vector<double> setup_join_us;
  double off_s = 0.0;
  double on_s = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool flight = (pass == 0) == (i % 2 == 1);
      runtime::InHostConfig config = inhost_config();
      config.flight_recorder = flight;
      const auto t0 = Clock::now();
      runtime::InHostResult result;
      {
        Tracer::Scope span(&tracer, "runtime.inhost");
        result = runtime::run_inhost(inputs[i].ring, factory, config);
      }
      const double wall = seconds_since(t0);
      gate.record(check_inhost(inputs[i], result, &tracer));
      if (flight) {
        on_s += wall;
        continue;
      }
      off_s += wall;
      const double elapsed_us = static_cast<double>(result.elapsed_ns) / 1e3;
      elect_us.push_back(elapsed_us);
      setup_join_us.push_back(wall * 1e6 - elapsed_us);
      Tracer::Scope span(&tracer, "telemetry");
      latency.merge(result.metrics);
    }
  }
  double hop_p50 = 0.0;
  double hop_p99 = 0.0;
  {
    Tracer::Scope span(&tracer, "telemetry");
    const telemetry::Histogram* hist =
        latency.find_histogram("inhost_message_latency_ns");
    if (hist != nullptr && hist->count() > 0) {
      hop_p50 = telemetry::histogram_quantile(*hist, 0.50) / 1e3;
      hop_p99 = telemetry::histogram_quantile(*hist, 0.99) / 1e3;
    } else {
      gate.check(false, "inhost_message_latency_ns histogram missing");
    }
  }
  out.push_back({"inhost.elect_us_p50", median(elect_us), "us"});
  out.push_back({"inhost.setup_join_us_p50", median(setup_join_us), "us"});
  out.push_back({"inhost.hop_p50_us", hop_p50, "us"});
  out.push_back({"inhost.hop_p99_us", hop_p99, "us"});
  out.push_back({"inhost.flight_ratio", on_s / off_s, "ratio"});
}

struct McTotals {
  std::uint64_t configurations = 0;
  std::uint64_t transitions = 0;
  std::size_t max_depth = 0;
};

/// mc.*: one pass over the model-checking family.
McTotals probe_modelcheck(std::uint64_t seed, Gate& gate, Tracer& tracer,
                          std::vector<Metric>& out) {
  McTotals totals;
  double total_s = 0.0;
  double max_s = 0.0;
  for (const ring::LabeledRing& r : modelcheck_family(seed)) {
    for (const auto id :
         {election::AlgorithmId::kAk, election::AlgorithmId::kBk}) {
      const auto t0 = Clock::now();
      core::ModelCheckReport report;
      {
        Tracer::Scope span(&tracer, "core.model_checker");
        report = core::check_all_schedules(
            r, {id, r.max_multiplicity(), false});
      }
      const double s = seconds_since(t0);
      total_s += s;
      max_s = std::max(max_s, s);
      gate.record(check_report(report));
      totals.configurations += report.configurations;
      totals.transitions += report.transitions;
      totals.max_depth = std::max(totals.max_depth, report.max_depth);
    }
  }
  out.push_back({"mc.configurations",
                 static_cast<double>(totals.configurations), "count"});
  out.push_back({"mc.transitions", static_cast<double>(totals.transitions),
                 "count"});
  out.push_back({"mc.max_depth", static_cast<double>(totals.max_depth),
                 "count"});
  out.push_back({"mc.configs_per_s",
                 static_cast<double>(totals.configurations) / total_s, "1/s"});
  out.push_back({"mc.check_s", total_s, "s"});
  out.push_back({"mc.ring_max_s", max_s, "s"});
  return totals;
}

}  // namespace

Ledger run_ledger(std::uint64_t seed, Gate& gate, Tracer& tracer) {
  Ledger ledger;
  auto& out = ledger.metrics;
  Digest counts;
  SweepCells cells;
  {
    Tracer::Scope probe(&tracer, "probe.sweep");
    cells = probe_ring(seed, gate, tracer, out);
    counts.add(probe_batch(cells, gate, tracer, out));
    counts.add(std::bit_cast<std::uint64_t>(
        probe_campaign(cells.campaign_seed, gate, tracer, out)));
  }
  {
    Tracer::Scope probe(&tracer, "probe.sim");
    const SimTotals sim = probe_sim(seed, gate, tracer, out);
    counts.add(sim.steps);
    counts.add(sim.messages);
    counts.add(sim.comparisons);
    counts.add(sim.peak_space_bits);
  }
  {
    Tracer::Scope probe(&tracer, "probe.inhost");
    probe_inhost(seed, gate, tracer, out);
  }
  {
    Tracer::Scope probe(&tracer, "probe.modelcheck");
    const McTotals mc = probe_modelcheck(seed, gate, tracer, out);
    counts.add(mc.configurations);
    counts.add(mc.transitions);
    counts.add(mc.max_depth);
  }
  ledger.counts_digest = counts.value();
  return ledger;
}

}  // namespace perfbench
