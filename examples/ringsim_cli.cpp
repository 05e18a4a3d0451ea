// ringsim: command-line driver for the whole library.
//
// Run any registered algorithm on any labeled ring under any daemon or
// delay model, with optional action-level tracing.
//
//   $ ./ringsim_cli --ring 1,3,1,3,2,2,1,2 --algo Bk --k 3 --trace
//   $ ./ringsim_cli --random-n 12 --k 2 --algo Ak --sched random-subset
//   $ ./ringsim_cli --ring 1,2,3 --algo Peterson --engine event
#include <array>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "core/campaign.hpp"
#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "core/spec_audit.hpp"
#include "core/verification.hpp"
#include "ring/classes.hpp"
#include "ring/generator.hpp"
#include "core/model_checker.hpp"
#include "core/report.hpp"
#include "core/ringspec.hpp"
#include "runtime/inhost/inhost_ring.hpp"
#include "sim/render.hpp"
#include "sim/trace.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "telemetry/telemetry_observer.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace hring;

constexpr char kSubcommands[] =
    "  run                 subcommand: run one election (the default\n"
    "                      when no subcommand is given); --transport\n"
    "                      selects the execution substrate\n"
    "  audit               subcommand: §II model-conformance audit of\n"
    "                      the selected algorithm on the selected ring\n"
    "                      (replay determinism, locality, message and\n"
    "                      space bounds, FIFO discipline)\n"
    "  sweep               subcommand: run the election across many\n"
    "                      consecutive seeds on a worker pool (one\n"
    "                      row per run; identical for any --workers)\n"
    "  trace               subcommand: run once with telemetry attached\n"
    "                      and emit a Perfetto/chrome://tracing JSON\n"
    "                      timeline (to --trace-out, default stdout)\n";

constexpr std::array kEngines{core::EngineKind::kStep,
                              core::EngineKind::kEvent};
constexpr std::array kSchedulers{
    core::SchedulerKind::kSynchronous, core::SchedulerKind::kRoundRobin,
    core::SchedulerKind::kRandomSingle, core::SchedulerKind::kRandomSubset,
    core::SchedulerKind::kConvoy};
constexpr std::array kDelays{core::DelayKind::kWorstCase,
                             core::DelayKind::kUniformRandom,
                             core::DelayKind::kSlowLink};
constexpr std::array kBackends{core::CampaignBackend::kAuto,
                               core::CampaignBackend::kBatch,
                               core::CampaignBackend::kScalar};
constexpr std::array kTransports{false, true};  // is --transport threads?

/// The Stats fields a --campaign summary reports percentiles of.
constexpr const char* kCampaignStats[] = {
    "steps", "messages_sent", "time_units", "peak_space_bits",
    "label_comparisons"};

/// --delay spells the uniform model `uniform`, as ringspec files do.
const char* delay_flag_name(core::DelayKind kind) {
  return kind == core::DelayKind::kUniformRandom
             ? "uniform"
             : core::delay_kind_name(kind);
}

std::optional<words::LabelSequence> parse_ring(std::string_view s) {
  words::LabelSequence labels;
  std::stringstream ss{std::string(s)};
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto label = support::parse_u64(item);
    if (!label) return std::nullopt;
    labels.emplace_back(*label);
  }
  if (labels.size() < 2) return std::nullopt;
  return labels;
}

/// Writes one output document to `path` (nothing when `path` is empty); a
/// non-null `echo` announces it on stdout. False when the file cannot be
/// opened.
template <class Write>
bool write_file(const std::string& path, const char* echo, Write&& write) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  write(out);
  if (echo != nullptr) std::cout << echo << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<words::LabelSequence> labels;
  std::optional<core::RingSpec> spec;
  std::size_t random_n = 0;
  std::optional<election::AlgorithmId> algo_flag;
  std::size_t k = 0;
  core::ElectionConfig config;
  bool trace_enabled = false;
  bool quiet = false;
  bool model_check = false;
  bool json = false;
  std::string trace_out;
  std::string metrics_out;
  std::string flight_out;
  std::uint64_t watchdog_ms = 0;
  std::uint64_t watch_every = 0;
  std::size_t runs = 16;
  std::size_t workers = 0;
  bool campaign_mode = false;
  bool no_verify = false;
  bool threads_transport = false;
  core::CampaignBackend backend = core::CampaignBackend::kAuto;

  // `run` is the default mode, named so scripts can say what they mean
  // (`ringsim_cli run --transport=threads ...`).
  const std::string_view command = argc > 1 ? argv[1] : "";
  const bool audit = command == "audit";
  const bool sweep = command == "sweep";
  const bool trace_cmd = command == "trace";
  const int first_arg = audit || sweep || trace_cmd || command == "run" ? 2 : 1;

  support::FlagTable flags("[run|audit|sweep|trace] [options]",
                           kSubcommands);
  flags
      .custom("--ring", "A,B,C,...", "clockwise labels (unsigned integers)",
              [&labels](std::string_view v) {
                labels = parse_ring(v);
                return std::string(
                    labels ? ""
                           : "bad --ring (need >= 2 comma-separated "
                             "integers)");
              })
      .integer("--random-n", "N", &random_n,
               "instead of --ring: random asymmetric ring")
      .custom("--spec", "FILE", "load ring + config from a ringspec file",
              [&spec](std::string_view path) -> std::string {
                std::ifstream file{std::string(path)};
                if (!file) return "cannot open spec file";
                auto parsed = core::parse_ringspec(file);
                if (parsed.error) {
                  return "spec error: " + parsed.error->to_string();
                }
                spec = std::move(parsed.spec);
                return "";
              })
      .choice("--algo", "NAME", &algo_flag, election::all_algorithms(),
              election::algorithm_name, "(default Ak)", "algorithm")
      .integer("--k", "K", &k,
               "multiplicity bound for Ak/Bk (default: the ring's actual "
               "one)")
      .choice("--transport", "T", &threads_transport, kTransports,
              [](bool threads) { return threads ? "threads" : "sim"; },
              "(run; default sim): sim is the simulated\n"
              "daemon; threads is the in-host runtime (one OS\n"
              "thread per process, lock-free byte links,\n"
              "wire-framed messages)",
              "transport")
      .choice("--engine", "KIND", &config.engine, kEngines,
              core::engine_kind_name, "(default step)")
      .choice("--sched", "KIND", &config.scheduler, kSchedulers,
              core::scheduler_kind_name, "(default synchronous)")
      .choice("--delay", "KIND", &config.delay, kDelays, delay_flag_name,
              "(event engine)")
      .integer("--seed", "S", &config.seed, "randomness seed (default 1)")
      .toggle("--trace", &trace_enabled, "print the action-level trace")
      .text("--trace-out", "FILE", &trace_out,
            "write the telemetry timeline (Chrome\n"
            "trace-event / Perfetto JSON) to FILE; with\n"
            "run --transport=threads, the flight\n"
            "recorder's trace of the real threads")
      .text("--flight-out", "FILE", &flight_out,
            "run --transport=threads: write the flight\n"
            "recorder's forensic report (hring-forensics/1\n"
            "JSON: per-thread last-K events, park state,\n"
            "watchdog verdict) to FILE")
      .integer<std::uint64_t>(
          "--watchdog-ms", "N", &watchdog_ms,
          "run --transport=threads: watchdog quiet\n"
          "period in milliseconds, N > 0 (still floored\n"
          "at 4ms x ring size — see docs/RUNTIME.md)",
          1, "need a positive quiet period in milliseconds")
      .text("--metrics-out", "FILE", &metrics_out,
            "write the telemetry metrics document\n"
            "(counters + histograms) to FILE; with\n"
            "sweep, registries of all runs are merged")
      .integer("--watch", "N", &watch_every,
               "render the configuration every N steps")
      .toggle("--model-check", &model_check,
              "exhaustively verify EVERY schedule (small\n"
              "rings; Ak/Bk only) instead of one run")
      .toggle("--json", &json, "emit the full run report as JSON")
      .toggle("--quiet", &quiet, "outcome + stats only")
      .integer("--runs", "N", &runs, "sweep: number of cells (default 16)")
      .integer("--cells", "N", &runs, "sweep: alias of --runs")
      .integer<std::size_t>("--workers", "W", &workers,
                            "sweep: worker threads, >= 1 (default:\n"
                            "hardware concurrency)",
                            1, "need at least 1 worker thread")
      .toggle("--campaign", &campaign_mode,
              "sweep: statistical campaign mode — print\n"
              "merged percentiles + throughput instead of\n"
              "one row per run; with --random-n, every\n"
              "cell samples its own asymmetric ring")
      .choice("--backend", "B", &backend, kBackends,
              core::campaign_backend_name, "(sweep; default auto)")
      .toggle("--no-verify", &no_verify,
              "sweep: skip terminal-state verification");
  flags.parse_or_exit(argc, argv, first_arg);
  const bool verify = !no_verify;

  if (threads_transport) {
    // The in-host runtime executes one election on real threads; the
    // simulator-only modes have no meaning there.
    if (campaign_mode || sweep) {
      std::cerr << "--transport threads runs one real election and cannot "
                   "drive "
                << (campaign_mode ? "--campaign" : "sweep")
                << "; use the sim transport for statistical runs\n";
      return EXIT_FAILURE;
    }
    if (audit || trace_cmd || model_check) {
      std::cerr << "--transport threads supports only the run subcommand "
                   "(the conformance harness audits threaded runs: see "
                   "docs/RUNTIME.md)\n";
      return EXIT_FAILURE;
    }
  } else if (watchdog_ms > 0 || !flight_out.empty()) {
    std::cerr << (watchdog_ms > 0 ? "--watchdog-ms" : "--flight-out")
              << " requires run --transport=threads (the in-host runtime; "
                 "see docs/RUNTIME.md)\n";
    return EXIT_FAILURE;
  }

  std::optional<ring::LabeledRing> ring;
  if (spec.has_value()) {
    ring.emplace(spec->ring);
    config = spec->config;
    // The spec's algorithm wins unless --algo was passed explicitly.
    if (!algo_flag) algo_flag = config.algorithm.id;
    if (k == 0) k = config.algorithm.k;
  } else if (labels) {
    ring.emplace(*labels);
  } else if (random_n >= 2) {
    support::Rng rng(config.seed);
    const std::size_t want_k = k == 0 ? 2 : k;
    ring = ring::random_asymmetric_ring(
        random_n, want_k, (random_n + want_k - 1) / want_k + 2, rng);
    if (!ring) {
      std::cerr << "could not sample an asymmetric ring\n";
      return EXIT_FAILURE;
    }
  } else {
    flags.print_help(std::cout, argv[0]);
    return EXIT_FAILURE;
  }
  const election::AlgorithmId algo =
      algo_flag.value_or(election::AlgorithmId::kAk);

  if (json) quiet = true;  // JSON owns stdout
  // `trace` without --trace-out streams the timeline JSON to stdout.
  const bool trace_to_stdout = trace_cmd && trace_out.empty();
  if (trace_to_stdout) quiet = true;

  const auto report = ring::classify(*ring);
  if (k == 0) k = report.min_k();
  config.algorithm = {algo, k, false};
  // A_k/B_k must elect the paper's true leader (on asymmetric rings); the
  // baselines elect by other rules.
  const bool check_true =
      election::elects_true_leader(algo) && report.asymmetric;

  if (!quiet) {
    std::cout << "ring:  " << ring->to_string() << "\n";
    std::cout << "class: " << report.to_string() << "\n";
    std::cout << "algo:  " << election::algorithm_name(algo)
              << " (k = " << k << ")\n";
    if (!election::ring_in_algorithm_class(config.algorithm, *ring)) {
      std::cout << "warning: ring is OUTSIDE the algorithm's class — "
                   "anything can happen (see impossibility_demo)\n";
    }
  }

  if (threads_transport) {
    runtime::InHostConfig inhost_config;
    if (watchdog_ms > 0) inhost_config.quiet_period_ms = watchdog_ms;
    // The flight recorder feeds both dumps: --flight-out gets the
    // forensic report, --trace-out (on this transport) the recorder's
    // Perfetto trace of the real threads rather than the simulator
    // timeline.
    inhost_config.flight_recorder =
        !flight_out.empty() || !trace_out.empty();
    const auto result = runtime::run_inhost(
        *ring, election::make_factory(config.algorithm), inhost_config);

    if (result.forensics.has_value()) {
      const auto& forensics = *result.forensics;
      if (!write_file(flight_out, quiet ? nullptr : "flight:  ",
                      [&](std::ostream& out) {
                        runtime::write_forensics_json(out, forensics);
                      })) {
        return EXIT_FAILURE;
      }
      if (!write_file(trace_out, quiet ? nullptr : "trace:   ",
                      [&](std::ostream& out) {
                        runtime::write_flight_trace_json(out, forensics);
                      })) {
        return EXIT_FAILURE;
      }
    }
    if (!write_file(metrics_out, quiet ? nullptr : "metrics: ",
                    [&](std::ostream& out) {
                      telemetry::write_metrics_json(out, result.metrics);
                    })) {
      return EXIT_FAILURE;
    }

    const auto leader = result.leader_pid();
    const bool ok = result.outcome == sim::Outcome::kTerminated &&
                    leader.has_value() && result.wire_rejects == 0 &&
                    result.sends_abandoned == 0 &&
                    (!check_true || *leader == ring->true_leader());
    const double seconds =
        static_cast<double>(result.elapsed_ns) / 1e9;

    if (json) {
      support::JsonWriter run_json(std::cout);
      run_json.begin_object();
      run_json.key("transport").value("threads");
      run_json.key("outcome").value(sim::outcome_name(result.outcome));
      if (leader.has_value()) {
        run_json.key("leader").value(static_cast<std::uint64_t>(*leader));
      } else {
        run_json.key("leader").null();
      }
      run_json.key("processes").value(
          static_cast<std::uint64_t>(result.processes.size()));
      run_json.key("actions").value(result.actions);
      run_json.key("messages_sent").value(result.messages_sent);
      run_json.key("messages_received").value(result.messages_received);
      run_json.key("wire_rejects").value(result.wire_rejects);
      run_json.key("sends_abandoned").value(result.sends_abandoned);
      run_json.key("peak_space_bits").value(
          static_cast<std::uint64_t>(result.peak_space_bits));
      run_json.key("elapsed_seconds").value(seconds);
      run_json.key("verified").value(ok);
      if (result.forensics.has_value()) {
        run_json.key("forensics").value(result.forensics->verdict);
      }
      run_json.end_object();
      std::cout << '\n';
    } else {
      std::cout << "outcome: " << sim::outcome_name(result.outcome) << "\n";
      if (result.forensics.has_value()) {
        std::cout << "forensics: " << result.forensics->summary() << "\n";
      }
      if (leader.has_value()) {
        std::cout << "leader: p" << *leader << " (label "
                  << words::to_string(ring->label(*leader)) << ")\n";
      }
      std::cout << "stats: actions=" << result.actions
                << " sent=" << result.messages_sent
                << " recv=" << result.messages_received
                << " peak_space_bits=" << result.peak_space_bits
                << " wire_rejects=" << result.wire_rejects << "\n";
      std::cout << "threads: " << result.processes.size()
                << " workers, " << seconds << " s\n";
      if (!quiet) {
        std::cout << "verification: " << (ok ? "ok" : "FAILED") << "\n";
      }
    }
    return ok ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  if (sweep) {
    // Every sweep is a campaign (core/campaign.hpp): one campaign seed,
    // per-cell seeds derived from (seed, index), backend auto-selected.
    // The classic table mode streams per-cell rows through the campaign's
    // cell sink; --campaign prints the merged percentile summary instead.
    core::SweepConfig sweep_config;
    sweep_config.election = config;
    sweep_config.cells = runs;
    sweep_config.seed = config.seed;
    sweep_config.workers = workers;
    sweep_config.backend = backend;
    sweep_config.verify = verify;
    sweep_config.collect_telemetry = !metrics_out.empty();
    sweep_config.check_true_leader = election::elects_true_leader(algo);
    if (campaign_mode && random_n >= 2) {
      // Statistical mode over instances: every cell samples its own
      // asymmetric ring from its derived ring seed.
      sweep_config.source = core::RingSource::random_asymmetric(random_n);
    } else {
      sweep_config.source = core::RingSource::fixed(*ring);
    }

    struct Row {
      std::uint64_t seed = 0;
      sim::Outcome outcome = sim::Outcome::kDeadlock;
      std::optional<sim::ProcessId> leader;
      sim::Stats stats;
      bool ok = false;
    };
    std::vector<Row> rows;
    if (!campaign_mode) {
      // Pre-sized row store: cells land at their own index from whichever
      // worker ran them — disjoint writes, no synchronization needed.
      rows.resize(runs);
      sweep_config.cell_sink = [&rows](const core::CellView& cell) {
        rows[cell.cell] =
            Row{cell.election_seed, cell.outcome, cell.leader, cell.stats,
                cell.verified};
      };
    }

    core::CampaignResult campaign;
    try {
      campaign = core::run_campaign(sweep_config);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return EXIT_FAILURE;
    }
    const bool all_ok = !verify || campaign.all_verified();

    if (!write_file(metrics_out, nullptr, [&](std::ostream& out) {
          telemetry::write_metrics_json(out, campaign.metrics);
        })) {
      return EXIT_FAILURE;
    }

    if (campaign_mode) {
      if (json) {
        support::JsonWriter campaign_json(std::cout);
        campaign_json.begin_object();
        campaign_json.key("cells").value(
            static_cast<std::uint64_t>(campaign.cells));
        campaign_json.key("workers").value(
            static_cast<std::uint64_t>(campaign.workers));
        campaign_json.key("backend").value(
            core::campaign_backend_name(campaign.backend));
        campaign_json.key("outcomes");
        campaign_json.begin_object();
        for (std::size_t o = 0; o < campaign.outcome_counts.size(); ++o) {
          campaign_json.key(sim::outcome_name(static_cast<sim::Outcome>(o)))
              .value(campaign.outcome_counts[o]);
        }
        campaign_json.end_object();
        campaign_json.key("verify_failures")
            .value(campaign.verify_failures);
        campaign_json.key("elapsed_seconds")
            .value(campaign.elapsed_seconds);
        campaign_json.key("elections_per_second")
            .value(campaign.elections_per_second);
        campaign_json.key("quantiles");
        campaign_json.begin_object();
        for (const char* stat : kCampaignStats) {
          campaign_json.key(stat);
          campaign_json.begin_object();
          campaign_json.key("p50").value(campaign.quantile(stat, 0.50));
          campaign_json.key("p90").value(campaign.quantile(stat, 0.90));
          campaign_json.key("p99").value(campaign.quantile(stat, 0.99));
          campaign_json.key("max").value(campaign.quantile(stat, 1.0));
          campaign_json.end_object();
        }
        campaign_json.end_object();
        campaign_json.end_object();
        std::cout << '\n';
      } else {
        std::cout << "campaign: " << campaign.cells << " cells, "
                  << campaign.workers << " workers, "
                  << core::campaign_backend_name(campaign.backend)
                  << " backend\n";
        std::cout << "outcomes:";
        for (std::size_t o = 0; o < campaign.outcome_counts.size(); ++o) {
          if (campaign.outcome_counts[o] == 0) continue;
          std::cout << " " << sim::outcome_name(static_cast<sim::Outcome>(o))
                    << "=" << campaign.outcome_counts[o];
        }
        std::cout << "\n";
        if (verify) {
          std::cout << "verified: "
                    << (all_ok ? "all"
                               : std::to_string(campaign.verify_failures) +
                                     " FAILURES")
                    << "\n";
        }
        support::Table table({"stat", "p50", "p90", "p99", "max"});
        for (const char* stat : kCampaignStats) {
          table.row()
              .cell(stat)
              .cell(campaign.quantile(stat, 0.50), 1)
              .cell(campaign.quantile(stat, 0.90), 1)
              .cell(campaign.quantile(stat, 0.99), 1)
              .cell(campaign.quantile(stat, 1.0), 1);
        }
        table.print(std::cout);
        std::cout << "throughput: "
                  << static_cast<std::uint64_t>(
                         campaign.elections_per_second)
                  << " elections/sec (" << campaign.elapsed_seconds
                  << " s)\n";
      }
      return all_ok ? EXIT_SUCCESS : EXIT_FAILURE;
    }

    if (json) {
      // One object per run, each carrying the complete Stats document.
      support::JsonWriter sweep_json(std::cout);
      sweep_json.begin_array();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& c = rows[i];
        sweep_json.begin_object();
        sweep_json.key("cell").value(static_cast<std::uint64_t>(i));
        sweep_json.key("seed").value(c.seed);
        sweep_json.key("outcome").value(sim::outcome_name(c.outcome));
        if (c.leader.has_value()) {
          sweep_json.key("leader").value(
              static_cast<std::uint64_t>(*c.leader));
        } else {
          sweep_json.key("leader").null();
        }
        sweep_json.key("verified").value(c.ok);
        sweep_json.key("stats");
        c.stats.to_json(sweep_json);
        sweep_json.end_object();
      }
      sweep_json.end_array();
      std::cout << '\n';
    } else {
      support::Table table({"cell", "seed", "outcome", "leader", "steps",
                            "msgs", "time", "peak bits", "verified"});
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& c = rows[i];
        table.row()
            .cell(i)
            .cell(c.seed)
            .cell(sim::outcome_name(c.outcome))
            .cell(c.leader ? "p" + std::to_string(*c.leader) : "-")
            .cell(c.stats.steps)
            .cell(c.stats.messages_sent)
            .cell(c.stats.time_units, 0)
            .cell(c.stats.peak_space_bits)
            .cell(verify ? (c.ok ? "yes" : "NO") : "-");
      }
      table.print(std::cout);
      std::cout << "\nsweep: " << runs << " runs, " << campaign.workers
                << " workers, "
                << core::campaign_backend_name(campaign.backend)
                << " backend, "
                << (verify
                        ? (all_ok ? "all verified" : "VERIFICATION FAILURES")
                        : "verification off")
                << "\n";
    }
    return all_ok ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  if (audit) {
    core::SpecAuditConfig audit_config;
    audit_config.scheduler = config.scheduler;
    audit_config.seed = config.seed;
    const auto audit_report = core::audit_algorithm(*ring, config.algorithm,
                                                    audit_config);
    std::cout << "audit (" << core::scheduler_kind_name(config.scheduler)
              << " daemon, seed " << config.seed
              << "): " << audit_report.summary() << "\n";
    for (const auto& v : audit_report.violations) {
      std::cout << "  " << v << "\n";
    }
    return audit_report.ok() ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  if (model_check) {
    core::ModelCheckConfig check_config;
    check_config.check_true_leader = check_true;
    const auto check =
        core::check_all_schedules(*ring, config.algorithm, check_config);
    std::cout << "model check: " << check.to_string() << "\n";
    return check.ok && check.complete ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  sim::TraceRecorder trace;
  if (trace_enabled) config.extra_observers.push_back(&trace);
  sim::WatchObserver watch(std::cout, watch_every);
  if (watch_every > 0) config.extra_observers.push_back(&watch);
  telemetry::TelemetryObserver telemetry_observer;
  const bool want_telemetry =
      trace_cmd || !trace_out.empty() || !metrics_out.empty();
  if (want_telemetry) config.extra_observers.push_back(&telemetry_observer);

  const auto result = core::run_election(*ring, config);
  const auto verification = core::verify_election(*ring, result, check_true);
  const int verdict = verification.ok ? EXIT_SUCCESS : EXIT_FAILURE;

  if (trace_to_stdout) {
    telemetry::write_trace_json(std::cout, telemetry_observer);
  }
  if (!write_file(trace_out, quiet ? nullptr : "trace:   ",
                  [&](std::ostream& out) {
                    telemetry::write_trace_json(out, telemetry_observer);
                  })) {
    return EXIT_FAILURE;
  }
  if (!write_file(metrics_out, quiet ? nullptr : "metrics: ",
                  [&](std::ostream& out) {
                    telemetry::write_metrics_json(
                        out, telemetry_observer.metrics());
                  })) {
    return EXIT_FAILURE;
  }
  // The timeline owns stdout; verification still gates the exit code.
  if (trace_to_stdout) return verdict;
  if (json) {
    core::write_json_report(std::cout, *ring, config, result, verification);
    return verdict;
  }

  if (trace_enabled) trace.print(std::cout);
  std::cout << "outcome: " << sim::outcome_name(result.outcome) << "\n";
  for (const auto& v : result.violations) {
    std::cout << "violation: " << v << "\n";
  }
  if (const auto leader = result.leader_pid()) {
    std::cout << "leader: p" << *leader << " (label "
              << words::to_string(ring->label(*leader)) << ")\n";
  }
  std::cout << "stats: " << result.stats.summary() << "\n";
  if (!quiet) {
    std::cout << "verification: " << verification.to_string() << "\n";
  }
  return verdict;
}
