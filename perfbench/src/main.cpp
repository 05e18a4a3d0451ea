// hring_perfbench: the repository's benchmark driver.
//
//   hring_perfbench --workload <sweep|inhost> --seed <n>
//                   --seconds <s> --trace <0|1> [--trace-out <file>]
//                   [--commit <id>] [--source-digest <hex>]
//
// --trace 0 measures the workload's end-to-end metrics with tracing off.
// --trace 1 is the separate traced run: it runs the workload traced and
// untraced in alternating passes (trace.overhead_ratio), then the
// per-layer ledger (ledger.hpp), writes every span to --trace-out as a
// Chrome/Perfetto trace and prints each layer's self time.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": x, "unit": u}, ...}}
// The exit code is 0 only when every operation passed its checks.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "stats.hpp"
#include "support/json.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Input generation plus warm-up is repeated this often; setup_s is the
/// median, and every repetition must produce the same input digest.
constexpr int kSetupReps = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "hring_perfbench: " << error
            << "\nusage: hring_perfbench --workload <sweep|inhost> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--commit <id>] [--source-digest <hex>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (flag == "--trace-out") {
        opts.trace_out = value;
      } else if (flag == "--commit") {
        opts.commit = value;
      } else if (flag == "--source-digest") {
        opts.source_digest = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::exception&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opts.seconds > 0.0 && opts.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return opts;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries it across execve, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Aggregate CPU time counters from /proc/stat: {steal, total} in ticks,
/// {0, 0} when unavailable. The steal share of a run tells how much of it
/// the host kept the virtual CPUs off their physical cores.
std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return {0, 0};
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;  // user nice system idle iowait irq softirq steal
  }
  return {steal, total};
}

/// Steal share of `after` - `before` (0 when /proc/stat is unavailable).
double steal_share_between(std::pair<std::uint64_t, std::uint64_t> before,
                           std::pair<std::uint64_t, std::uint64_t> after) {
  if (after.second <= before.second) return 0.0;
  return static_cast<double>(after.first - before.first) /
         static_cast<double>(after.second - before.second);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

/// One pass over the workload's inputs; returns its wall time and, when
/// `latency_us` is given, replaces its contents with each operation's wall
/// time per election.
double run_pass(Workload& w, Gate& gate, Tracer* tracer,
                std::vector<double>* latency_us) {
  const auto per_op = static_cast<double>(w.elections_per_op());
  if (latency_us != nullptr) latency_us->clear();
  const auto pass_start = Clock::now();
  for (std::size_t i = 0; i < w.family_size(); ++i) {
    const auto t0 = Clock::now();
    {
      Tracer::Scope op(tracer, "op");
      w.run(i, gate, tracer);
    }
    if (latency_us != nullptr) {
      latency_us->push_back(seconds_since(t0) * 1e6 / per_op);
    }
  }
  return seconds_since(pass_start);
}

struct Report {
  std::vector<Metric> metrics;
  /// Wall time of each pass, in order.
  std::vector<double> pass_s;
  /// Untraced run: latency samples over all passes and their tail, reported
  /// beside the metrics rather than as metrics (see README).
  std::uint64_t latency_samples = 0;
  double latency_p90_us = 0.0;
  double latency_p99_us = 0.0;
  std::optional<std::uint64_t> counts_digest;
};

/// End-to-end measurement, tracing off: whole passes over the inputs until
/// `seconds` have elapsed. Every metric is computed per pass and the
/// median over passes is reported, so a burst of host noise that spans
/// less than half of the run does not move it.
Report measure(Workload& w, const Options& opts, Gate& gate) {
  const double elections_per_pass = static_cast<double>(w.family_size()) *
                                    static_cast<double>(w.elections_per_op());
  std::vector<double> all_us;
  std::vector<double> pass_us;
  std::vector<double> pass_s;
  std::vector<double> pass_p50;
  const auto start = Clock::now();
  do {
    pass_s.push_back(run_pass(w, gate, nullptr, &pass_us));
    pass_p50.push_back(quantile(pass_us, 0.50));
    all_us.insert(all_us.end(), pass_us.begin(), pass_us.end());
  } while (seconds_since(start) < opts.seconds);
  Report report;
  report.pass_s = pass_s;
  report.latency_samples = all_us.size();
  report.latency_p90_us = quantile(all_us, 0.90);
  report.latency_p99_us = quantile(all_us, 0.99);
  const double check_s = median(pass_s);
  report.metrics = {
      {"elections_per_s", elections_per_pass / check_s, "1/s"},
      {"election_p50_us", median(pass_p50), "us"},
      {"check_s", check_s, "s"},
  };
  return report;
}

/// Traced run: alternating untraced/traced passes for the overhead ratio,
/// then the per-layer ledger.
Report measure_traced(Workload& w, const Options& opts, Gate& gate,
                      Tracer& tracer) {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  Report report;
  const auto start = Clock::now();
  do {
    report.pass_s.push_back(run_pass(w, gate, nullptr, nullptr));
    untraced_s += report.pass_s.back();
    report.pass_s.push_back(run_pass(w, gate, &tracer, nullptr));
    traced_s += report.pass_s.back();
  } while (seconds_since(start) < opts.seconds);
  const Ledger ledger = run_ledger(opts.seed, gate, tracer);
  report.metrics = ledger.metrics;
  report.metrics.push_back(
      {"trace.overhead_ratio", traced_s / untraced_s, "ratio"});
  report.counts_digest = ledger.counts_digest;
  return report;
}

void print_self_times(const Tracer& tracer) {
  const auto layers = tracer.layer_times();
  std::int64_t all_self = 0;
  for (const auto& [name, t] : layers) all_self += t.self_ns;
  std::printf("%-22s %10s %12s %12s %7s\n", "layer", "spans", "total_ms",
              "self_ms", "self%");
  for (const auto& [name, t] : layers) {
    std::printf("%-22.*s %10llu %12.3f %12.3f %6.1f%%\n",
                static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(t.spans),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6,
                100.0 * static_cast<double>(t.self_ns) /
                    static_cast<double>(std::max<std::int64_t>(all_self, 1)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  const std::unique_ptr<Workload> workload = make_workload(opts.workload);
  if (workload == nullptr) usage("unknown workload " + opts.workload);

  Gate gate;
  std::vector<double> setup_s;
  std::optional<std::uint64_t> inputs_digest;
  Tracer tracer;
  Report report;
  double steal_share = 0.0;
  try {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      const std::uint64_t digest = workload->generate(opts.seed, nullptr);
      workload->warm_up(gate);
      setup_s.push_back(seconds_since(t0));
      gate.check(!inputs_digest.has_value() || *inputs_digest == digest,
                 "input generation is not deterministic");
      inputs_digest = digest;
    }
    const auto ticks_before = cpu_ticks();
    report = opts.trace ? measure_traced(*workload, opts, gate, tracer)
                        : measure(*workload, opts, gate);
    steal_share = steal_share_between(ticks_before, cpu_ticks());
  } catch (const std::exception& e) {
    std::cerr << "hring_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (!opts.trace) {
    report.metrics.push_back({"setup_s", median(setup_s), "s"});
    report.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  }

  bool trace_written = true;
  if (opts.trace) {
    print_self_times(tracer);
    if (!opts.trace_out.empty()) {
      std::ofstream out(opts.trace_out);
      tracer.write(out);
      trace_written = static_cast<bool>(out);
      if (!trace_written) {
        std::cerr << "hring_perfbench: could not write " << opts.trace_out
                  << "\n";
      }
    }
  }

  // Provenance record: host, build and determinism digests.
  {
    hring::support::JsonWriter json(std::cout);
    json.begin_object().key("provenance").begin_object();
    json.key("workload").value(opts.workload);
    json.key("seed").value(opts.seed);
    json.key("seconds").value(opts.seconds);
    json.key("trace").value(opts.trace);
    json.key("nproc").value(
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.key("sweep_workers")
        .value(static_cast<std::uint64_t>(sweep_workers()));
    json.key("compiler").value(compiler());
    json.key("build_type").value(HRING_PERFBENCH_BUILD_TYPE);
    json.key("optimized").value(kOptimized);
    json.key("sanitizer").value(kSanitized);
    json.key("host_steal_share").value(steal_share);
    json.key("commit").value(opts.commit);
    json.key("source_digest").value(opts.source_digest);
    json.key("inputs_digest").value(hex(inputs_digest.value_or(0)));
    if (report.counts_digest.has_value()) {
      json.key("counts_digest").value(hex(*report.counts_digest));
    }
    json.key("pass_s").begin_array();
    for (const double s : report.pass_s) json.value(s);
    json.end_array();
    if (opts.trace) {
      json.key("spans").value(
          static_cast<std::uint64_t>(tracer.spans().size()));
    } else {
      json.key("latency_samples").value(report.latency_samples);
      json.key("latency_p90_us").value(report.latency_p90_us);
      json.key("latency_p99_us").value(report.latency_p99_us);
    }
    json.end_object().end_object();
    std::cout << "\n";
  }
  if (!kOptimized || kSanitized) {
    std::cerr << "hring_perfbench: WARNING: non-optimised or sanitizer "
                 "build; timings are not comparable\n";
  }
  for (const Metric& m : report.metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& msg : gate.messages()) {
    std::cerr << "hring_perfbench: FAILED: " << msg << "\n";
  }
  std::fflush(stdout);

  const bool correct = gate.failed() == 0 && trace_written;
  {
    hring::support::JsonWriter json(std::cout);
    json.begin_object();
    json.key("correct").value(correct);
    json.key("attempted").value(gate.attempted());
    json.key("failed").value(gate.failed());
    json.key("metrics").begin_object();
    for (const Metric& m : report.metrics) {
      json.key(m.name).begin_object();
      json.key("value").value(m.value);
      json.key("unit").value(m.unit);
      json.end_object();
    }
    json.end_object().end_object();
    std::cout << std::endl;
  }
  return correct ? 0 : 1;
}
