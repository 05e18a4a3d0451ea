#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "core/model_checker.hpp"
#include "core/verification.hpp"
#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "runtime/inhost/inhost_ring.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace hring;

void Digest::add(std::uint64_t v) {
  std::uint64_t s = state_ ^ v;
  state_ = support::splitmix64(s);
}

void Digest::add(const ring::LabeledRing& r) {
  add(static_cast<std::uint64_t>(r.size()));
  for (const auto& label : r.labels()) add(label.value());
}

std::size_t sweep_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

core::ElectionConfig sim_config(std::uint64_t election_seed) {
  core::ElectionConfig config;
  config.algorithm = {election::AlgorithmId::kBk, kSimK, false};
  config.scheduler = core::SchedulerKind::kRandomSubset;
  config.seed = election_seed;
  return config;
}

runtime::InHostConfig inhost_config() {
  runtime::InHostConfig config;
  config.record_trace = false;
  config.flight_recorder = false;
  return config;
}

core::SweepConfig sweep_config(std::size_t cells) {
  core::SweepConfig config;
  config.election.algorithm = {election::AlgorithmId::kAk, kSweepK, false};
  config.source = core::RingSource::random_asymmetric(kSweepN);
  config.cells = cells;
  config.workers = sweep_workers();
  config.backend = core::CampaignBackend::kAuto;
  config.check_true_leader = true;
  return config;
}

std::vector<std::uint64_t> sweep_seeds(std::uint64_t seed) {
  support::Rng rng(seed ^ 0x5357454550ULL);  // "SWEEP"
  std::vector<std::uint64_t> seeds(kSweepCampaigns);
  for (auto& s : seeds) s = rng();
  return seeds;
}

namespace {

/// `count` random rings of A ∩ K_k of size n, each with its checks.
std::vector<RingInput> ring_inputs(std::uint64_t seed, std::size_t count,
                                   std::size_t n, std::size_t k, bool ak,
                                   Tracer* tracer) {
  std::vector<RingInput> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const core::CellSeeds seeds = core::derive_cell_seeds(seed, i);
    support::Rng rng(seeds.ring_seed);
    auto r = ring::random_asymmetric_ring(n, k, default_alphabet(n, k), rng);
    if (!r.has_value()) {
      throw std::runtime_error("could not sample an asymmetric ring");
    }
    RingInput input{std::move(*r), seeds.election_seed, 0, 0, 0};
    {
      Tracer::Scope span(tracer, "ring");
      input.leader = input.ring.true_leader();
    }
    const std::size_t b = input.ring.label_bits();
    if (ak) {
      input.space_bound_bits = core::ak_space_bound(n, k, b);
      input.message_bound = core::ak_message_bound(n, k);
    } else {
      input.space_bound_bits = core::bk_space_bound(k, b);
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
}

std::uint64_t digest_inputs(const std::vector<RingInput>& inputs) {
  Digest d;
  for (const RingInput& in : inputs) {
    d.add(in.ring);
    d.add(in.election_seed);
  }
  return d.value();
}

}  // namespace

std::vector<RingInput> sim_inputs(std::uint64_t seed, std::size_t count,
                                  Tracer* tracer) {
  return ring_inputs(seed ^ 0x454C454354ULL /* "ELECT" */, count, kSimN,
                     kSimK, false, tracer);
}

std::vector<RingInput> inhost_inputs(std::uint64_t seed, std::size_t count,
                                     Tracer* tracer) {
  return ring_inputs(seed ^ 0x494E484F5354ULL /* "INHOST" */, count, kInhostN,
                     kInhostK, true, tracer);
}

std::vector<ring::LabeledRing> modelcheck_family(std::uint64_t seed) {
  auto family = ring::enumerate_rings(kModelCheckN, 2, true, true);
  support::Rng rng(seed ^ 0x4D43ULL);  // "MC"
  for (std::size_t i = family.size(); i > 1; --i) {
    std::swap(family[i - 1], family[rng.below(i)]);
  }
  return family;
}

std::vector<std::string> check_election(const RingInput& input,
                                        const sim::RunResult& result,
                                        Tracer* tracer) {
  std::vector<std::string> errors;
  if (result.outcome != sim::Outcome::kTerminated) {
    errors.push_back(std::string("outcome ") +
                     sim::outcome_name(result.outcome));
  }
  core::VerificationReport report;
  {
    Tracer::Scope span(tracer, "core.verification");
    report = core::verify_election(input.ring, result, true);
  }
  if (!report.ok) errors.push_back(report.to_string());
  const auto leader = result.leader_pid();
  if (!leader.has_value() || *leader != input.leader) {
    errors.push_back("leader is not ring.true_leader() = p" +
                     std::to_string(input.leader));
  }
  if (result.stats.peak_space_bits > input.space_bound_bits) {
    errors.push_back("peak space " +
                     std::to_string(result.stats.peak_space_bits) +
                     " bits exceeds the bound " +
                     std::to_string(input.space_bound_bits));
  }
  if (input.message_bound != 0 &&
      result.stats.messages_sent > input.message_bound) {
    errors.push_back("messages " +
                     std::to_string(result.stats.messages_sent) +
                     " exceed the bound " +
                     std::to_string(input.message_bound));
  }
  return errors;
}

namespace {

class SweepWorkload final : public Workload {
 public:
  std::uint64_t generate(std::uint64_t seed, Tracer*) override {
    seeds_ = sweep_seeds(seed);
    Digest d;
    d.add(kSweepN);
    d.add(kSweepK);
    d.add(kSweepCellsPerCampaign);
    for (std::uint64_t s : seeds_) d.add(s);
    return d.value();
  }

  void warm_up(Gate& gate) override {
    for (std::size_t i = 0; i < 12; ++i) run(i, gate, nullptr);
  }

  [[nodiscard]] std::size_t family_size() const override {
    return seeds_.size();
  }
  [[nodiscard]] std::size_t elections_per_op() const override {
    return kSweepCellsPerCampaign;
  }

  void run(std::size_t i, Gate& gate, Tracer* tracer) override {
    core::SweepConfig config = sweep_config(kSweepCellsPerCampaign);
    config.seed = seeds_[i];
    core::CampaignResult result;
    {
      Tracer::Scope span(tracer, "core.campaign");
      result = core::run_campaign(config);
    }
    std::vector<std::string> errors;
    if (result.cells != config.cells) errors.push_back("cell count");
    if (!result.all_verified()) {
      errors.push_back(std::to_string(result.verify_failures) +
                       " cells failed verification");
    }
    if (result.outcome_count(sim::Outcome::kTerminated) != config.cells) {
      errors.push_back("not every cell terminated");
    }
    gate.record(errors);
  }

 private:
  std::vector<std::uint64_t> seeds_;
};

class InhostWorkload final : public Workload {
 public:
  std::uint64_t generate(std::uint64_t seed, Tracer* tracer) override {
    inputs_ = inhost_inputs(seed, kInhostInputs, tracer);
    factory_ =
        election::make_factory({election::AlgorithmId::kAk, kInhostK, false});
    return digest_inputs(inputs_);
  }

  void warm_up(Gate& gate) override {
    for (std::size_t i = 0; i < 128; ++i) run(i, gate, nullptr);
  }

  [[nodiscard]] std::size_t family_size() const override {
    return inputs_.size();
  }

  void run(std::size_t i, Gate& gate, Tracer* tracer) override {
    runtime::InHostResult result;
    {
      Tracer::Scope span(tracer, "runtime.inhost");
      result =
          runtime::run_inhost(inputs_[i].ring, factory_, inhost_config());
    }
    gate.record(check_inhost(inputs_[i], result, tracer));
  }

 private:
  std::vector<RingInput> inputs_;
  sim::ProcessFactory factory_;
};

}  // namespace

std::vector<std::string> check_inhost(const RingInput& input,
                                      const runtime::InHostResult& result,
                                      Tracer* tracer) {
  sim::RunResult as_run;
  as_run.outcome = result.outcome;
  as_run.processes = result.processes;
  as_run.stats.messages_sent = result.messages_sent;
  as_run.stats.messages_received = result.messages_received;
  as_run.stats.actions = result.actions;
  as_run.stats.peak_space_bits = result.peak_space_bits;
  std::vector<std::string> errors = check_election(input, as_run, tracer);
  if (result.wire_rejects != 0) {
    errors.push_back(std::to_string(result.wire_rejects) + " wire rejects");
  }
  if (result.sends_abandoned != 0) {
    errors.push_back(std::to_string(result.sends_abandoned) +
                     " sends abandoned");
  }
  return errors;
}

std::vector<std::string> check_report(const core::ModelCheckReport& report) {
  std::vector<std::string> errors;
  if (!report.complete) errors.push_back("model check not exhaustive");
  if (!report.ok) errors.push_back(report.to_string());
  return errors;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "sweep") return std::make_unique<SweepWorkload>();
  if (name == "inhost") return std::make_unique<InhostWorkload>();
  return nullptr;
}

}  // namespace perfbench
