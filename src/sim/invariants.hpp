// Runtime monitor for the leader-election specification (§II, bullets 1-4).
//
// Checked after every configuration step:
//   1. at most one process has isLeader = TRUE, and isLeader never reverts
//      TRUE → FALSE (irrevocability);
//   3. done never reverts; once p.done holds, some process L has
//      isLeader = TRUE with L.id = p.leader, and p.leader never changes
//      afterwards;
//   4. a process only halts after its done is TRUE.
// (Bullet 2 — every p.leader equals the elected label in the terminal
// configuration — is a terminal-state property checked by core::verify.)
//
// The monitor records violations instead of aborting: the impossibility
// experiments (E2) deliberately drive algorithms outside their class and
// observe exactly these violations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/observer.hpp"

namespace hring::sim {

class SpecMonitor : public Observer {
 public:
  void on_start(const ExecutionView& view) override;
  void on_step_end(const ExecutionView& view) override;

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool violated() const { return !violations_.empty(); }

  /// Step index of the first violation, if any.
  [[nodiscard]] std::optional<std::uint64_t> first_violation_step() const {
    return first_violation_step_;
  }

 private:
  struct Shadow {
    bool is_leader = false;
    bool done = false;
    bool halted = false;
    std::optional<Label> leader;
  };

  void report(const ExecutionView& view, const std::string& what);
  /// Reports `what` about process `pid`, rendered as "p<pid><what>".
  void report(const ExecutionView& view, ProcessId pid,
              std::string_view what);

  std::vector<Shadow> shadows_;
  std::vector<std::string> violations_;
  std::optional<std::uint64_t> first_violation_step_;
  static constexpr std::size_t kMaxRecorded = 32;
};

}  // namespace hring::sim
