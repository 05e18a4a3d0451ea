#include "sim/invariants.hpp"

#include "support/assert.hpp"

namespace hring::sim {

void SpecMonitor::on_start(const ExecutionView& view) {
  shadows_.assign(view.process_count(), Shadow{});
  for (ProcessId pid = 0; pid < view.process_count(); ++pid) {
    const Process& p = view.process(pid);
    // The spec requires isLeader and done to start FALSE.
    if (p.is_leader()) report(view, pid, ".isLeader TRUE initially");
    if (p.done()) report(view, pid, ".done TRUE initially");
  }
}

void SpecMonitor::on_step_end(const ExecutionView& view) {
  HRING_ASSERT(shadows_.size() == view.process_count());
  std::size_t leaders = 0;
  for (ProcessId pid = 0; pid < view.process_count(); ++pid) {
    const Process& p = view.process(pid);
    Shadow& shadow = shadows_[pid];

    if (p.is_leader()) ++leaders;
    if (shadow.is_leader && !p.is_leader()) {
      report(view, pid, ".isLeader reverted TRUE->FALSE");
    }
    if (shadow.done && !p.done()) {
      report(view, pid, ".done reverted TRUE->FALSE");
    }
    if (shadow.halted && !p.halted()) {
      report(view, pid, " resumed after halting");
    }
    if (p.halted() && !p.done()) {
      report(view, pid, " halted before done");
    }
    if (p.done()) {
      if (!p.leader().has_value()) {
        report(view, pid, ".done without p.leader set");
      } else {
        if (shadow.done && shadow.leader.has_value() &&
            !(*shadow.leader == *p.leader())) {
          report(view, pid, ".leader changed after done");
        }
        // Some current leader must carry the label p believes in.
        bool matched = false;
        for (ProcessId q = 0; q < view.process_count(); ++q) {
          const Process& cand = view.process(q);
          if (cand.is_leader() && cand.id() == *p.leader()) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          report(view, pid,
                 ".done but no leader carries label " +
                     words::to_string(*p.leader()));
        }
      }
    }

    shadow.is_leader = p.is_leader();
    shadow.done = p.done();
    shadow.halted = p.halted();
    shadow.leader = p.leader();
  }
  if (leaders > 1) {
    report(view, std::to_string(leaders) + " simultaneous leaders");
  }
}

void SpecMonitor::report(const ExecutionView& view, ProcessId pid,
                         std::string_view what) {
  std::string line(1, 'p');
  line += std::to_string(pid);
  line += what;
  report(view, line);
}

void SpecMonitor::report(const ExecutionView& view, const std::string& what) {
  if (!first_violation_step_.has_value()) {
    first_violation_step_ = view.current_step();
  }
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back("step " + std::to_string(view.current_step()) +
                          ": " + what);
  }
}

}  // namespace hring::sim
