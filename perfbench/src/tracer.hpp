// Span recorder for the benchmark's traced run.
//
// Spans are opened by the benchmark itself around its calls into each
// library module (the span name is the layer: "core.campaign", "sim", ...),
// kept in memory, and written once at exit as a Chrome/Perfetto trace
// through telemetry::TraceEventWriter. A span's self time is its duration
// minus the durations of its direct children; the benchmark is
// single-threaded outside the library, so children never overlap.
//
// The untraced run passes a null Tracer*: Scope then does nothing, so the
// end-to-end numbers carry no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/trace_writer.hpp"

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string_view name;  // a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    std::uint64_t request = 0;  // shared by every span of one operation
  };

  struct LayerTime {
    std::uint64_t spans = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span for the lifetime of the scope; a null tracer records
  /// nothing. A root span (no open parent) starts a new request.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-name span count, total and self time.
  [[nodiscard]] std::map<std::string_view, LayerTime> layer_times() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string_view, LayerTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      LayerTime& t = out[s.name];
      ++t.spans;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += s.end_ns - s.start_ns - child_ns[i];
    }
    return out;
  }

  /// Writes every span as a complete ("X") event; args carry the span id,
  /// its parent id and its request id.
  void write(std::ostream& out) const {
    hring::telemetry::TraceEventWriter writer(out);
    writer.name_group(1, "hring perfbench");
    writer.name_track(1, 0, "benchmark thread");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& json = writer.begin_event(s.name, "X",
                                      static_cast<double>(s.start_ns) / 1e3,
                                      1, 0);
      json.key("dur").value(static_cast<double>(s.end_ns - s.start_ns) /
                            1e3);
      json.key("args").begin_object();
      json.key("id").value(static_cast<std::uint64_t>(i));
      json.key("parent").value(s.parent);
      json.key("request").value(s.request);
      json.end_object();
      writer.end_event();
    }
    writer.finish(out);
  }

 private:
  std::size_t open(std::string_view name) {
    Span s;
    s.name = name;
    if (open_.empty()) {
      s.request = ++requests_;
    } else {
      s.parent = static_cast<std::int64_t>(open_.back());
      s.request = spans_[open_.back()].request;
    }
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t requests_ = 0;
};

}  // namespace perfbench
