#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// One completed span, in the shape the program's own profiler exports
/// (rcgp::obs::SpanRecord): microsecond start and duration, a process-wide
/// id, the enclosing span on the same thread (0 = root), and a small
/// sequential thread id.
struct SpanRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> args; ///< numeric span args
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t tid = 0;
};

/// Spans the benchmark records around its calls into the program's public
/// API. They stay in memory and are written out once, at the end of the
/// traced run, as Chrome trace-event JSON with `span_id`/`span_parent`
/// args — the document `rcgp --profile-out` writes, so
/// `scripts/check_telemetry.py --profile` and `rcgp report --profile` read
/// it. While disabled a Scope costs one relaxed atomic load.
class Tracer {
public:
  class Scope {
  public:
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    Scope& arg(std::string_view key, double value);

  private:
    Tracer* tracer_ = nullptr; ///< null when tracing was off at entry
    SpanRecord record_;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  Scope span(std::string_view name) { return Scope(*this, name); }

  std::vector<SpanRecord> records() const;
  /// Summed duration, in seconds, of every span called `name`.
  double total_seconds(std::string_view name) const;

  std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;

private:
  void finish(SpanRecord record);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_; ///< guards records_
  std::vector<SpanRecord> records_;
};

/// The process-wide tracer the workloads record into.
Tracer& tracer();

} // namespace perfbench
