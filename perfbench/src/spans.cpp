#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.hpp"
#include "obs/json.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            kEpoch)
          .count());
}

std::atomic<std::uint32_t> g_next_tid{1};

struct ThreadState {
  std::uint32_t tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint64_t> open; ///< ids of the spans open on this thread
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}


} // namespace

Tracer::Scope::Scope(Tracer& tracer, std::string_view name) {
  if (!tracer.enabled()) {
    return;
  }
  tracer_ = &tracer;
  ThreadState& ts = thread_state();
  record_.name = std::string(name);
  record_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = ts.open.empty() ? 0 : ts.open.back();
  record_.tid = ts.tid;
  ts.open.push_back(record_.id);
  record_.start_us = now_us();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  record_.dur_us = now_us() - record_.start_us;
  thread_state().open.pop_back();
  tracer_->finish(std::move(record_));
}

Tracer::Scope& Tracer::Scope::arg(std::string_view key, double value) {
  if (tracer_ != nullptr) {
    record_.args.emplace_back(std::string(key), value);
  }
  return *this;
}

void Tracer::finish(SpanRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

double Tracer::total_seconds(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t us = 0;
  for (const SpanRecord& r : records_) {
    if (r.name == name) {
      us += r.dur_us;
    }
  }
  return static_cast<double>(us) * 1e-6;
}

std::string Tracer::chrome_trace_json() const {
  std::vector<SpanRecord> spans = records();
  // By thread, then start, longest first on ties, so parents precede the
  // spans they enclose (the order the program's exporter uses).
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.tid != b.tid) {
                       return a.tid < b.tid;
                     }
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     return a.dur_us > b.dur_us;
                   });
  std::vector<std::uint32_t> tids;
  for (const SpanRecord& r : spans) {
    if (tids.empty() || tids.back() != r.tid) {
      tids.push_back(r.tid);
    }
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"perfbench\"}}";
  for (const std::uint32_t tid : tids) {
    const std::string t = std::to_string(tid);
    out += ",{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += t;
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"perfbench-";
    out += t;
    out += "\"}}";
  }
  for (const SpanRecord& r : spans) {
    out += ",{\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(r.tid);
    out += ",\"name\":\"";
    out += rcgp::obs::json::escape(r.name);
    out += "\",\"cat\":\"perfbench\",\"ts\":";
    out += std::to_string(r.start_us);
    out += ",\"dur\":";
    out += std::to_string(r.dur_us);
    out += ",\"args\":{";
    for (const auto& [k, v] : r.args) {
      out += '"';
      out += rcgp::obs::json::escape(k);
      out += "\":";
      out += number(v);
      out += ',';
    }
    out += "\"span_id\":";
    out += std::to_string(r.id);
    out += ",\"span_parent\":";
    out += std::to_string(r.parent);
    out += "}}";
  }
  out += "]}";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::string doc = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

} // namespace perfbench
