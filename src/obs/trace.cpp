#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"

namespace rt3 {

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string trace_json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string trace_json_num(double value) {
  // %.17g is the repo-wide float wire format (see tuner/governor
  // artifacts): 17 significant digits round-trip every double exactly,
  // where the former precision(15) rendering silently lost the low bits.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

TraceEvent& TraceEvent::arg(const std::string& key, double value) {
  args.emplace_back(key, trace_json_num(value));
  return *this;
}

TraceEvent& TraceEvent::arg(const std::string& key, std::int64_t value) {
  args.emplace_back(key, std::to_string(value));
  return *this;
}

TraceEvent& TraceEvent::arg(const std::string& key,
                            const std::string& value) {
  std::string quoted = "\"";
  quoted += trace_json_escape(value);
  quoted += '"';
  args.emplace_back(key, std::move(quoted));
  return *this;
}

TraceRecorder::TraceRecorder(bool record_wall)
    : TraceRecorder(TraceConfig{record_wall, 0}) {}

TraceRecorder::TraceRecorder(const TraceConfig& config)
    : recorder_id_(next_recorder_id()), t0_(wall_now()), config_(config) {}

TraceRecorder::Buffer* TraceRecorder::local_buffer() {
  // Cache keyed by a unique recorder id, not the address: a recorder
  // constructed at a dead one's address must not inherit its buffer.
  // Lookup-only map: never iterated, so hash order cannot leak into any
  // output.
  // rt3-lint: allow(raw-parallel, hash-order) per-thread lookup-only cache
  thread_local std::unordered_map<std::uint64_t, Buffer*> cache;
  const auto it = cache.find(recorder_id_);
  if (it != cache.end()) {
    return it->second;
  }
  MutexLock lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buffer = buffers_.back().get();
  cache[recorder_id_] = buffer;
  return buffer;
}

void TraceRecorder::record(TraceEvent event) {
  if (config_.max_events > 0 &&
      admitted_.fetch_add(1, std::memory_order_relaxed) >=
          config_.max_events) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  local_buffer()->events.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  struct Keyed {
    const TraceEvent* event;
    std::size_t seq;  // per-thread append order, the last tie-break
  };
  std::vector<Keyed> keyed;
  {
    MutexLock lock(mu_);
    for (const auto& buffer : buffers_) {
      for (std::size_t i = 0; i < buffer->events.size(); ++i) {
        keyed.push_back({&buffer->events[i], i});
      }
    }
  }
  // Canonical order: virtual time first, then stable content keys so the
  // merge is independent of which thread recorded what and of buffer
  // registration order.
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     const TraceEvent& x = *a.event;
                     const TraceEvent& y = *b.event;
                     if (x.ts_ms != y.ts_ms) {
                       return x.ts_ms < y.ts_ms;
                     }
                     if (x.tid != y.tid) {
                       return x.tid < y.tid;
                     }
                     if (x.cat != y.cat) {
                       return x.cat < y.cat;
                     }
                     if (x.name != y.name) {
                       return x.name < y.name;
                     }
                     if (x.id != y.id) {
                       return x.id < y.id;
                     }
                     return a.seq < b.seq;
                   });
  std::vector<TraceEvent> out;
  out.reserve(keyed.size());
  for (const Keyed& k : keyed) {
    out.push_back(*k.event);
  }
  return out;
}

std::int64_t TraceRecorder::num_events() const {
  MutexLock lock(mu_);
  std::int64_t n = 0;
  for (const auto& buffer : buffers_) {
    n += static_cast<std::int64_t>(buffer->events.size());
  }
  return n;
}

std::string TraceRecorder::to_chrome_json() const {
  const std::vector<TraceEvent> events = merged();
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  // Metadata: name every track so Perfetto shows lanes, not bare tids.
  std::vector<std::int64_t> tids;
  for (const TraceEvent& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  for (const std::int64_t tid : tids) {
    const std::string lane =
        tid == 0 ? "node: governor + battery"
                 : "model " + std::to_string(tid - 1);
    os << (first ? "" : ",\n") << "  {\"name\": \"thread_name\", \"ph\": "
       << "\"M\", \"pid\": 1, \"tid\": " << tid
       << ", \"args\": {\"name\": \"" << lane << "\"}}";
    first = false;
  }
  for (const TraceEvent& e : events) {
    os << (first ? "" : ",\n") << "  {\"name\": \"" << trace_json_escape(e.name)
       << "\", \"cat\": \"" << trace_json_escape(e.cat) << "\", \"ph\": \""
       << e.ph << "\", \"ts\": " << trace_json_num(e.ts_ms * 1000.0)
       << ", \"pid\": 1, \"tid\": " << e.tid;
    if (e.ph == 'X') {
      os << ", \"dur\": " << trace_json_num(e.dur_ms * 1000.0);
    }
    if (e.ph == 'i') {
      os << ", \"s\": \"t\"";  // instant scope: thread
    }
    if (e.id >= 0 || !e.args.empty()) {
      os << ", \"args\": {";
      bool first_arg = true;
      if (e.id >= 0) {
        os << "\"id\": " << e.id;
        first_arg = false;
      }
      for (const auto& [key, value] : e.args) {
        os << (first_arg ? "" : ", ") << "\"" << trace_json_escape(key)
           << "\": " << value;
        first_arg = false;
      }
      os << "}";
    }
    os << "}";
    first = false;
  }
  // Footer: how complete this trace is.  Extra top-level keys are legal
  // in the JSON-object trace format and ignored by Perfetto.
  os << "\n], \"rt3\": {\"max_events\": " << config_.max_events
     << ", \"dropped_events\": " << dropped_events() << "}}\n";
  return os.str();
}

void TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  check(out.good(), "TraceRecorder: cannot open " + path);
  out << to_chrome_json();
}

}  // namespace rt3
