#include "obs/trace.h"

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "common/annotations.h"
#include "common/format.h"

namespace setsched::obs {

namespace {

/// Per-thread event buffer. Appends are lock-free (only the owning thread
/// writes); registration and flush take the registry mutex. Held by
/// shared_ptr from both the registry and the owning thread's thread_local,
/// so the events survive the thread exiting before the flush.
///
/// Deliberately NOT GUARDED_BY the registry mutex: `events`/`dropped` are
/// owner-thread-private while a trace runs and only read by the flush
/// functions after the parallel work joined (the start_trace contract). The
/// thread-safety analysis cannot express "exclusive until rendezvous"; the
/// TSan CI job checks the rendezvous discipline dynamically instead.
struct ThreadBuffer {
  std::vector<TraceEvent> events;  ///< capacity reserved up front, never grown
  std::size_t dropped = 0;
  std::size_t bulk = 0;  ///< bulk instants recorded in `events`
  /// Shed bulk instants per name. Names compare by content: the same
  /// literal may have different addresses in different translation units.
  std::vector<std::pair<std::string_view, std::size_t>> shed;
  /// Drop-newest threshold. Tracked separately from events.capacity():
  /// reserve() never shrinks, so a re-start_trace() with a smaller capacity
  /// must not inherit the old (larger) allocation as its limit.
  std::size_t capacity = 0;
  std::uint32_t track = 0;
  std::string track_name;
};

struct Registry {
  Mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers GUARDED_BY(mutex);
  std::size_t capacity GUARDED_BY(mutex) = std::size_t{1} << 20;
  std::uint32_t next_track GUARDED_BY(mutex) = 0;
  /// Interned strings: unordered_set never relocates its nodes, so c_str()
  /// pointers stay valid for the registry's (static) lifetime.
  std::unordered_set<std::string> interned GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* reg = new Registry();  // leaked: outlives exiting threads
  return *reg;
}

thread_local std::shared_ptr<ThreadBuffer> t_buffer;
thread_local std::string t_pending_track_name;

ThreadBuffer& local_buffer() {
  if (!t_buffer) {
    auto buffer = std::make_shared<ThreadBuffer>();
    Registry& reg = registry();
    const MutexLock lock(reg.mutex);
    buffer->track = reg.next_track++;
    buffer->track_name =
        t_pending_track_name.empty() ? "main" : t_pending_track_name;
    buffer->capacity = reg.capacity;
    buffer->events.reserve(reg.capacity);
    reg.buffers.push_back(buffer);
    t_buffer = std::move(buffer);
  }
  return *t_buffer;
}

double relative_us(std::chrono::steady_clock::time_point t) {
  const std::int64_t start =
      internal::g_trace_start_ns.load(std::memory_order_relaxed);
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t.time_since_epoch())
                              .count();
  return static_cast<double>(ns - start) * 1e-3;
}

void push(ThreadBuffer& buffer, const TraceEvent& event) {
  if (buffer.events.size() < buffer.capacity) {
    buffer.events.push_back(event);
  } else {
    ++buffer.dropped;
  }
}

TraceEvent make_instant(const ThreadBuffer& buffer, const char* name,
                        const char* category, const char* arg_str_name,
                        const char* arg_str, const char* arg_num_name,
                        double arg_num) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.track = buffer.track;
  event.ts_us = relative_us(std::chrono::steady_clock::now());
  event.dur_us = -1.0;
  event.arg_str_name = arg_str_name;
  event.arg_str = arg_str;
  event.arg_num_name = arg_num_name;
  event.arg_num = arg_num;
  return event;
}

void count_shed(ThreadBuffer& buffer, std::string_view name) {
  for (auto& [shed_name, count] : buffer.shed) {
    if (shed_name == name) {
      ++count;
      return;
    }
  }
  buffer.shed.emplace_back(name, 1);
}

}  // namespace

namespace internal {

std::atomic<bool> g_trace_enabled{false};
std::atomic<std::int64_t> g_trace_start_ns{0};

void append_event(const TraceEvent& event,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end) {
  // A span that outlived stop_trace() is dropped: the buffers may already be
  // flushed or reset for the next trace.
  if (!trace_enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  TraceEvent out = event;
  out.track = buffer.track;
  out.ts_us = relative_us(start);
  out.dur_us = std::max(0.0, relative_us(end) - out.ts_us);
  push(buffer, out);
}

}  // namespace internal

void start_trace(std::size_t capacity_per_thread) {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  reg.capacity = std::max<std::size_t>(capacity_per_thread, 16);
  for (const auto& buffer : reg.buffers) {
    buffer->events.clear();
    buffer->capacity = reg.capacity;
    buffer->events.reserve(reg.capacity);
    buffer->dropped = 0;
    buffer->bulk = 0;
    buffer->shed.clear();
  }
  internal::g_trace_start_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  internal::g_trace_enabled.store(true, std::memory_order_release);
}

void stop_trace() {
  internal::g_trace_enabled.store(false, std::memory_order_release);
}

void set_thread_track_name(std::string name) {
  if (t_buffer) {
    const MutexLock lock(registry().mutex);
    t_buffer->track_name = std::move(name);
  } else {
    t_pending_track_name = std::move(name);
  }
}

const char* intern(std::string_view s) {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  return reg.interned.emplace(s).first->c_str();
}

void emit_instant(const char* name, const char* category,
                  const char* arg_str_name, const char* arg_str,
                  const char* arg_num_name, double arg_num) {
  if (!trace_enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  push(buffer, make_instant(buffer, name, category, arg_str_name, arg_str,
                            arg_num_name, arg_num));
}

void emit_bulk_instant(const char* name, const char* category,
                       const char* arg_str_name, const char* arg_str,
                       const char* arg_num_name, double arg_num) {
  if (!trace_enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  if (buffer.bulk >= buffer.capacity / kBulkShare) {
    count_shed(buffer, name);
    return;
  }
  ++buffer.bulk;
  push(buffer, make_instant(buffer, name, category, arg_str_name, arg_str,
                            arg_num_name, arg_num));
}

TraceCounts trace_counts() {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  TraceCounts counts;
  for (const auto& buffer : reg.buffers) {
    counts.events += buffer->events.size();
    counts.dropped += buffer->dropped;
    for (const auto& [name, count] : buffer->shed) counts.shed += count;
  }
  return counts;
}

std::vector<TraceEvent> collect_trace_events() {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  std::vector<TraceEvent> events;
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->events.size();
  events.reserve(total);
  for (const auto& buffer : reg.buffers) {
    events.insert(events.end(), buffer->events.begin(), buffer->events.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                               : a.track < b.track;
                   });
  return events;
}

std::vector<std::pair<std::uint32_t, std::string>> track_names() {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  std::vector<std::pair<std::uint32_t, std::string>> names;
  names.reserve(reg.buffers.size());
  for (const auto& buffer : reg.buffers) {
    names.emplace_back(buffer->track, buffer->track_name);
  }
  return names;
}

namespace {

/// Shed bulk-instant counts per name, summed over every thread buffer.
std::map<std::string, std::size_t> shed_counts() {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  std::map<std::string, std::size_t> shed;
  for (const auto& buffer : reg.buffers) {
    for (const auto& [name, count] : buffer->shed) {
      shed[std::string(name)] += count;
    }
  }
  return shed;
}

}  // namespace

void write_chrome_trace(std::ostream& os) {
  const std::vector<TraceEvent> events = collect_trace_events();
  const TraceCounts counts = trace_counts();

  os << "{\"displayTimeUnit\":\"ms\",\"setschedDropped\":" << counts.dropped
     << ",\"setschedShed\":{";
  bool first_shed = true;
  for (const auto& [name, count] : shed_counts()) {
    if (!first_shed) os << ',';
    first_shed = false;
    write_json_string(os, name);
    os << ':' << count;
  }
  os << "},\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, name] : track_names()) {
    os << (first ? "\n" : ",\n")
       << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << track
       << ",\"args\":{\"name\":";
    write_json_string(os, name);
    os << "}}";
    first = false;
  }
  for (const TraceEvent& e : events) {
    os << (first ? "\n" : ",\n");
    first = false;
    const bool instant = e.dur_us < 0.0;
    os << "{\"ph\":\"" << (instant ? 'i' : 'X') << "\",\"name\":";
    write_json_string(os, e.name == nullptr ? "" : e.name);
    if (e.category != nullptr) {
      os << ",\"cat\":";
      write_json_string(os, e.category);
    }
    os << ",\"pid\":1,\"tid\":" << e.track << ",\"ts\":";
    write_shortest_double(os, e.ts_us);
    if (instant) {
      os << ",\"s\":\"t\"";  // thread-scoped instant
    } else {
      os << ",\"dur\":";
      write_shortest_double(os, e.dur_us);
    }
    if (e.arg_str_name != nullptr || e.arg_num_name != nullptr) {
      os << ",\"args\":{";
      if (e.arg_str_name != nullptr) {
        write_json_string(os, e.arg_str_name);
        os << ':';
        write_json_string(os, e.arg_str == nullptr ? "" : e.arg_str);
      }
      if (e.arg_num_name != nullptr) {
        if (e.arg_str_name != nullptr) os << ',';
        write_json_string(os, e.arg_num_name);
        os << ':';
        write_shortest_double(os, e.arg_num);
      }
      os << '}';
    }
    os << '}';
  }
  os << "\n]}\n";
}

}  // namespace setsched::obs
