#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace setsched::obs {

/// One trace event. `name`, `category`, and the arg strings are stored as
/// pointers, not copies — pass string literals or obs::intern() results.
/// dur_us < 0 marks an instant event ("i" in Chrome trace terms); dur_us >=
/// 0 a complete span ("X").
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint32_t track = 0;  ///< per-thread track id, assigned at registration
  double ts_us = 0.0;       ///< microseconds since start_trace()
  double dur_us = -1.0;
  const char* arg_str_name = nullptr;
  const char* arg_str = nullptr;
  const char* arg_num_name = nullptr;
  double arg_num = 0.0;
};

namespace internal {
extern std::atomic<bool> g_trace_enabled;
extern std::atomic<std::int64_t> g_trace_start_ns;
void append_event(const TraceEvent& event,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end);
}  // namespace internal

/// Runtime gate: one relaxed load + branch when tracing is off. With
/// SETSCHED_OBS_DISABLED the gate is compile-time false and every span /
/// instant emission folds away.
#ifdef SETSCHED_OBS_DISABLED
[[nodiscard]] inline constexpr bool trace_enabled() { return false; }
#else
[[nodiscard]] inline bool trace_enabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}
#endif

/// Starts a new trace: clears every registered per-thread buffer, resets the
/// epoch, and opens the gate. Events append lock-free into thread-local
/// buffers of `capacity_per_thread` events (drop-newest with a counter when
/// full; bulk instants are capped lower, see emit_bulk_instant). Call while
/// no spans are in flight on other threads (the CLIs call it before any
/// solver work starts).
void start_trace(std::size_t capacity_per_thread = std::size_t{1} << 20);

/// Closes the gate. Spans already in flight finish without recording.
void stop_trace();

/// Names the calling thread's track in the emitted trace ("worker-3", ...).
/// Cheap and safe to call with tracing disabled or compiled out; ThreadPool
/// workers call it once at startup.
void set_thread_track_name(std::string name);

/// Interns a runtime string (solver/preset names) into storage that outlives
/// the trace, returning a stable pointer usable as a TraceEvent field.
[[nodiscard]] const char* intern(std::string_view s);

/// Appends an instant event (a point-in-time marker: search-tree node
/// terminations, incumbent updates, refix events). No-op when tracing is
/// off.
void emit_instant(const char* name, const char* category,
                  const char* arg_str_name = nullptr,
                  const char* arg_str = nullptr,
                  const char* arg_num_name = nullptr, double arg_num = 0.0);

/// Share of a thread buffer that bulk instants may fill: 1 / kBulkShare.
inline constexpr std::size_t kBulkShare = 8;

/// Appends a high-volume instant (one per search-tree node). Bulk instants
/// fill at most 1/kBulkShare of a thread buffer; past that they are shed:
/// counted per name instead of recorded, so a long search cannot crowd
/// spans and rare instants out of the buffer. The shed counts are written
/// as "setschedShed", so the total per name still reconciles exactly.
void emit_bulk_instant(const char* name, const char* category,
                       const char* arg_str_name = nullptr,
                       const char* arg_str = nullptr,
                       const char* arg_num_name = nullptr,
                       double arg_num = 0.0);

/// RAII scoped span over steady_clock. Arms only if tracing is enabled at
/// construction; records a complete event on destruction (dropped if the
/// trace stopped in between). Args set via set_arg become the span's
/// Chrome-trace "args" object.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = nullptr) {
    if (trace_enabled()) {
      event_.name = name;
      event_.category = category;
      start_ = std::chrono::steady_clock::now();
      armed_ = true;
    }
  }
  ~TraceSpan() {
    if (armed_) {
      internal::append_event(event_, start_,
                             std::chrono::steady_clock::now());
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_arg(const char* arg_name, double value) {
    if (armed_) {
      event_.arg_num_name = arg_name;
      event_.arg_num = value;
    }
  }
  void set_arg(const char* arg_name, const char* value) {
    if (armed_) {
      event_.arg_str_name = arg_name;
      event_.arg_str = value;
    }
  }

 private:
  TraceEvent event_{};
  std::chrono::steady_clock::time_point start_{};
  bool armed_ = false;
};

struct TraceCounts {
  std::size_t events = 0;
  std::size_t dropped = 0;
  std::size_t shed = 0;  ///< bulk instants counted but not recorded
};

/// Totals across every registered thread buffer.
[[nodiscard]] TraceCounts trace_counts();

/// All recorded events merged across threads and sorted by (ts_us, track).
/// Call while no thread is appending (after the parallel work joined).
[[nodiscard]] std::vector<TraceEvent> collect_trace_events();

/// One (track id, track name) pair per registered thread.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::string>> track_names();

/// Writes the merged trace as Chrome trace-event JSON (object form with a
/// "traceEvents" array plus thread_name metadata), loadable in
/// chrome://tracing and Perfetto. Adds "setschedDropped" so consumers can
/// detect buffer overflow before reconciling event counts, and
/// "setschedShed" ({"<name>": count}) for the shed bulk instants.
void write_chrome_trace(std::ostream& os);

}  // namespace setsched::obs
