// src/obs unit tests: phase-name pins, PhaseTimer accumulation
// semantics, and — the load-bearing one — trace-buffer thread safety: many
// workers emitting spans concurrently under the real ThreadPool must lose
// nothing, duplicate nothing, and keep per-track timestamps monotone after
// the merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched::obs {
namespace {

// The suites mutate the process-wide timing/tracing gates; restore the
// defaults so test order never matters.
struct GateGuard {
  ~GateGuard() {
    set_timing_enabled(false);
    stop_trace();
  }
};

TEST(ObsPhase, NamesAreDistinctAndStable) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const std::string_view name = phase_name(static_cast<Phase>(i));
    EXPECT_FALSE(name.empty()) << i;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kPhaseCount);
  // Serialization contract: these names are in JSONL files in the wild.
  EXPECT_EQ(phase_name(Phase::kLpSolve), "lp_solve");
  EXPECT_EQ(phase_name(Phase::kRootBound), "root_bound");
  EXPECT_EQ(phase_name(Phase::kColgenPricing), "colgen_pricing");
}

TEST(ObsPhase, PhaseTimesArithmeticAndEmptiness) {
  PhaseTimes a;
  EXPECT_TRUE(a.empty());
  a[Phase::kLpSolve] = 3.0;
  a[Phase::kDive] = 1.0;
  EXPECT_FALSE(a.empty());
  EXPECT_DOUBLE_EQ(a.lp_ms(), 3.0);

  PhaseTimes b;
  b[Phase::kLpSolve] = 1.0;
  const PhaseTimes d = a - b;
  EXPECT_DOUBLE_EQ(d[Phase::kLpSolve], 2.0);
  EXPECT_DOUBLE_EQ(d[Phase::kDive], 1.0);

  PhaseTimes c = b;
  c += d;
  EXPECT_EQ(c, a);
}

TEST(ObsPhase, TimerAccumulatesOnlyWhenEnabled) {
  const GateGuard guard;
  set_timing_enabled(false);
  const PhaseTimes before = phase_snapshot();
  {
    const PhaseTimer timer(Phase::kLpFtran);
  }
  EXPECT_TRUE((phase_snapshot() - before).empty());

  set_timing_enabled(true);
  {
    const PhaseTimer timer(Phase::kLpFtran);
    // Spin briefly so the span is strictly positive even on coarse clocks.
    double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink += static_cast<double>(i);
    ASSERT_GT(sink, 0.0);
  }
  const PhaseTimes delta = phase_snapshot() - before;
#ifdef SETSCHED_OBS_DISABLED
  EXPECT_TRUE(delta.empty());
#else
  EXPECT_GT(delta[Phase::kLpFtran], 0.0);
  EXPECT_DOUBLE_EQ(delta[Phase::kLpBtran], 0.0);
#endif
}

// Regression pin for the harness's per-cell attribution: phase_ms is the
// delta of two thread-local snapshots taken around solve(), so a pool worker
// that runs several cells back-to-back must never leak cell A's phase time
// into cell B's delta even though the worker's accumulator only ever grows.
TEST(PhaseLedger, WorkerReuseKeepsCellDeltasDisjoint) {
  const GateGuard guard;
  set_timing_enabled(true);
  constexpr std::size_t kCells = 8;  // 8 cells on 2 workers => heavy reuse
  std::array<PhaseTimes, kCells> deltas;
  ThreadPool pool(2);
  pool.parallel_for(0, kCells, [&deltas](std::size_t cell) {
    const PhaseTimes before = phase_snapshot();
    // Direct accumulator write: deterministic, gate-independent stand-in for
    // the PhaseTimer spans a real solve would record on this worker.
    internal::local_phase_times()[static_cast<Phase>(cell)] +=
        5.0 + static_cast<double>(cell);
    deltas[cell] = phase_snapshot() - before;  // slot-exclusive, like records
  });
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const double expected =
          p == cell ? 5.0 + static_cast<double>(cell) : 0.0;
      EXPECT_DOUBLE_EQ(deltas[cell].ms[p], expected)
          << "cell " << cell << " phase " << phase_name(static_cast<Phase>(p));
    }
  }
}

// Same property on one thread across sequential "cells" (the --all task path
// and threads=1 sweeps): each delta covers exactly its own cell.
TEST(PhaseLedger, SequentialCellsOnOneThreadStayDisjoint) {
  const GateGuard guard;
  set_timing_enabled(true);
  const PhaseTimes before_a = phase_snapshot();
  internal::local_phase_times()[Phase::kDive] += 3.0;
  const PhaseTimes delta_a = phase_snapshot() - before_a;

  const PhaseTimes before_b = phase_snapshot();
  internal::local_phase_times()[Phase::kProve] += 4.0;
  const PhaseTimes delta_b = phase_snapshot() - before_b;

  EXPECT_DOUBLE_EQ(delta_a[Phase::kDive], 3.0);
  EXPECT_DOUBLE_EQ(delta_a[Phase::kProve], 0.0);
  EXPECT_DOUBLE_EQ(delta_b[Phase::kProve], 4.0);
  EXPECT_DOUBLE_EQ(delta_b[Phase::kDive], 0.0) << "cell A leaked into cell B";
}

#ifndef SETSCHED_OBS_DISABLED

TEST(ObsTrace, SpanAndInstantLifecycle) {
  const GateGuard guard;
  start_trace();
  {
    TraceSpan span("outer", "test");
    span.set_arg("value", 42.0);
    const TraceSpan inner("inner", "test");
    emit_instant("marker", "test", "reason", "because", "depth", 2.0);
  }
  stop_trace();

  const std::vector<TraceEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(trace_counts().events, 3u);
  EXPECT_EQ(trace_counts().dropped, 0u);

  // Destruction order records inner-first... but the merge sorts by ts, so
  // the instant (emitted inside both spans) comes after neither span starts.
  const auto find = [&](const std::string& name) {
    const auto it =
        std::find_if(events.begin(), events.end(), [&](const TraceEvent& e) {
          return name == e.name;
        });
    EXPECT_NE(it, events.end()) << name;
    return *it;
  };
  const TraceEvent outer = find("outer");
  const TraceEvent inner = find("inner");
  const TraceEvent marker = find("marker");
  EXPECT_GE(outer.dur_us, 0.0);
  EXPECT_GE(inner.dur_us, 0.0);
  EXPECT_LT(marker.dur_us, 0.0);  // instant
  EXPECT_STREQ(marker.arg_str_name, "reason");
  EXPECT_STREQ(marker.arg_str, "because");
  EXPECT_DOUBLE_EQ(marker.arg_num, 2.0);
  EXPECT_DOUBLE_EQ(outer.arg_num, 42.0);
  // Nesting: inner lies within outer on the same track.
  EXPECT_EQ(outer.track, inner.track);
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us);
}

TEST(ObsTrace, NothingRecordsWhileDisabled) {
  const GateGuard guard;
  stop_trace();
  {
    const TraceSpan span("ghost", "test");
    emit_instant("ghost", "test");
  }
  start_trace();
  stop_trace();  // start_trace clears buffers; nothing new recorded
  EXPECT_EQ(trace_counts().events, 0u);
  EXPECT_TRUE(collect_trace_events().empty());
}

// The tentpole thread-safety pin: N pool workers each record M spans
// concurrently. After the merge: no lost events, no duplicates, per-track
// timestamps monotone, zero dropped.
TEST(ObsTrace, ConcurrentSpansSurviveMergeIntact) {
  const GateGuard guard;
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kSpansPerTask = 50;
  constexpr std::size_t kTasks = 64;

  ThreadPool pool(kWorkers);
  start_trace();
  pool.parallel_for(0, kTasks, [&](std::size_t task) {
    for (std::size_t s = 0; s < kSpansPerTask; ++s) {
      TraceSpan span("work", "test");
      span.set_arg("id", static_cast<double>(task * kSpansPerTask + s));
    }
  });
  stop_trace();

  const std::vector<TraceEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), kTasks * kSpansPerTask);
  EXPECT_EQ(trace_counts().dropped, 0u);

  // Every span id 0..N-1 exactly once: nothing lost, nothing duplicated.
  std::vector<char> seen(kTasks * kSpansPerTask, 0);
  for (const TraceEvent& e : events) {
    const auto id = static_cast<std::size_t>(e.arg_num);
    ASSERT_LT(id, seen.size());
    EXPECT_EQ(seen[id], 0) << "duplicate span id " << id;
    seen[id] = 1;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(seen.size()));

  // Per-track monotone timestamps after the global (ts, track) sort, and
  // every track is a named pool worker.
  std::map<std::uint32_t, double> last_ts;
  for (const TraceEvent& e : events) {
    const auto it = last_ts.find(e.track);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, e.ts_us);
    }
    last_ts[e.track] = e.ts_us;
  }
  EXPECT_LE(last_ts.size(), kWorkers);
  std::map<std::uint32_t, std::string> names;
  for (const auto& [track, name] : track_names()) names[track] = name;
  for (const auto& [track, ts] : last_ts) {
    (void)ts;
    ASSERT_TRUE(names.contains(track));
    EXPECT_EQ(names[track].rfind("worker-", 0), 0u) << names[track];
  }
}

TEST(ObsTrace, DropNewestCountsOverflow) {
  const GateGuard guard;
  // start_trace floors the per-thread capacity at 16; also pins that a
  // smaller capacity takes effect even after a prior larger trace (the
  // limit must not be the vector's high-water allocation).
  start_trace(/*capacity_per_thread=*/16);
  for (int i = 0; i < 20; ++i) emit_instant("tick", "test");
  stop_trace();
  EXPECT_EQ(trace_counts().events, 16u);
  EXPECT_EQ(trace_counts().dropped, 4u);
}

TEST(ObsTrace, BulkInstantsAreShedPastTheirShareAndCounted) {
  const GateGuard guard;
  // 64 events per thread: bulk instants may take 64 / kBulkShare = 8 slots;
  // the rest are counted per name, and spans still fit afterwards.
  start_trace(/*capacity_per_thread=*/64);
  for (int i = 0; i < 20; ++i) emit_bulk_instant("node", "exact");
  for (int i = 0; i < 3; ++i) emit_bulk_instant("beam", "exact");
  { const TraceSpan span("prove", "exact"); }
  stop_trace();
  EXPECT_EQ(trace_counts().events, 64u / kBulkShare + 1);
  EXPECT_EQ(trace_counts().dropped, 0u);
  EXPECT_EQ(trace_counts().shed, 20u + 3u - 64u / kBulkShare);

  std::ostringstream os;
  write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"setschedShed\":{\"beam\":3,\"node\":12}"),
            std::string::npos)
      << os.str();
}

TEST(ObsTrace, ChromeJsonIsWellFormedAndCarriesMetadata) {
  const GateGuard guard;
  start_trace();
  set_thread_track_name("main");
  {
    TraceSpan span(intern("exact-dive"), "solve");
    span.set_arg("preset", intern("unrelated-small"));
    emit_instant("node", "exact", "reason", "beam", "depth", 1.0);
  }
  stop_trace();

  std::ostringstream os;
  write_chrome_trace(os);
  const std::string out = os.str();

  EXPECT_EQ(out.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(out.find("\"setschedDropped\":0"), std::string::npos);
  EXPECT_NE(out.find("\"setschedShed\":{}"), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);  // thread_name meta
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"exact-dive\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"reason\":\"beam\""), std::string::npos);
  // Balanced braces/brackets: cheap structural well-formedness check (the CI
  // python validator does the real JSON parse).
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

// Track names, interned span names and string args are arbitrary text: a
// tab, newline or other control byte must reach the trace as a JSON escape,
// never raw (a raw one makes the whole file invalid JSON).
TEST(ObsTrace, ControlCharactersInNamesAreEscaped) {
  const GateGuard guard;
  start_trace();
  set_thread_track_name("track\tone\nend");
  {
    TraceSpan span(intern("span\tname\x01"), "solve");
    span.set_arg("preset", intern("line\nbreak"));
  }
  stop_trace();
  std::ostringstream os;
  write_chrome_trace(os);
  const std::string out = os.str();
  set_thread_track_name("main");

  EXPECT_NE(out.find(R"("name":"track\tone\nend")"), std::string::npos)
      << out;
  EXPECT_NE(out.find(R"("name":"span\tname\u0001")"), std::string::npos)
      << out;
  EXPECT_NE(out.find(R"("preset":"line\nbreak")"), std::string::npos)
      << out;
  // The writer's own line breaks separate events; no other control byte
  // may appear, and every line break starts an event or closes the array.
  for (std::size_t i = 0; i < out.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(out[i]);
    if (c >= 0x20) continue;
    ASSERT_EQ(c, '\n') << "raw control byte at " << i;
    if (i + 1 < out.size()) {
      EXPECT_TRUE(out[i + 1] == '{' || out[i + 1] == ']')
          << "raw line break inside a value at " << i;
    }
  }
}

#endif  // SETSCHED_OBS_DISABLED

}  // namespace
}  // namespace setsched::obs
