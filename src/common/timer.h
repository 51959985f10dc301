#pragma once

#include <chrono>
#include <optional>

namespace setsched {

/// Wall-clock stopwatch over std::chrono::steady_clock.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  [[nodiscard]] double elapsed_seconds() const {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start_).count();
  }

  [[nodiscard]] double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// `seconds` from now, or `cap` when that comes first. A span beyond the
/// clock's range (say --time-limit=1e300) sets no deadline of its own: its
/// conversion to clock ticks would overflow, into the past. A span <= 0 is
/// now. This is the one seconds-to-deadline conversion of the library;
/// tools/lint_invariants.py (rule `deadline`) keeps it that way.
[[nodiscard]] inline std::chrono::steady_clock::time_point deadline_in(
    double seconds,
    const std::optional<std::chrono::steady_clock::time_point>& cap =
        std::nullopt) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> room = Clock::time_point::max() - now;
  Clock::time_point at = Clock::time_point::max();
  if (!(seconds > 0.0)) {
    at = now;
  } else if (seconds < 0.5 * room.count()) {
    at = now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  }
  return cap && *cap < at ? *cap : at;
}

}  // namespace setsched
