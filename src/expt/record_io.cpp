#include "expt/record_io.h"

#include <ostream>
#include <string_view>
#include <type_traits>

#include "common/check.h"
#include "common/format.h"
#include "core/counters.h"
#include "obs/phase.h"

namespace setsched::expt {

namespace {

/// The RunRecord schema, declared once: `column(key, value)` for each of the
/// 34 JSONL keys and CSV columns, in wire order. The JSONL line, the CSV
/// header and the CSV row are all generated from this list, so a new row
/// field is one line here plus its docs/BENCH_SCHEMA.md entry.
template <class Column>
void for_each_column(const RunRecord& r, Column&& column) {
  column("solver", r.solver);
  column("preset", r.preset);
  column("seed", r.seed);
  column("cell_seed", r.cell_seed);
  column("n", r.num_jobs);
  column("m", r.num_machines);
  column("classes", r.num_classes);
  column("status", run_status_name(r.status));
  column("makespan", r.makespan);
  column("lower_bound", r.lower_bound);
  column("ratio", r.ratio);
  column("setups", r.setups);
  column("time_ms", r.time_ms);
  column("phase_ms", r.phase_ms);
  for (const CounterInfo& c : kCounters) column(c.name, r.*c.field);
  column("proven_optimal", r.proven_optimal);
  column("gap", r.gap);
  column("epsilon", r.epsilon);
  column("precision", r.precision);
  column("time_limit_s", r.time_limit_s);
  column("error", r.error);
}

constexpr std::string_view kWhat = "record_io RunRecord";

/// The non-zero phases in enum order as `name<colon>ms` items joined by
/// `sep`; names are quoted for JSON. Records from solvers without phase
/// accounting stay compact ("phase_ms":{} and an empty CSV field).
void write_phases(std::ostream& os, const obs::PhaseTimes& phases,
                  bool quote_names, char sep) {
  bool first = true;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const double v = phases.ms[i];
    if (v == 0.0) continue;
    if (!first) os << sep;
    first = false;
    const std::string_view name = obs::phase_name(static_cast<obs::Phase>(i));
    if (quote_names) {
      write_json_string(os, name);
    } else {
      os << name;
    }
    os << ':';
    write_finite_double(os, v, kWhat);
  }
}

template <class T>
void write_json_column(std::ostream& os, const T& value) {
  if constexpr (std::is_same_v<T, obs::PhaseTimes>) {
    os << '{';
    write_phases(os, value, /*quote_names=*/true, ',');
    os << '}';
  } else {
    write_json_value(os, value, kWhat);
  }
}

/// RFC-4180 quoting: only fields holding a comma, quote or line break are
/// quoted, with inner quotes doubled.
void write_csv_field(std::ostream& os, std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
    os << s;
    return;
  }
  os << '"';
  for (const char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

template <class T>
void write_csv_column(std::ostream& os, const T& value) {
  if constexpr (std::is_same_v<T, obs::PhaseTimes>) {
    // "lp_solve:1.5;dive:3": no commas, so the field never needs quoting.
    write_phases(os, value, /*quote_names=*/false, ';');
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    write_csv_field(os, value);
  } else {
    write_json_value(os, value, kWhat);
  }
}

}  // namespace

std::string_view run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kSkipped: return "skipped";
    case RunStatus::kInvalid: return "invalid";
    case RunStatus::kError: return "error";
  }
  throw CheckError("unknown RunStatus value");
}

void write_jsonl(std::ostream& os, const RunRecord& r) {
  char sep = '{';
  for_each_column(r, [&](std::string_view key, const auto& value) {
    os << sep;
    sep = ',';
    write_json_string(os, key);
    os << ':';
    write_json_column(os, value);
  });
  os << "}\n";
}

void write_jsonl(std::ostream& os, std::span<const RunRecord> records) {
  for (const RunRecord& r : records) write_jsonl(os, r);
}

void write_csv(std::ostream& os, std::span<const RunRecord> records) {
  std::string_view sep;
  for_each_column(RunRecord{}, [&](std::string_view key, const auto&) {
    os << sep << key;
    sep = ",";
  });
  os << '\n';
  for (const RunRecord& r : records) {
    sep = {};
    for_each_column(r, [&](std::string_view, const auto& value) {
      os << sep;
      sep = ",";
      write_csv_column(os, value);
    });
    os << '\n';
  }
}

}  // namespace setsched::expt
