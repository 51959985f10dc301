#include "expt/record_io.h"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/format.h"
#include "core/counters.h"
#include "obs/phase.h"

namespace setsched::expt {

namespace {

// --- writing ---------------------------------------------------------------

void write_double(std::ostream& os, double v) {
  write_finite_double(os, v, "record_io RunRecord");
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Nested phase_ms object: non-zero phases only, in enum order, so records
/// from solvers without phase accounting stay compact ("phase_ms":{}).
void write_phase_object(std::ostream& os, const obs::PhaseTimes& phases) {
  os << '{';
  bool first = true;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const double v = phases.ms[i];
    if (v == 0.0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << obs::phase_name(static_cast<obs::Phase>(i)) << "\":";
    write_double(os, v);
  }
  os << '}';
}

// --- CSV -------------------------------------------------------------------

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
  os << "{\"solver\":";
  write_json_string(os, r.solver);
  os << ",\"preset\":";
  write_json_string(os, r.preset);
  os << ",\"seed\":" << r.seed;
  os << ",\"cell_seed\":" << r.cell_seed;
  os << ",\"n\":" << r.num_jobs;
  os << ",\"m\":" << r.num_machines;
  os << ",\"classes\":" << r.num_classes;
  os << ",\"status\":";
  write_json_string(os, run_status_name(r.status));
  os << ",\"makespan\":";
  write_double(os, r.makespan);
  os << ",\"lower_bound\":";
  write_double(os, r.lower_bound);
  os << ",\"ratio\":";
  write_double(os, r.ratio);
  os << ",\"setups\":" << r.setups;
  os << ",\"time_ms\":";
  write_double(os, r.time_ms);
  os << ",\"phase_ms\":";
  write_phase_object(os, r.phase_ms);
  for (const CounterInfo& c : kCounters) {
    os << ",\"" << c.name << "\":" << r.*c.field;
  }
  os << ",\"proven_optimal\":" << (r.proven_optimal ? "true" : "false");
  os << ",\"gap\":";
  write_double(os, r.gap);
  os << ",\"epsilon\":";
  write_double(os, r.epsilon);
  os << ",\"precision\":";
  write_double(os, r.precision);
  os << ",\"time_limit_s\":";
  write_double(os, r.time_limit_s);
  os << ",\"error\":";
  write_json_string(os, r.error);
  os << "}\n";
}

void write_jsonl(std::ostream& os, std::span<const RunRecord> records) {
  for (const RunRecord& r : records) write_jsonl(os, r);
}

void write_csv(std::ostream& os, std::span<const RunRecord> records) {
  os << "solver,preset,seed,cell_seed,n,m,classes,status,makespan,"
        "lower_bound,ratio,setups,time_ms,phase_ms,";
  for (const CounterInfo& c : kCounters) os << c.name << ',';
  os << "proven_optimal,gap,epsilon,precision,time_limit_s,error\n";
  for (const RunRecord& r : records) {
    write_csv_field(os, r.solver);
    os << ',';
    write_csv_field(os, r.preset);
    os << ',' << r.seed << ',' << r.cell_seed << ',' << r.num_jobs << ','
       << r.num_machines << ',' << r.num_classes << ','
       << run_status_name(r.status) << ',';
    write_double(os, r.makespan);
    os << ',';
    write_double(os, r.lower_bound);
    os << ',';
    write_double(os, r.ratio);
    os << ',' << r.setups << ',';
    write_double(os, r.time_ms);
    os << ',';
    // Compact semicolon-separated breakdown ("lp_solve:1.5;dive:3") — no
    // commas, so the field never needs CSV quoting.
    {
      std::ostringstream phases;
      bool first = true;
      for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
        const double v = r.phase_ms.ms[i];
        if (v == 0.0) continue;
        if (!first) phases << ';';
        first = false;
        phases << obs::phase_name(static_cast<obs::Phase>(i)) << ':';
        write_double(phases, v);
      }
      write_csv_field(os, phases.str());
    }
    for (const CounterInfo& c : kCounters) os << ',' << r.*c.field;
    os << ',' << (r.proven_optimal ? "true" : "false") << ',';
    write_double(os, r.gap);
    os << ',';
    write_double(os, r.epsilon);
    os << ',';
    write_double(os, r.precision);
    os << ',';
    write_double(os, r.time_limit_s);
    os << ',';
    write_csv_field(os, r.error);
    os << '\n';
  }
}

}  // namespace setsched::expt
