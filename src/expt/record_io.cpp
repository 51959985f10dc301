#include "expt/record_io.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>

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

// --- reading ---------------------------------------------------------------

/// Cursor over one JSONL line. Only the flat {"key": string-or-number, ...}
/// shape emitted by write_jsonl() is accepted; anything else is a loud
/// CheckError naming the offending line.
struct LineParser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw CheckError("record_io: " + why + " in JSONL line '" +
                     std::string(text) + "'");
  }
  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
  }
  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos >= text.size();
  }
  char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("dangling escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(
              text.data() + pos, text.data() + pos + 4, code, 16);
          if (ec != std::errc{} || end != text.data() + pos + 4) {
            fail("bad \\u escape");
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          pos += 4;
          break;
        }
        default: fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }
  /// A bare numeric token, terminated by ',' or '}'.
  std::string_view parse_number_token() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
           text[pos] != ' ' && text[pos] != '\t') {
      ++pos;
    }
    if (pos == start) fail("empty value");
    return text.substr(start, pos - start);
  }
};

double to_double(std::string_view token, const LineParser& p) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    p.fail("bad number '" + std::string(token) + "'");
  }
  return value;
}

template <typename Int>
Int to_integer(std::string_view token, const LineParser& p) {
  Int value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    p.fail("bad integer '" + std::string(token) + "'");
  }
  return value;
}

bool to_bool(std::string_view token, const LineParser& p) {
  if (token == "true") return true;
  if (token == "false") return false;
  p.fail("bad boolean '" + std::string(token) + "'");
}

/// JSONL keys outside the counter table, in write_jsonl() order. All are
/// required on read except phase_ms (lines written before the phase ledger
/// parse with an empty breakdown).
constexpr std::array<std::string_view, 20> kRecordKeys = {
    "solver",   "preset",      "seed",           "cell_seed", "n",
    "m",        "classes",     "status",         "makespan",  "lower_bound",
    "ratio",    "setups",      "time_ms",        "phase_ms",  "proven_optimal",
    "gap",      "epsilon",     "precision",      "time_limit_s", "error"};

/// Slot of `key` in the per-line seen flags: kRecordKeys first, then the
/// counter table. Unknown keys are a parse error.
std::size_t key_slot(std::string_view key, const LineParser& p) {
  for (std::size_t i = 0; i < kRecordKeys.size(); ++i) {
    if (kRecordKeys[i] == key) return i;
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (kCounters[i].name == key) return kRecordKeys.size() + i;
  }
  p.fail("unknown key '" + std::string(key) + "'");
}

RunRecord parse_record_line(std::string_view line) {
  LineParser p{line};
  RunRecord r;
  std::array<bool, kRecordKeys.size() + kCounterCount> seen{};

  p.expect('{');
  bool first = true;
  while (p.peek() != '}') {
    if (!first) p.expect(',');
    first = false;
    const std::string key = p.parse_string();
    p.expect(':');
    const std::size_t slot = key_slot(key, p);
    if (seen[slot]) p.fail("duplicate key '" + key + "'");
    seen[slot] = true;
    if (slot >= kRecordKeys.size()) {
      r.*kCounters[slot - kRecordKeys.size()].field =
          to_integer<std::size_t>(p.parse_number_token(), p);
    } else if (key == "solver") {
      r.solver = p.parse_string();
    } else if (key == "preset") {
      r.preset = p.parse_string();
    } else if (key == "seed") {
      r.seed = to_integer<std::uint64_t>(p.parse_number_token(), p);
    } else if (key == "cell_seed") {
      r.cell_seed = to_integer<std::uint64_t>(p.parse_number_token(), p);
    } else if (key == "n") {
      r.num_jobs = to_integer<std::size_t>(p.parse_number_token(), p);
    } else if (key == "m") {
      r.num_machines = to_integer<std::size_t>(p.parse_number_token(), p);
    } else if (key == "classes") {
      r.num_classes = to_integer<std::size_t>(p.parse_number_token(), p);
    } else if (key == "status") {
      r.status = run_status_from_name(p.parse_string());
    } else if (key == "makespan") {
      r.makespan = to_double(p.parse_number_token(), p);
    } else if (key == "lower_bound") {
      r.lower_bound = to_double(p.parse_number_token(), p);
    } else if (key == "ratio") {
      r.ratio = to_double(p.parse_number_token(), p);
    } else if (key == "setups") {
      r.setups = to_integer<std::size_t>(p.parse_number_token(), p);
    } else if (key == "time_ms") {
      r.time_ms = to_double(p.parse_number_token(), p);
    } else if (key == "phase_ms") {
      p.expect('{');
      if (p.peek() != '}') {
        while (true) {
          const std::string name = p.parse_string();
          p.expect(':');
          obs::Phase phase;
          if (!obs::phase_from_name(name, &phase)) {
            p.fail("unknown phase '" + name + "'");
          }
          r.phase_ms[phase] = to_double(p.parse_number_token(), p);
          if (p.peek() != ',') break;
          p.expect(',');
        }
      }
      p.expect('}');
    } else if (key == "proven_optimal") {
      r.proven_optimal = to_bool(p.parse_number_token(), p);
    } else if (key == "gap") {
      r.gap = to_double(p.parse_number_token(), p);
    } else if (key == "epsilon") {
      r.epsilon = to_double(p.parse_number_token(), p);
    } else if (key == "precision") {
      r.precision = to_double(p.parse_number_token(), p);
    } else if (key == "time_limit_s") {
      r.time_limit_s = to_double(p.parse_number_token(), p);
    } else if (key == "error") {
      r.error = p.parse_string();
    } else {
      p.fail("unhandled key '" + key + "'");
    }
  }
  p.expect('}');
  if (!p.at_end()) p.fail("trailing content");
  for (std::size_t i = 0; i < kRecordKeys.size(); ++i) {
    if (!seen[i] && kRecordKeys[i] != "phase_ms") {
      p.fail("missing key '" + std::string(kRecordKeys[i]) + "'");
    }
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (!seen[kRecordKeys.size() + i] && !kCounters[i].optional) {
      p.fail("missing key '" + std::string(kCounters[i].name) + "'");
    }
  }
  return r;
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
    case RunStatus::kTimeout: return "timeout";
  }
  throw CheckError("unknown RunStatus value");
}

RunStatus run_status_from_name(std::string_view name) {
  if (name == "ok") return RunStatus::kOk;
  if (name == "skipped") return RunStatus::kSkipped;
  if (name == "invalid") return RunStatus::kInvalid;
  if (name == "error") return RunStatus::kError;
  if (name == "timeout") return RunStatus::kTimeout;
  throw CheckError("unknown run status '" + std::string(name) + "'");
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

std::vector<RunRecord> read_jsonl(std::istream& is) {
  std::vector<RunRecord> records;
  std::string line;
  while (std::getline(is, line)) {
    std::string_view view = line;
    while (!view.empty() && (view.back() == '\r' || view.back() == ' ')) {
      view.remove_suffix(1);
    }
    if (view.empty()) continue;
    records.push_back(parse_record_line(view));
  }
  return records;
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
