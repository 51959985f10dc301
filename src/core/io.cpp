#include "core/io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>

#include "common/check.h"
#include "common/format.h"

namespace setsched {

namespace {

void write_value(std::ostream& os, double v) {
  if (v >= kInfinity) {
    os << "inf";  // read_value() only knows this spelling, not to_chars' own
  } else {
    write_shortest_double(os, v);
  }
}

double read_value(std::istream& is) {
  std::string token;
  check(static_cast<bool>(is >> token), "unexpected end of instance stream");
  if (token == "inf") return kInfinity;
  // std::from_chars mirrors the std::to_chars writer: locale-independent,
  // so the round trip stays exact regardless of the host's LC_NUMERIC.
  double value = 0.0;
  const char* const begin = token.data();
  const char* const last = begin + token.size();
  const auto [end, ec] = std::from_chars(begin, last, value);
  check(ec == std::errc{} && end == last,
        "bad numeric token '" + token + "' in instance stream");
  return value;
}

void expect_header(std::istream& is, const std::string& kind) {
  std::string magic, k;
  int version = 0;
  check(static_cast<bool>(is >> magic >> k >> version), "missing header");
  check(magic == "setsched", "bad magic in instance stream");
  check(k == kind, "instance stream has kind '" + k + "', expected " + kind);
  check(version == 1, "unsupported instance format version");
}

/// Reads the "m n K" line. Each dimension must fit the 32-bit MachineId /
/// JobId / ClassId (kUnassigned is reserved), and the m x n and m x K matrix
/// sizes must fit size_t: a wrapped size made the loader write past it.
std::array<std::size_t, 3> read_dimensions(std::istream& is) {
  std::array<std::size_t, 3> d{};
  check(static_cast<bool>(is >> d[0] >> d[1] >> d[2]), "missing dimensions");
  for (const std::size_t v : d) {
    check(v < kUnassigned, "instance dimension " + std::to_string(v) +
                               " is out of the 32-bit id range");
  }
  check(d[0] <= std::numeric_limits<std::size_t>::max() /
                    std::max({d[1], d[2], std::size_t{1}}),
        "instance dimensions overflow the matrix size");
  return d;
}

}  // namespace

void save_instance(std::ostream& os, const Instance& instance) {
  os << "setsched unrelated 1\n";
  os << instance.num_machines() << ' ' << instance.num_jobs() << ' '
     << instance.num_classes() << '\n';
  for (JobId j = 0; j < instance.num_jobs(); ++j) {
    os << instance.job_class(j) << (j + 1 < instance.num_jobs() ? ' ' : '\n');
  }
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      write_value(os, instance.proc(i, j));
      os << (j + 1 < instance.num_jobs() ? ' ' : '\n');
    }
  }
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    for (ClassId k = 0; k < instance.num_classes(); ++k) {
      write_value(os, instance.setup(i, k));
      os << (k + 1 < instance.num_classes() ? ' ' : '\n');
    }
  }
}

Instance load_instance(std::istream& is) {
  expect_header(is, "unrelated");
  const auto [m, n, kc] = read_dimensions(is);
  std::vector<ClassId> job_class(n);
  for (auto& k : job_class) {
    check(static_cast<bool>(is >> k), "missing job class");
  }
  Instance inst(m, kc, std::move(job_class));
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) inst.set_proc(i, j, read_value(is));
  }
  for (MachineId i = 0; i < m; ++i) {
    for (ClassId k = 0; k < kc; ++k) inst.set_setup(i, k, read_value(is));
  }
  inst.validate();
  return inst;
}

void save_uniform(std::ostream& os, const UniformInstance& instance) {
  os << "setsched uniform 1\n";
  os << instance.num_machines() << ' ' << instance.num_jobs() << ' '
     << instance.num_classes() << '\n';
  for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
    os << instance.job_class[j] << (j + 1 < instance.num_jobs() ? ' ' : '\n');
  }
  for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
    write_value(os, instance.job_size[j]);
    os << (j + 1 < instance.num_jobs() ? ' ' : '\n');
  }
  for (std::size_t k = 0; k < instance.num_classes(); ++k) {
    write_value(os, instance.setup_size[k]);
    os << (k + 1 < instance.num_classes() ? ' ' : '\n');
  }
  for (std::size_t i = 0; i < instance.num_machines(); ++i) {
    write_value(os, instance.speed[i]);
    os << (i + 1 < instance.num_machines() ? ' ' : '\n');
  }
}

UniformInstance load_uniform(std::istream& is) {
  expect_header(is, "uniform");
  const auto [m, n, kc] = read_dimensions(is);
  UniformInstance inst;
  inst.job_class.resize(n);
  inst.job_size.resize(n);
  inst.setup_size.resize(kc);
  inst.speed.resize(m);
  for (auto& k : inst.job_class) {
    check(static_cast<bool>(is >> k), "missing job class");
  }
  for (auto& p : inst.job_size) p = read_value(is);
  for (auto& s : inst.setup_size) s = read_value(is);
  for (auto& v : inst.speed) v = read_value(is);
  inst.validate();
  return inst;
}

std::string describe(const Instance& instance) {
  std::ostringstream os;
  os << "Instance: " << instance.num_jobs() << " jobs, "
     << instance.num_machines() << " machines, " << instance.num_classes()
     << " classes\n";
  const auto groups = instance.jobs_by_class();
  for (ClassId k = 0; k < instance.num_classes(); ++k) {
    os << "  class " << k << ": " << groups[k].size() << " jobs, setups [";
    for (MachineId i = 0; i < instance.num_machines(); ++i) {
      if (i) os << ' ';
      write_value(os, instance.setup(i, k));
    }
    os << "]\n";
  }
  return os.str();
}

}  // namespace setsched
