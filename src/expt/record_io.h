#pragma once

#include <iosfwd>
#include <span>

#include "expt/record.h"

namespace setsched::expt {

/// One JSON object per line, fixed key order, shortest-round-trip doubles
/// (same std::to_chars discipline as core/io.cpp), so equal record sequences
/// serialize to byte-identical streams regardless of platform locale.
/// Write-only: no C++ code reads records back; the Python tools under tools/
/// parse each line with json.loads.
void write_jsonl(std::ostream& os, const RunRecord& record);
void write_jsonl(std::ostream& os, std::span<const RunRecord> records);

/// RFC-4180-style CSV: header row plus one row per record, quoting fields
/// that contain commas, quotes or newlines.
void write_csv(std::ostream& os, std::span<const RunRecord> records);

}  // namespace setsched::expt
