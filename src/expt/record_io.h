#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "expt/record.h"

namespace setsched::expt {

/// One JSON object per line, fixed key order, shortest-round-trip doubles
/// (same std::to_chars discipline as core/io.cpp), so equal record sequences
/// serialize to byte-identical streams regardless of platform locale.
void write_jsonl(std::ostream& os, const RunRecord& record);
void write_jsonl(std::ostream& os, std::span<const RunRecord> records);

/// Parses a stream of write_jsonl() lines back into records (key order does
/// not matter; unknown, duplicate and missing keys are rejected, except that
/// phase_ms and the counters core/counters.h marks optional may be absent
/// and read as empty / 0). Blank lines are skipped. Throws
/// CheckError on malformed input, so round trips are exact or loud.
[[nodiscard]] std::vector<RunRecord> read_jsonl(std::istream& is);

/// RFC-4180-style CSV: header row plus one row per record, quoting fields
/// that contain commas, quotes or newlines.
void write_csv(std::ostream& os, std::span<const RunRecord> records);

}  // namespace setsched::expt
