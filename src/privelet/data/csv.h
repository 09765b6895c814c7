// Minimal CSV round-trip for tables of dense domain indices. The header row
// carries the attribute names; data rows carry integer indices.
#ifndef PRIVELET_DATA_CSV_H_
#define PRIVELET_DATA_CSV_H_

#include <string>

#include "privelet/common/result.h"
#include "privelet/data/table.h"

namespace privelet::data {

/// Writes `table` to `path` (header + one line per row).
Status WriteCsv(const std::string& path, const Table& table);

/// Reads a table previously written by WriteCsv. The caller supplies the
/// schema; the file's header must match the schema's attribute names.
/// `path` may be a pipe or FIFO (/dev/stdin): it is streamed, not mapped.
Result<Table> ReadCsv(const std::string& path, const Schema& schema);

}  // namespace privelet::data

#endif  // PRIVELET_DATA_CSV_H_
