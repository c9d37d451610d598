// CSV import/export. Used to ingest auxiliary data (the paper's
// "Ingest Eurostat reports" step) and to emit the point clouds that
// back Figure 5.
#ifndef MOSAIC_STORAGE_CSV_H_
#define MOSAIC_STORAGE_CSV_H_

#include <string>

#include "common/status.h"
#include "storage/table.h"

namespace mosaic {

/// Parse CSV text into a table with the given schema. The first line
/// must be a header whose names match the schema (case-insensitive,
/// any order). Values are coerced to the column types.
[[nodiscard]] Result<Table> ReadCsv(const std::string& text, const Schema& schema);

/// Parse CSV text inferring the schema: a column is INT if every value
/// parses as an integer, else DOUBLE if every value parses as a
/// number, else VARCHAR.
[[nodiscard]] Result<Table> ReadCsvInferSchema(const std::string& text);

/// Load a CSV file from disk: parsed against `schema`, or with
/// schema inference when it is null.
[[nodiscard]] Result<Table> ReadCsvFile(const std::string& path,
                                        const Schema* schema = nullptr);

/// Serialize a table to CSV (header + rows). Strings are quoted only
/// when they contain separators/quotes.
std::string WriteCsv(const Table& table);

/// Write a table to a CSV file.
[[nodiscard]] Status WriteCsvFile(const Table& table, const std::string& path);

}  // namespace mosaic

#endif  // MOSAIC_STORAGE_CSV_H_
