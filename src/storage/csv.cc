#include "storage/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace mosaic {

namespace {

// Split one CSV line honoring double-quoted fields with "" escapes.
[[nodiscard]] Result<std::vector<std::string>> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      cur += c;
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quote in CSV line");
  fields.push_back(std::move(cur));
  return fields;
}

bool ParsesAsInt(const std::string& s) {
  if (s.empty()) return false;
  try {
    size_t pos = 0;
    (void)std::stoll(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool ParsesAsDouble(const std::string& s) {
  if (s.empty()) return false;
  try {
    size_t pos = 0;
    (void)std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

[[nodiscard]] Result<std::vector<std::vector<std::string>>> ParseLines(
    const std::string& text) {
  std::vector<std::vector<std::string>> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    MOSAIC_ASSIGN_OR_RETURN(auto fields, SplitCsvLine(line));
    lines.push_back(std::move(fields));
  }
  if (lines.empty()) return Status::ParseError("empty CSV input");
  return lines;
}

}  // namespace

[[nodiscard]] Result<Table> ReadCsv(const std::string& text, const Schema& schema) {
  MOSAIC_ASSIGN_OR_RETURN(auto lines, ParseLines(text));
  const auto& header = lines[0];
  // Map CSV columns to schema columns.
  std::vector<int> csv_to_schema(header.size(), -1);
  std::vector<bool> seen(schema.num_columns(), false);
  for (size_t c = 0; c < header.size(); ++c) {
    auto idx = schema.FindColumn(std::string(Trim(header[c])));
    if (!idx) {
      return Status::ParseError("CSV column '" + header[c] +
                                "' not in schema");
    }
    csv_to_schema[c] = static_cast<int>(*idx);
    seen[*idx] = true;
  }
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (!seen[i]) {
      return Status::ParseError("schema column '" + schema.column(i).name +
                                "' missing from CSV header");
    }
  }
  Table table(schema);
  table.Reserve(lines.size() - 1);
  std::vector<Value> row(schema.num_columns());
  for (size_t r = 1; r < lines.size(); ++r) {
    if (lines[r].size() != header.size()) {
      return Status::ParseError(
          StrFormat("CSV row %zu has %zu fields, header has %zu", r,
                    lines[r].size(), header.size()));
    }
    for (size_t c = 0; c < lines[r].size(); ++c) {
      size_t sc = static_cast<size_t>(csv_to_schema[c]);
      DataType type = schema.column(sc).type;
      const std::string& field = lines[r][c];
      switch (type) {
        case DataType::kInt64: {
          if (!ParsesAsInt(field)) {
            return Status::ParseError("'" + field + "' is not an INT (row " +
                                      std::to_string(r) + ")");
          }
          row[sc] = Value(static_cast<int64_t>(std::stoll(field)));
          break;
        }
        case DataType::kDouble: {
          if (!ParsesAsDouble(field)) {
            return Status::ParseError("'" + field +
                                      "' is not a DOUBLE (row " +
                                      std::to_string(r) + ")");
          }
          row[sc] = Value(std::stod(field));
          break;
        }
        case DataType::kBool:
          row[sc] = Value(EqualsIgnoreCase(field, "true") || field == "1");
          break;
        default:
          row[sc] = Value(field);
          break;
      }
    }
    MOSAIC_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

[[nodiscard]] Result<Table> ReadCsvInferSchema(const std::string& text) {
  MOSAIC_ASSIGN_OR_RETURN(auto lines, ParseLines(text));
  const auto& header = lines[0];
  size_t ncols = header.size();
  std::vector<bool> all_int(ncols, true), all_double(ncols, true);
  for (size_t r = 1; r < lines.size(); ++r) {
    if (lines[r].size() != ncols) {
      return Status::ParseError(
          StrFormat("CSV row %zu has %zu fields, header has %zu", r,
                    lines[r].size(), ncols));
    }
    for (size_t c = 0; c < ncols; ++c) {
      if (all_int[c] && !ParsesAsInt(lines[r][c])) all_int[c] = false;
      if (all_double[c] && !ParsesAsDouble(lines[r][c])) {
        all_double[c] = false;
      }
    }
  }
  Schema schema;
  for (size_t c = 0; c < ncols; ++c) {
    DataType type = all_int[c]      ? DataType::kInt64
                    : all_double[c] ? DataType::kDouble
                                    : DataType::kString;
    MOSAIC_RETURN_IF_ERROR(
        schema.AddColumn(ColumnDef{std::string(Trim(header[c])), type}));
  }
  return ReadCsv(text, schema);
}

[[nodiscard]] Result<Table> ReadCsvFile(const std::string& path,
                                        const Schema* schema) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return schema != nullptr ? ReadCsv(buf.str(), *schema)
                           : ReadCsvInferSchema(buf.str());
}

namespace {
std::string EscapeCsvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string WriteCsv(const Table& table) {
  std::string out;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    if (c > 0) out += ',';
    out += EscapeCsvField(table.schema().column(c).name);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      Value v = table.GetValue(r, c);
      out += v.type() == DataType::kString ? EscapeCsvField(v.AsString())
                                           : v.ToString();
    }
    out += '\n';
  }
  return out;
}

[[nodiscard]] Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteCsv(table);
  // A buffered write can look fine until the bytes hit the file
  // system; flush and close explicitly — the destructor would swallow
  // both failures (e.g. a full disk) and report success.
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  out.close();
  if (out.fail()) return Status::IOError("close failed: " + path);
  return Status::OK();
}

}  // namespace mosaic
