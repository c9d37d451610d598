#include "storage/durable/snapshot.h"

#include <cstdio>
#include <cstring>

#include "common/aligned.h"
#include "core/database.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/durable/crc32.h"
#include "storage/durable/serde.h"

namespace mosaic {
namespace durable {

namespace {

constexpr char kSnapMagic[8] = {'M', 'O', 'S', 'S', 'N', 'P', '0', '1'};
constexpr uint32_t kFormatVersion = 1;
// magic + (u32 format + u64 seq + u64 cv + u64 mv) + u32 crc
constexpr size_t kHeaderFieldsSize = 4 + 8 + 8 + 8;
constexpr size_t kHeaderSize = 8 + kHeaderFieldsSize + 4;
constexpr size_t kSegFrameSize = 9;  // u8 type + u32 len + u32 crc

constexpr uint8_t kTableSeg = 1;
constexpr uint8_t kPopulationSeg = 2;
constexpr uint8_t kSampleSeg = 3;
constexpr uint8_t kEndSeg = 0xFF;

size_t Align64(size_t off) { return (off + 63) & ~static_cast<size_t>(63); }

/// memcpy with the zero-length case allowed (an empty AlignedVector's
/// data() is null, which plain memcpy declares UB even for n == 0).
void CopyBytes(void* dst, const void* src, size_t n) {
  if (n != 0) std::memcpy(dst, src, n);
}

size_t TypeWidth(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return sizeof(int64_t);
    case DataType::kDouble:
      return sizeof(double);
    case DataType::kBool:
      return sizeof(uint8_t);
    case DataType::kString:
      return sizeof(int32_t);  // dictionary codes
    case DataType::kNull:
      break;
  }
  return 0;
}

const uint8_t* ColumnRaw(const Column& col) {
  switch (col.type()) {
    case DataType::kInt64:
      return reinterpret_cast<const uint8_t*>(col.raw_int64());
    case DataType::kDouble:
      return reinterpret_cast<const uint8_t*>(col.raw_double());
    case DataType::kBool:
      return col.raw_bool();
    case DataType::kString:
      return reinterpret_cast<const uint8_t*>(col.raw_codes());
    case DataType::kNull:
      break;
  }
  return nullptr;
}

void AppendSegment(std::string* image, uint8_t type,
                   const std::string& payload) {
  PutU8(image, type);
  PutU32(image, static_cast<uint32_t>(payload.size()));
  PutU32(image, Crc32(payload.data(), payload.size()));
  image->append(payload);
}

/// Everything Parse() extracts without touching section B bytes; the
/// column descriptors point into the input buffer after validation.
struct ParsedSample {
  core::SampleInfo header;  ///< data empty
  core::WeightEpoch epoch;
  size_t num_rows = 0;
  struct Col {
    DataType type = DataType::kNull;
    std::shared_ptr<Dictionary> dict;
    const uint8_t* data = nullptr;
    size_t bytes = 0;
    uint32_t crc = 0;
  };
  std::vector<Col> cols;
};

struct Parsed {
  uint64_t next_wal_seq = 1;
  uint64_t catalog_version = 1;
  uint64_t metadata_version = 1;
  std::vector<std::pair<std::string, Table>> tables;
  std::vector<core::PopulationInfo> populations;
  std::vector<ParsedSample> samples;
};

[[nodiscard]] Status Corrupt(const std::string& what) {
  return Status::IOError("snapshot: " + what);
}

[[nodiscard]] Result<Parsed> Parse(const uint8_t* data, size_t size) {
  if (size < kHeaderSize) return Corrupt("file shorter than header");
  if (std::memcmp(data, kSnapMagic, sizeof(kSnapMagic)) != 0) {
    return Corrupt("bad magic");
  }
  {
    uint32_t stored = 0;
    std::memcpy(&stored, data + 8 + kHeaderFieldsSize, 4);
    if (Crc32(data + 8, kHeaderFieldsSize) != stored) {
      return Corrupt("header CRC mismatch");
    }
  }
  Parsed parsed;
  {
    ByteReader header(data + 8, kHeaderFieldsSize);
    MOSAIC_ASSIGN_OR_RETURN(uint32_t format, header.U32());
    if (format != kFormatVersion) {
      return Corrupt("unsupported format version " + std::to_string(format));
    }
    MOSAIC_ASSIGN_OR_RETURN(parsed.next_wal_seq, header.U64());
    MOSAIC_ASSIGN_OR_RETURN(parsed.catalog_version, header.U64());
    MOSAIC_ASSIGN_OR_RETURN(parsed.metadata_version, header.U64());
  }

  // Section A: framed segments until kEnd.
  size_t off = kHeaderSize;
  bool done = false;
  while (!done) {
    if (off + kSegFrameSize > size) return Corrupt("truncated segment frame");
    const uint8_t type = data[off];
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, data + off + 1, 4);
    std::memcpy(&crc, data + off + 5, 4);
    if (off + kSegFrameSize + len > size) {
      return Corrupt("segment extends past end of file");
    }
    const uint8_t* payload = data + off + kSegFrameSize;
    if (Crc32(payload, len) != crc) {
      return Corrupt("segment CRC mismatch at offset " + std::to_string(off));
    }
    ByteReader in(payload, len);
    switch (type) {
      case kEndSeg:
        done = true;
        break;
      case kTableSeg: {
        MOSAIC_ASSIGN_OR_RETURN(std::string name, in.String());
        MOSAIC_ASSIGN_OR_RETURN(Table table, DecodeTable(&in));
        parsed.tables.emplace_back(std::move(name), std::move(table));
        break;
      }
      case kPopulationSeg: {
        MOSAIC_ASSIGN_OR_RETURN(core::PopulationInfo p, DecodePopulation(&in));
        parsed.populations.push_back(std::move(p));
        break;
      }
      case kSampleSeg: {
        ParsedSample sample;
        MOSAIC_ASSIGN_OR_RETURN(sample.header, DecodeSampleHeader(&in));
        MOSAIC_ASSIGN_OR_RETURN(sample.epoch, DecodeWeightEpoch(&in));
        MOSAIC_ASSIGN_OR_RETURN(uint64_t rows, in.U64());
        sample.num_rows = static_cast<size_t>(rows);
        MOSAIC_ASSIGN_OR_RETURN(uint32_t ncols, in.U32());
        if (ncols != sample.header.schema.num_columns()) {
          return Corrupt("sample column count does not match schema");
        }
        for (uint32_t c = 0; c < ncols; ++c) {
          ParsedSample::Col col;
          MOSAIC_ASSIGN_OR_RETURN(uint8_t dtype, in.U8());
          col.type = static_cast<DataType>(dtype);
          if (col.type != sample.header.schema.column(c).type) {
            return Corrupt("sample column type does not match schema");
          }
          if (col.type == DataType::kString) {
            MOSAIC_ASSIGN_OR_RETURN(uint32_t dict_size, in.U32());
            col.dict = std::make_shared<Dictionary>();
            for (uint32_t k = 0; k < dict_size; ++k) {
              MOSAIC_ASSIGN_OR_RETURN(std::string v, in.String());
              col.dict->GetOrInsert(v);
            }
          }
          MOSAIC_ASSIGN_OR_RETURN(uint64_t bytes, in.U64());
          MOSAIC_ASSIGN_OR_RETURN(col.crc, in.U32());
          col.bytes = static_cast<size_t>(bytes);
          if (col.bytes != sample.num_rows * TypeWidth(col.type)) {
            return Corrupt("sample column byte size does not match row count");
          }
          sample.cols.push_back(std::move(col));
        }
        parsed.samples.push_back(std::move(sample));
        break;
      }
      default:
        return Corrupt("unknown segment type " + std::to_string(type));
    }
    off += kSegFrameSize + len;
  }

  // Section B: deterministic 64-byte-aligned column arrays.
  for (ParsedSample& sample : parsed.samples) {
    for (ParsedSample::Col& col : sample.cols) {
      off = Align64(off);
      if (off + col.bytes > size) return Corrupt("truncated column data");
      col.data = data + off;
      if (Crc32(col.data, col.bytes) != col.crc) {
        return Corrupt("column data CRC mismatch for sample " +
                       sample.header.name);
      }
      off += col.bytes;
    }
  }

  // Dictionary codes must land inside their dictionary before any
  // consumer decodes them.
  for (const ParsedSample& sample : parsed.samples) {
    for (const ParsedSample::Col& col : sample.cols) {
      if (col.type != DataType::kString) continue;
      const auto* codes = reinterpret_cast<const int32_t*>(col.data);
      const auto dict_size = static_cast<int32_t>(col.dict->size());
      for (size_t r = 0; r < sample.num_rows; ++r) {
        if (codes[r] < 0 || codes[r] >= dict_size) {
          return Corrupt("dictionary code out of range in sample " +
                         sample.header.name);
        }
      }
    }
  }
  return parsed;
}

Column MaterializeColumn(const ParsedSample::Col& col, size_t rows) {
  switch (col.type) {
    case DataType::kInt64: {
      AlignedVector<int64_t> values(rows);
      CopyBytes(values.data(), col.data, col.bytes);
      return Column::FromInt64(std::move(values));
    }
    case DataType::kDouble: {
      AlignedVector<double> values(rows);
      CopyBytes(values.data(), col.data, col.bytes);
      return Column::FromDouble(std::move(values));
    }
    case DataType::kBool: {
      AlignedVector<uint8_t> values(rows);
      CopyBytes(values.data(), col.data, col.bytes);
      return Column::FromBool(std::move(values));
    }
    default: {
      AlignedVector<int32_t> codes(rows);
      CopyBytes(codes.data(), col.data, col.bytes);
      return Column::FromCodes(col.dict, std::move(codes));
    }
  }
}

ColumnSpan SpanOf(const ParsedSample::Col& col, size_t rows) {
  ColumnSpan span;
  span.type = col.type;
  span.size = rows;
  switch (col.type) {
    case DataType::kInt64:
      span.i64 = reinterpret_cast<const int64_t*>(col.data);
      break;
    case DataType::kDouble:
      span.f64 = reinterpret_cast<const double*>(col.data);
      break;
    case DataType::kBool:
      span.b8 = col.data;
      break;
    case DataType::kString:
      span.codes = reinterpret_cast<const int32_t*>(col.data);
      span.dict = col.dict;
      break;
    case DataType::kNull:
      break;
  }
  return span;
}

}  // namespace

std::string SnapshotFileName(uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snapshot-%06llu.snap",
                static_cast<unsigned long long>(seq));
  return buf;
}

[[nodiscard]] Result<uint64_t> ParseSnapshotFileName(const std::string& name) {
  if (name.size() < 15 || name.compare(0, 9, "snapshot-") != 0 ||
      name.compare(name.size() - 5, 5, ".snap") != 0) {
    return Status::NotFound("not a snapshot file: " + name);
  }
  const std::string digits = name.substr(9, name.size() - 14);
  if (digits.empty()) {
    return Status::NotFound("not a snapshot file: " + name);
  }
  uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return Status::NotFound("not a snapshot file: " + name);
    }
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

[[nodiscard]] Result<std::string> BuildSnapshotImage(core::Database* db,
                                       uint64_t next_wal_seq) {
  core::Catalog* catalog = db->catalog();
  std::string image;
  image.append(kSnapMagic, sizeof(kSnapMagic));
  {
    std::string header;
    PutU32(&header, kFormatVersion);
    PutU64(&header, next_wal_seq);
    PutU64(&header, db->catalog_version());
    PutU64(&header, db->metadata_version());
    image.append(header);
    PutU32(&image, Crc32(header.data(), header.size()));
  }

  for (const std::string& name : catalog->TableNames()) {
    MOSAIC_ASSIGN_OR_RETURN(Table * table, catalog->GetTable(name));
    std::string payload;
    PutString(&payload, name);
    EncodeTable(&payload, *table);
    AppendSegment(&image, kTableSeg, payload);
  }
  for (const std::string& name : catalog->PopulationNames()) {
    MOSAIC_ASSIGN_OR_RETURN(core::PopulationInfo * population,
                            catalog->GetPopulation(name));
    std::string payload;
    EncodePopulation(&payload, *population);
    AppendSegment(&image, kPopulationSeg, payload);
  }

  struct PendingColumn {
    const uint8_t* data;
    size_t bytes;
  };
  std::vector<PendingColumn> section_b;
  for (const std::string& name : catalog->SampleNames()) {
    MOSAIC_ASSIGN_OR_RETURN(core::SampleInfo * sample,
                            catalog->GetSample(name));
    const core::WeightEpochPtr epoch = sample->weights.Pin();
    const size_t rows = sample->data.num_rows();
    std::string payload;
    EncodeSampleHeader(&payload, *sample);
    EncodeWeightEpoch(&payload, *epoch);
    PutU64(&payload, rows);
    PutU32(&payload, static_cast<uint32_t>(sample->data.num_columns()));
    for (size_t c = 0; c < sample->data.num_columns(); ++c) {
      const Column& col = sample->data.column(c);
      PutU8(&payload, static_cast<uint8_t>(col.type()));
      if (col.type() == DataType::kString) {
        const Dictionary& dict = col.dictionary();
        PutU32(&payload, static_cast<uint32_t>(dict.size()));
        for (const std::string& v : dict.values()) PutString(&payload, v);
      }
      const size_t bytes = rows * TypeWidth(col.type());
      const uint8_t* raw = ColumnRaw(col);
      PutU64(&payload, bytes);
      PutU32(&payload, Crc32(raw, bytes));
      section_b.push_back({raw, bytes});
    }
    AppendSegment(&image, kSampleSeg, payload);
  }
  AppendSegment(&image, kEndSeg, std::string());

  for (const PendingColumn& col : section_b) {
    image.resize(Align64(image.size()), '\0');
    image.append(reinterpret_cast<const char*>(col.data), col.bytes);
  }
  return image;
}

[[nodiscard]] Result<SnapshotState> LoadSnapshot(const std::string& path) {
  MOSAIC_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  MOSAIC_ASSIGN_OR_RETURN(
      Parsed parsed,
      Parse(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()));
  SnapshotState state;
  state.next_wal_seq = parsed.next_wal_seq;
  state.catalog_version = parsed.catalog_version;
  state.metadata_version = parsed.metadata_version;
  state.file_bytes = bytes.size();
  state.tables = std::move(parsed.tables);
  state.populations = std::move(parsed.populations);
  for (ParsedSample& sample : parsed.samples) {
    std::vector<Column> columns;
    columns.reserve(sample.cols.size());
    for (const ParsedSample::Col& col : sample.cols) {
      columns.push_back(MaterializeColumn(col, sample.num_rows));
    }
    SnapshotState::Sample out;
    out.info = std::move(sample.header);
    out.info.data =
        Table(out.info.schema, std::move(columns), sample.num_rows);
    out.epoch = std::move(sample.epoch);
    state.samples.push_back(std::move(out));
  }
  return state;
}

Result<std::unique_ptr<MappedSnapshot>> MappedSnapshot::Open(
    const std::string& path) {
  MOSAIC_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  MOSAIC_ASSIGN_OR_RETURN(Parsed parsed, Parse(file.data(), file.size()));
  auto snapshot = std::unique_ptr<MappedSnapshot>(new MappedSnapshot());
  snapshot->file_ = std::move(file);  // parsed pointers stay valid: the
                                      // mapping address does not move
  snapshot->next_wal_seq_ = parsed.next_wal_seq;
  snapshot->catalog_version_ = parsed.catalog_version;
  snapshot->metadata_version_ = parsed.metadata_version;
  for (ParsedSample& sample : parsed.samples) {
    MappedSample mapped;
    mapped.epoch = std::move(sample.epoch);
    mapped.num_rows = sample.num_rows;
    for (const ParsedSample::Col& col : sample.cols) {
      mapped.spans.push_back(SpanOf(col, sample.num_rows));
    }
    mapped.header = std::move(sample.header);
    snapshot->samples_.push_back(std::move(mapped));
  }
  return snapshot;
}

std::vector<std::string> MappedSnapshot::sample_names() const {
  std::vector<std::string> names;
  names.reserve(samples_.size());
  for (const MappedSample& sample : samples_) {
    names.push_back(sample.header.name);
  }
  return names;
}

Result<TableView> MappedSnapshot::SampleView(const std::string& name) const {
  for (const MappedSample& sample : samples_) {
    if (sample.header.name == name) {
      return TableView::FromSpans(sample.header.schema, sample.spans,
                                  sample.num_rows);
    }
  }
  return Status::NotFound("snapshot has no sample " + name);
}

Result<const core::WeightEpoch*> MappedSnapshot::SampleEpoch(
    const std::string& name) const {
  for (const MappedSample& sample : samples_) {
    if (sample.header.name == name) return &sample.epoch;
  }
  return Status::NotFound("snapshot has no sample " + name);
}

}  // namespace durable
}  // namespace mosaic
