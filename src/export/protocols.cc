#include "export/protocols.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "arrowlite/builder.h"
#include "arrowlite/io.h"
#include "arrowlite/ipc.h"
#include "arrowlite/type.h"
#include "catalog/schema.h"
#include "catalog/sql_table.h"
#include "common/timer.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transaction/transaction_context.h"
#include "transaction/transaction_manager.h"
#include "transform/arrow_reader.h"

namespace mainline::exporter {

namespace {

using catalog::TypeId;
using storage::RawBlock;

/// Encode one value as protocol text into `out`; \return length.
int EncodeText(TypeId type, const byte *value, char *out, size_t out_size) {
  switch (type) {
    case TypeId::kBoolean:
    case TypeId::kTinyInt:
      return std::snprintf(out, out_size, "%d",
                           static_cast<int>(*reinterpret_cast<const int8_t *>(value)));
    case TypeId::kSmallInt:
      return std::snprintf(out, out_size, "%d",
                           static_cast<int>(*reinterpret_cast<const int16_t *>(value)));
    case TypeId::kInteger:
      return std::snprintf(out, out_size, "%d", *reinterpret_cast<const int32_t *>(value));
    case TypeId::kDate:
      return std::snprintf(out, out_size, "%u", *reinterpret_cast<const uint32_t *>(value));
    case TypeId::kBigInt:
      return std::snprintf(out, out_size, "%" PRId64,
                           *reinterpret_cast<const int64_t *>(value));
    case TypeId::kTimestamp:
      return std::snprintf(out, out_size, "%" PRIu64,
                           *reinterpret_cast<const uint64_t *>(value));
    case TypeId::kDecimal:
      return std::snprintf(out, out_size, "%.6f", *reinterpret_cast<const double *>(value));
    case TypeId::kVarchar:
      MAINLINE_UNREACHABLE("varchar handled separately");
  }
  return 0;
}

/// The bytes of fixed-width value `row` of `col`: both access paths lay a
/// fixed-width column out at its attribute size.
const byte *FixedValue(const arrowlite::Array &col, int64_t row, uint32_t attr_size) {
  return col.buffer(0)->data() + static_cast<uint64_t>(attr_size) * static_cast<uint64_t>(row);
}

/// One export's snapshot: read every block of `table` through
/// ArrowReader::ReadBlock under a single transaction, tally rows and access
/// paths into `result`, and hand each full-row batch to `write`. A frozen
/// block's read lock is held only while its batch is written.
template <typename Write>
void ForEachBlock(catalog::SqlTable *table, transaction::TransactionManager *txn_manager,
                  ExportResult *result, Write write) {
  storage::DataTable &data_table = table->UnderlyingTable();
  // Begin before listing the blocks, so every block holding a row this
  // snapshot can see is on the list.
  transaction::TransactionContext *txn = txn_manager->BeginTransaction();
  for (RawBlock *block : data_table.Blocks()) {
    const transform::BlockRead read =
        transform::ArrowReader::ReadBlock(table->GetSchema(), &data_table, block, txn);
    (read.Path() == transform::AccessPath::kFrozenInSitu ? result->frozen_blocks
                                                         : result->hot_blocks)++;
    result->rows += static_cast<uint64_t>(read.NumRows());
    write(*read.Batch());
  }
  txn_manager->Commit(txn);
}

/// Client-side parse of the text protocol back into a columnar batch — the
/// step Figure 1 shows dominating export cost.
std::shared_ptr<arrowlite::RecordBatch> ParsePostgresWire(const catalog::Schema &schema,
                                                          const byte *data, uint64_t size) {
  std::vector<arrowlite::FixedBuilder<int64_t>> ints;
  std::vector<arrowlite::FixedBuilder<double>> doubles;
  std::vector<arrowlite::StringBuilder> strings;
  std::vector<std::pair<int, size_t>> dispatch;
  for (uint16_t i = 0; i < schema.NumColumns(); i++) {
    switch (schema.GetColumn(i).Type()) {
      case TypeId::kDecimal:
        dispatch.emplace_back(1, doubles.size());
        doubles.emplace_back(arrowlite::Type::kFloat64);
        break;
      case TypeId::kVarchar:
        dispatch.emplace_back(2, strings.size());
        strings.emplace_back();
        break;
      default:
        dispatch.emplace_back(0, ints.size());
        ints.emplace_back(arrowlite::Type::kInt64);
        break;
    }
  }

  uint64_t pos = 0;
  int64_t rows = 0;
  while (pos < size) {
    const char tag = static_cast<char>(data[pos]);
    pos += 1;
    if (tag == 'T') {  // row description: skip its length-prefixed payload
      uint32_t len;
      std::memcpy(&len, data + pos, 4);
      pos += 4 + len;
      continue;
    }
    if (tag != 'D') break;
    uint16_t ncols;
    std::memcpy(&ncols, data + pos, 2);
    pos += 2;
    for (uint16_t c = 0; c < ncols; c++) {
      int32_t len;
      std::memcpy(&len, data + pos, 4);
      pos += 4;
      auto [kind, idx] = dispatch[c];
      if (len < 0) {
        if (kind == 0) {
          ints[idx].AppendNull();
        } else if (kind == 1) {
          doubles[idx].AppendNull();
        } else {
          strings[idx].AppendNull();
        }
        continue;
      }
      const char *text = reinterpret_cast<const char *>(data + pos);
      pos += static_cast<uint64_t>(len);
      if (kind == 0) {
        int64_t v = 0;
        std::from_chars(text, text + len, v);
        ints[idx].Append(v);
      } else if (kind == 1) {
        doubles[idx].Append(std::strtod(std::string(text, static_cast<size_t>(len)).c_str(),
                                        nullptr));
      } else {
        strings[idx].Append({text, static_cast<size_t>(len)});
      }
    }
    rows++;
  }

  std::vector<arrowlite::Field> fields;
  std::vector<std::shared_ptr<arrowlite::Array>> columns;
  for (uint16_t i = 0; i < schema.NumColumns(); i++) {
    auto [kind, idx] = dispatch[i];
    if (kind == 0) {
      fields.emplace_back(schema.GetColumn(i).Name(), arrowlite::Type::kInt64);
      columns.push_back(ints[idx].Finish());
    } else if (kind == 1) {
      fields.emplace_back(schema.GetColumn(i).Name(), arrowlite::Type::kFloat64);
      columns.push_back(doubles[idx].Finish());
    } else {
      fields.emplace_back(schema.GetColumn(i).Name(), arrowlite::Type::kString);
      columns.push_back(strings[idx].Finish());
    }
  }
  return std::make_shared<arrowlite::RecordBatch>(
      std::make_shared<arrowlite::Schema>(std::move(fields)), rows, std::move(columns));
}

}  // namespace

ExportResult PostgresWireExporter::Export(catalog::SqlTable *table,
                                          transaction::TransactionManager *txn_manager) {
  client_->Reset();
  ExportResult result;
  const catalog::Schema &schema = table->GetSchema();
  {
    common::ScopedTimer<std::chrono::microseconds> timer(&result.micros);
    // RowDescription: 'T' + length + per-column name.
    {
      arrowlite::VectorSink desc;
      for (const catalog::Column &col : schema.Columns()) {
        desc.Write(reinterpret_cast<const byte *>(col.Name().data()), col.Name().size() + 1);
      }
      client_->WriteValue<char>('T');
      client_->WriteValue<uint32_t>(static_cast<uint32_t>(desc.data().size()));
      client_->Write(desc.data().data(), desc.data().size());
    }

    char text[64];
    ForEachBlock(table, txn_manager, &result, [&](const arrowlite::RecordBatch &batch) {
      for (int64_t r = 0; r < batch.num_rows(); r++) {
        client_->WriteValue<char>('D');
        client_->WriteValue<uint16_t>(schema.NumColumns());
        for (uint16_t c = 0; c < schema.NumColumns(); c++) {
          const arrowlite::Array &col = *batch.column(c);
          if (col.IsNull(r)) {
            client_->WriteValue<int32_t>(-1);
            continue;
          }
          const catalog::Column &column = schema.GetColumn(c);
          if (column.IsVarlen()) {
            const std::string_view value = col.GetString(r);
            client_->WriteValue<int32_t>(static_cast<int32_t>(value.size()));
            client_->Write(reinterpret_cast<const byte *>(value.data()), value.size());
          } else {
            const int len = EncodeText(column.Type(), FixedValue(col, r, column.AttrSize()),
                                       text, sizeof(text));
            client_->WriteValue<int32_t>(len);
            client_->Write(reinterpret_cast<const byte *>(text), static_cast<uint64_t>(len));
          }
        }
      }
    });
    // Client side: parse the wire text back into a columnar batch.
    client_batch_ = ParsePostgresWire(schema, client_->data(), client_->size());
  }
  result.wire_bytes = client_->size();
  return result;
}

ExportResult VectorizedWireExporter::Export(catalog::SqlTable *table,
                                            transaction::TransactionManager *txn_manager) {
  client_->Reset();
  ExportResult result;
  const catalog::Schema &schema = table->GetSchema();
  {
    common::ScopedTimer<std::chrono::microseconds> timer(&result.micros);
    // Server: serialize per-row into column-chunked messages of ~2048 rows.
    constexpr uint32_t kChunkRows = 2048;
    std::vector<std::vector<byte>> fixed_chunks(schema.NumColumns());
    std::vector<std::vector<byte>> varlen_chunks(schema.NumColumns());
    std::vector<std::vector<uint8_t>> null_flags(schema.NumColumns());
    uint32_t chunk_rows = 0;

    auto flush_chunk = [&] {
      if (chunk_rows == 0) return;
      client_->WriteValue<char>('V');
      client_->WriteValue<uint32_t>(chunk_rows);
      for (uint16_t c = 0; c < schema.NumColumns(); c++) {
        client_->Write(reinterpret_cast<const byte *>(null_flags[c].data()),
                       null_flags[c].size());
        const auto &payload =
            schema.GetColumn(c).IsVarlen() ? varlen_chunks[c] : fixed_chunks[c];
        client_->WriteValue<uint64_t>(payload.size());
        client_->Write(payload.data(), payload.size());
        fixed_chunks[c].clear();
        varlen_chunks[c].clear();
        null_flags[c].clear();
      }
      chunk_rows = 0;
    };

    ForEachBlock(table, txn_manager, &result, [&](const arrowlite::RecordBatch &batch) {
      for (int64_t r = 0; r < batch.num_rows(); r++) {
        for (uint16_t c = 0; c < schema.NumColumns(); c++) {
          const arrowlite::Array &col = *batch.column(c);
          const catalog::Column &column = schema.GetColumn(c);
          const bool null = col.IsNull(r);
          null_flags[c].push_back(null ? 1 : 0);
          if (column.IsVarlen()) {
            if (null) continue;
            const std::string_view value = col.GetString(r);
            const auto size = static_cast<uint32_t>(value.size());
            const auto *size_bytes = reinterpret_cast<const byte *>(&size);
            const auto *value_bytes = reinterpret_cast<const byte *>(value.data());
            varlen_chunks[c].insert(varlen_chunks[c].end(), size_bytes, size_bytes + 4);
            varlen_chunks[c].insert(varlen_chunks[c].end(), value_bytes, value_bytes + size);
          } else if (null) {
            fixed_chunks[c].insert(fixed_chunks[c].end(), column.AttrSize(), byte{0});
          } else {
            const byte *value = FixedValue(col, r, column.AttrSize());
            fixed_chunks[c].insert(fixed_chunks[c].end(), value, value + column.AttrSize());
          }
        }
        if (++chunk_rows == kChunkRows) flush_chunk();
      }
    });
    flush_chunk();

    // Client side: reassemble arrays from the chunked wire format.
    {
      std::vector<arrowlite::FixedBuilder<uint64_t>> fixed8;
      std::vector<arrowlite::FixedBuilder<uint32_t>> fixed4;
      std::vector<arrowlite::FixedBuilder<uint16_t>> fixed2;
      std::vector<arrowlite::FixedBuilder<uint8_t>> fixed1;
      std::vector<arrowlite::StringBuilder> strings;
      std::vector<std::pair<int, size_t>> dispatch;
      for (uint16_t c = 0; c < schema.NumColumns(); c++) {
        const catalog::Column &col = schema.GetColumn(c);
        if (col.IsVarlen()) {
          dispatch.emplace_back(4, strings.size());
          strings.emplace_back();
        } else if (col.AttrSize() == 8) {
          dispatch.emplace_back(3, fixed8.size());
          fixed8.emplace_back(arrowlite::Type::kUInt64);
        } else if (col.AttrSize() == 4) {
          dispatch.emplace_back(2, fixed4.size());
          fixed4.emplace_back(arrowlite::Type::kUInt32);
        } else if (col.AttrSize() == 2) {
          dispatch.emplace_back(1, fixed2.size());
          fixed2.emplace_back(arrowlite::Type::kUInt16);
        } else {
          dispatch.emplace_back(0, fixed1.size());
          fixed1.emplace_back(arrowlite::Type::kUInt8);
        }
      }
      const byte *data = client_->data();
      uint64_t pos = 0;
      int64_t rows = 0;
      while (pos < client_->size()) {
        pos += 1;  // 'V'
        uint32_t n;
        std::memcpy(&n, data + pos, 4);
        pos += 4;
        rows += n;
        for (uint16_t c = 0; c < schema.NumColumns(); c++) {
          const uint8_t *nulls = reinterpret_cast<const uint8_t *>(data + pos);
          pos += n;
          uint64_t payload_size;
          std::memcpy(&payload_size, data + pos, 8);
          pos += 8;
          const byte *payload = data + pos;
          pos += payload_size;
          auto [kind, idx] = dispatch[c];
          uint64_t off = 0;
          for (uint32_t r = 0; r < n; r++) {
            const bool null = nulls[r] != 0;
            switch (kind) {
              case 0:
                if (null) {
                  fixed1[idx].AppendNull();
                } else {
                  fixed1[idx].Append(*reinterpret_cast<const uint8_t *>(payload + off));
                }
                off += 1;
                break;
              case 1:
                if (null) {
                  fixed2[idx].AppendNull();
                } else {
                  uint16_t v;
                  std::memcpy(&v, payload + off, 2);
                  fixed2[idx].Append(v);
                }
                off += 2;
                break;
              case 2:
                if (null) {
                  fixed4[idx].AppendNull();
                } else {
                  uint32_t v;
                  std::memcpy(&v, payload + off, 4);
                  fixed4[idx].Append(v);
                }
                off += 4;
                break;
              case 3:
                if (null) {
                  fixed8[idx].AppendNull();
                } else {
                  uint64_t v;
                  std::memcpy(&v, payload + off, 8);
                  fixed8[idx].Append(v);
                }
                off += 8;
                break;
              case 4: {
                if (null) {
                  strings[idx].AppendNull();
                  break;
                }
                uint32_t len;
                std::memcpy(&len, payload + off, 4);
                off += 4;
                strings[idx].Append(
                    {reinterpret_cast<const char *>(payload + off), len});
                off += len;
                break;
              }
            }
          }
        }
      }
      std::vector<arrowlite::Field> fields;
      std::vector<std::shared_ptr<arrowlite::Array>> columns;
      for (uint16_t c = 0; c < schema.NumColumns(); c++) {
        auto [kind, idx] = dispatch[c];
        fields.emplace_back(schema.GetColumn(c).Name(),
                            kind == 4 ? arrowlite::Type::kString
                                      : transform::ArrowReader::ToArrowType(
                                            schema.GetColumn(c).Type()));
        switch (kind) {
          case 0:
            columns.push_back(fixed1[idx].Finish());
            break;
          case 1:
            columns.push_back(fixed2[idx].Finish());
            break;
          case 2:
            columns.push_back(fixed4[idx].Finish());
            break;
          case 3:
            columns.push_back(fixed8[idx].Finish());
            break;
          case 4:
            columns.push_back(strings[idx].Finish());
            break;
        }
      }
      client_batch_ = std::make_shared<arrowlite::RecordBatch>(
          std::make_shared<arrowlite::Schema>(std::move(fields)), rows, std::move(columns));
    }
  }
  result.wire_bytes = client_->size();
  return result;
}

ExportResult ArrowFlightExporter::Export(catalog::SqlTable *table,
                                         transaction::TransactionManager *txn_manager) {
  client_->Reset();
  client_batches_.clear();
  ExportResult result;
  {
    common::ScopedTimer<std::chrono::microseconds> timer(&result.micros);
    auto arrow_schema = transform::ArrowReader::ToArrowSchema(table->GetSchema());
    arrowlite::IpcStreamWriter writer(client_, *arrow_schema);
    // Frozen blocks' buffers go onto the wire verbatim; hot blocks are
    // materialized from the export's snapshot first.
    ForEachBlock(table, txn_manager, &result,
                 [&](const arrowlite::RecordBatch &batch) { writer.WriteBatch(batch); });
    writer.Close();
    // Client side: land the stream (no per-value parsing).
    arrowlite::SpanSource source(client_->data(), client_->size());
    arrowlite::IpcStreamReader reader(&source);
    while (auto batch = reader.ReadNext()) client_batches_.push_back(std::move(batch));
  }
  result.wire_bytes = client_->size();
  return result;
}

ExportResult RdmaExporter::Export(catalog::SqlTable *table,
                                  transaction::TransactionManager *txn_manager) {
  client_->Reset();
  ExportResult result;
  {
    common::ScopedTimer<std::chrono::microseconds> timer(&result.micros);
    auto write_batch_raw = [&](const arrowlite::RecordBatch &batch) {
      for (int c = 0; c < batch.num_columns(); c++) {
        const arrowlite::Array &array = *batch.column(c);
        if (array.validity() != nullptr) {
          client_->Write(array.validity()->data(), array.validity()->size());
        }
        client_->Write(array.buffer(0)->data(), array.buffer(0)->size());
        if (array.type() == arrowlite::Type::kString) {
          client_->Write(array.buffer(1)->data(), array.buffer(1)->size());
        } else if (array.type() == arrowlite::Type::kDictionary) {
          const arrowlite::Array &dict = *array.dictionary();
          client_->Write(dict.buffer(0)->data(), dict.buffer(0)->size());
          client_->Write(dict.buffer(1)->data(), dict.buffer(1)->size());
        }
      }
    };

    // One-sided transfer of each block's Arrow buffers into client memory:
    // no serialization, no framing, no server-side encode.
    ForEachBlock(table, txn_manager, &result, write_batch_raw);
  }
  result.wire_bytes = client_->size();
  return result;
}

}  // namespace mainline::exporter
