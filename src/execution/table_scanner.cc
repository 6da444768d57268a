#include "execution/table_scanner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "catalog/schema.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "transform/arrow_reader.h"

namespace mainline::execution {

TableScanner::TableScanner(catalog::SqlTable *table, transaction::TransactionContext *txn,
                           std::vector<uint16_t> projection)
    : table_(table),
      txn_(txn),
      projection_(std::move(projection)),
      blocks_(table->UnderlyingTable().Blocks()) {
  MAINLINE_ASSERT(!projection_.empty(), "scan projection must name at least one column");
  MAINLINE_ASSERT(std::is_sorted(projection_.begin(), projection_.end()) &&
                      std::adjacent_find(projection_.begin(), projection_.end()) ==
                          projection_.end(),
                  "scan projection must be sorted ascending and duplicate-free");
  MAINLINE_ASSERT(projection_.back() < table->GetSchema().NumColumns(),
                  "scan projection column out of range");
}

uint16_t ProjectionIndexOf(const std::vector<uint16_t> &projection, uint16_t schema_pos) {
  const auto it = std::lower_bound(projection.begin(), projection.end(), schema_pos);
  if (it == projection.end() || *it != schema_pos) {
    std::fprintf(stderr, "FATAL: schema column %u is not in the scan projection\n",
                 schema_pos);
    std::abort();
  }
  return static_cast<uint16_t>(it - projection.begin());
}

uint16_t TableScanner::BatchIndex(uint16_t schema_pos) const {
  return ProjectionIndexOf(projection_, schema_pos);
}

bool TableScanner::Next(ColumnVectorBatch *out) {
  while (next_block_ < blocks_.size()) {
    *out = transform::ArrowReader::ReadBlock(table_->GetSchema(), &table_->UnderlyingTable(),
                                             blocks_[next_block_++], txn_, &projection_);
    if (stats_.Count(*out)) return true;
  }
  out->Release();
  return false;
}

}  // namespace mainline::execution
