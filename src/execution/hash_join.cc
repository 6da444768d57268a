#include "execution/hash_join.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "execution/parallel_scanner.h"

namespace mainline::execution {

JoinHashTable JoinHashTable::Build(catalog::SqlTable *table,
                                   transaction::TransactionContext *txn,
                                   const std::vector<uint16_t> &projection,
                                   const BuildEmitFn &emit, common::WorkerPool *pool,
                                   ScanStats *stats) {
  // Phase 1 — scan: one entry vector per block ordinal; workers write
  // disjoint slots, so no synchronization beyond the scan itself.
  ParallelTableScanner scanner(table, txn, projection);
  std::vector<std::vector<JoinEntry>> per_block(scanner.NumBlocks());
  scanner.Scan(pool, [&](size_t ordinal, ColumnVectorBatch *batch) {
    emit(*batch, &per_block[ordinal]);
  });
  if (stats != nullptr) stats->Add(scanner.Stats());
  return FromOrdinalLists(per_block);
}

JoinHashTable JoinHashTable::FromOrdinalLists(
    const std::vector<std::vector<JoinEntry>> &per_block) {
  JoinHashTable result;
  uint64_t n = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
  for (const std::vector<JoinEntry> &entries : per_block) {
    n += entries.size();
    for (const JoinEntry &entry : entries) {
      min = std::min(min, entry.key);
      max = std::max(max, entry.key);
    }
  }
  if (n == 0) return result;
  MAINLINE_ASSERT(n < (uint64_t{1} << 32), "the bucket directory holds 32-bit offsets");

  // The range wraps to 0 when the keys span all of int64: hash those. A
  // hashed table has at least two distinct keys (one key spans range 1), so
  // at least two buckets and a shift below 64.
  const uint64_t hashed_buckets = std::bit_ceil(n);
  const uint64_t range = static_cast<uint64_t>(max) - static_cast<uint64_t>(min) + 1;
  const bool dense = range != 0 && range <= kDenseRangeFactor * hashed_buckets;
  result.dense_ = dense;
  result.min_ = min;
  result.shift_ = dense ? 0 : 64 - static_cast<uint32_t>(std::countr_zero(hashed_buckets));
  result.num_buckets_ = dense ? range : hashed_buckets;
  result.num_entries_ = n;

  // Count, then prefix-sum: dir[b] becomes the end of bucket b.
  result.dir_ = std::make_unique<uint32_t[]>(result.num_buckets_ + 1);
  uint32_t *dir = result.dir_.get();
  for (const std::vector<JoinEntry> &entries : per_block) {
    for (const JoinEntry &entry : entries) dir[result.Bucket(entry.key)]++;
  }
  uint32_t end = 0;
  for (uint64_t b = 0; b <= result.num_buckets_; b++) {
    end += dir[b];
    dir[b] = end;
  }

  // Scatter back to front, so each bucket fills from its end down to its
  // start in reverse block order — leaving it in block order and dir[b] at
  // the bucket's start.
  result.entries_ = std::make_unique_for_overwrite<JoinEntry[]>(n);
  JoinEntry *entries = result.entries_.get();
  for (auto list = per_block.rbegin(); list != per_block.rend(); ++list) {
    for (auto entry = list->rbegin(); entry != list->rend(); ++entry) {
      entries[--dir[result.Bucket(entry->key)]] = *entry;
    }
  }
  return result;
}

}  // namespace mainline::execution
