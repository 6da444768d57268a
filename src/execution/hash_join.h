#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "arrowlite/array.h"
#include "common/macros.h"
#include "common/selection_vector.h"
#include "common/worker_pool.h"
#include "execution/column_vector_batch.h"
#include "execution/table_scanner.h"
#include "catalog/sql_table.h"
#include "transaction/transaction_context.h"

namespace mainline::execution {

/// One build-side row of a hash join: the 8-byte join key plus an 8-byte
/// payload the probe side consumes per match. Callers with wider payloads
/// pack an index into a side array; the join operators in tpch_queries pack
/// the (small) aggregate input directly.
struct JoinEntry {
  int64_t key;
  uint64_t payload;
};

/// Emit the (key, payload) pairs of one build-side batch into `out`, in batch
/// row order. Runs on scan worker threads; must only touch the batch and
/// `out`. Invisible rows never reach this callback, and a null key should
/// simply not be emitted (SQL join semantics: null never matches).
using BuildEmitFn = std::function<void(const ColumnVectorBatch &batch,
                                       std::vector<JoinEntry> *out)>;

/// The build side of a morsel-parallel hash join (Section 4.1's dual access
/// path underneath, morsel-driven on top): one contiguous array of build
/// entries grouped by bucket, plus a directory of B+1 offsets — bucket b's
/// entries are entries_[dir_[b], dir_[b+1]).
///
/// A key's bucket is `key - min` when the build keys are dense (their range
/// is at most kDenseRangeFactor times the hashed bucket count next_pow2(n)),
/// so surrogate keys arriving in key order are laid out in key order.
/// Otherwise it is the top bits of HashKey. One probe loop serves both.
///
/// The build takes no lock. Scan workers emit (key, payload) pairs into one
/// list per block ordinal (disjoint writes, like the query engines'
/// per-block partials); FromOrdinalLists then finds the key range, counts
/// and prefix-sums the entries per bucket, and scatters them walking the
/// lists back to front, so each bucket holds its entries in block order at
/// any worker count. ForEachMatch visits duplicate keys in that order. The
/// table is immutable once built, so any number of threads may probe it.
class JoinHashTable {
 public:
  /// Dense keys span fewer than 16 directory offsets per entry.
  static constexpr uint64_t kDenseRangeFactor = 8;

  JoinHashTable() = default;

  DISALLOW_COPY(JoinHashTable)
  JoinHashTable(JoinHashTable &&) noexcept = default;
  JoinHashTable &operator=(JoinHashTable &&) noexcept = default;

  /// Build the table by scanning `table` (both frozen zero-copy and hot
  /// materialized blocks) with `projection`, emitting build entries through
  /// `emit`. A null/zero-worker/shut-down pool degrades to an inline scan on
  /// the calling thread. `txn` must stay read-only while the build runs
  /// (scan workers share it).
  /// \param stats accumulates the build scan's counters (may be nullptr)
  static JoinHashTable Build(catalog::SqlTable *table, transaction::TransactionContext *txn,
                             const std::vector<uint16_t> &projection, const BuildEmitFn &emit,
                             common::WorkerPool *pool, ScanStats *stats = nullptr);

  /// The table over per-block-ordinal entry lists, for callers that scan on
  /// their own (e.g. op::HashJoinBuildOp, whose pipeline filters first).
  static JoinHashTable FromOrdinalLists(const std::vector<std::vector<JoinEntry>> &per_block);

  /// Invoke `fn(payload)` for every build entry whose key equals `key`, in
  /// the deterministic insertion order described above. Thread-safe.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn &&fn) const {
    const uint64_t b = Bucket(key);
    if (b >= num_buckets_) return;
    const JoinEntry *const end = entries_.get() + dir_[b + 1];
    for (const JoinEntry *entry = entries_.get() + dir_[b]; entry != end; ++entry) {
      if (entry->key == key) fn(entry->payload);
    }
  }

  /// Probe every selected row of an int64 key column, invoking
  /// `fn(row, payload)` per match. Null keys match nothing. Thread-safe.
  template <typename Fn>
  void ProbeSelected(const arrowlite::Array &keys, const common::SelectionVector &sel,
                     Fn &&fn) const {
    const int64_t *values = keys.buffer(0)->data_as<int64_t>();
    if (keys.null_count() == 0) {
      for (const uint32_t row : sel) {
        ForEachMatch(values[row], [&](uint64_t payload) { fn(row, payload); });
      }
    } else {
      for (const uint32_t row : sel) {
        if (keys.IsNull(row)) continue;
        ForEachMatch(values[row], [&](uint64_t payload) { fn(row, payload); });
      }
    }
  }

  /// \return total number of build entries.
  uint64_t NumEntries() const { return num_entries_; }

  bool Empty() const { return num_entries_ == 0; }

  /// \return true if buckets are `key - min` rather than hash prefixes.
  bool DenseKeys() const { return dense_; }

  /// 64-bit mix of a join key (splitmix64 finalizer); the hashed layout's
  /// bucket is its top bits.
  static uint64_t HashKey(int64_t key) {
    auto x = static_cast<uint64_t>(key);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

 private:
  /// A dense key below min_ wraps to a huge bucket, so probes need only the
  /// `b < num_buckets_` test.
  uint64_t Bucket(int64_t key) const {
    return dense_ ? static_cast<uint64_t>(key) - static_cast<uint64_t>(min_)
                  : HashKey(key) >> shift_;
  }

  /// num_buckets_ + 1 offsets into entries_ (none for an empty table, whose
  /// zero bucket count rejects every probe).
  std::unique_ptr<uint32_t[]> dir_;
  std::unique_ptr<JoinEntry[]> entries_;
  uint64_t num_buckets_ = 0;
  uint64_t num_entries_ = 0;
  int64_t min_ = 0;     ///< dense layout: the smallest build key
  uint32_t shift_ = 0;  ///< hashed layout: 64 - log2(num_buckets_)
  bool dense_ = true;
};

}  // namespace mainline::execution
