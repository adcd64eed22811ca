// MVCC heap table: append-only tuple versions grouped into logical blocks
// whose residency is tracked by the BufferPool.
#ifndef CITUSX_STORAGE_HEAP_H_
#define CITUSX_STORAGE_HEAP_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/datum.h"
#include "sql/types.h"
#include "storage/buffer_pool.h"
#include "storage/mvcc.h"

namespace citusx::storage {

/// Index of a logical row (version chain) within a heap table.
using RowId = uint64_t;

/// A single heap table. All mutation methods are simulation-domain: they may
/// yield while waiting on simulated I/O, so callers must not hold references
/// into the heap across calls.
class HeapTable {
 public:
  HeapTable(uint64_t object_id, sql::Schema schema, BufferPool* pool)
      : object_id_(object_id), schema_(std::move(schema)), pool_(pool) {}

  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  const sql::Schema& schema() const { return schema_; }
  uint64_t object_id() const { return object_id_; }

  /// Append a new logical row; charges block I/O. Returns its RowId.
  Result<RowId> Insert(sql::Row row, TxnId xmin);

  /// Number of logical row slots (including dead rows); scan bound.
  RowId num_rows() const { return static_cast<RowId>(rows_.size()); }

  /// Charge buffer-pool access for the block containing `rid`.
  bool TouchRow(RowId rid, bool dirty);

  /// The version of `rid` visible to `snap`, or nullptr. The pointer is
  /// invalidated by any yield (I/O wait) or mutation.
  const TupleVersion* VisibleVersion(RowId rid, const Snapshot& snap,
                                     const TxnStatusResolver& resolver) const;

  /// Newest version not created by an aborted transaction (what an UPDATE
  /// sees after acquiring the row lock), or nullptr if the row is dead.
  const TupleVersion* LatestVersion(RowId rid,
                                    const TxnStatusResolver& resolver) const;

  /// MVCC update: mark the latest version superseded by `xid` and append a
  /// new version. Caller must hold the row lock.
  Status UpdateRow(RowId rid, sql::Row new_row, TxnId xid,
                   const TxnStatusResolver& resolver);

  /// MVCC delete: set xmax of the latest version. Caller must hold the lock.
  Status DeleteRow(RowId rid, TxnId xid, const TxnStatusResolver& resolver);

  /// Remove versions no transaction can see. Returns versions reclaimed.
  int64_t Vacuum(TxnId oldest_active, const TxnStatusResolver& resolver);

  /// Logical on-disk footprint.
  int64_t data_bytes() const { return data_bytes_; }
  /// Dead-version count (drives autovacuum scheduling).
  int64_t dead_versions() const { return dead_versions_; }

  /// Remove all rows without I/O (TRUNCATE).
  void Truncate();

 private:
  struct HeapRow {
    std::vector<TupleVersion> versions;  // oldest first
    uint64_t block_no = 0;
  };

  uint64_t object_id_;
  sql::Schema schema_;
  BufferPool* pool_;
  std::vector<HeapRow> rows_;
  uint64_t next_block_ = 0;
  int64_t block_bytes_used_ = 0;
  int64_t data_bytes_ = 0;
  int64_t dead_versions_ = 0;
};

}  // namespace citusx::storage

#endif  // CITUSX_STORAGE_HEAP_H_
