// Buffer pool: tracks which logical blocks are memory-resident per node and
// charges simulated disk I/O on misses and dirty evictions.
//
// Data always lives in host RAM (this is a simulation); the pool only decides
// whether an access *would have* hit disk, which is what produces the paper's
// "fits in memory after scaling out" effects (§4).
#ifndef CITUSX_STORAGE_BUFFER_POOL_H_
#define CITUSX_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "obs/metrics.h"
#include "sim/resources.h"
#include "sim/simulation.h"

namespace citusx::storage {

/// Identifies an 8KB logical block of some storage object (table or index).
struct BlockId {
  uint64_t object_id = 0;
  uint64_t block_no = 0;
  bool operator==(const BlockId& o) const {
    return object_id == o.object_id && block_no == o.block_no;
  }
};

struct BlockIdHash {
  size_t operator()(const BlockId& b) const {
    return static_cast<size_t>(b.object_id * 0x9e3779b97f4a7c15ULL +
                               b.block_no);
  }
};

/// LRU block cache model. Simulation-domain (no locking needed).
class BufferPool {
 public:
  BufferPool(sim::Simulation* sim, sim::DiskResource* disk,
             int64_t capacity_bytes, int64_t page_bytes)
      : sim_(sim),
        disk_(disk),
        capacity_pages_(capacity_bytes / page_bytes),
        page_bytes_(page_bytes) {}

  /// Touch a block for read or write. Charges one disk read on a miss and
  /// one disk write when a dirty page is evicted. Returns false if the
  /// calling process was cancelled while waiting on I/O.
  bool Access(BlockId block, bool dirty);

  /// Touch a freshly appended block: resident immediately, one write charged
  /// (models WAL + page write).
  bool AppendBlock(BlockId block);

  /// Drop all blocks belonging to an object (table drop/truncate) without
  /// I/O charge.
  void Forget(uint64_t object_id);

  int64_t resident_pages() const { return static_cast<int64_t>(lru_.size()); }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }
  int64_t page_bytes() const { return page_bytes_; }

  /// Mirror hit/miss/eviction counts into a metrics registry.
  void BindMetrics(obs::Metrics* metrics) {
    hits_metric_ = metrics->counter("bufferpool.hits");
    misses_metric_ = metrics->counter("bufferpool.misses");
    evictions_metric_ = metrics->counter("bufferpool.evictions");
  }

 private:
  struct Entry {
    BlockId block;
    bool dirty;
  };
  using LruList = std::list<Entry>;

  // Make room for one more page. Accumulates dirty-evict write ops and
  // returns their count (charged by the caller in one batch).
  int64_t EvictIfNeeded();

  sim::Simulation* sim_;
  sim::DiskResource* disk_;
  int64_t capacity_pages_;
  int64_t page_bytes_;
  LruList lru_;  // front = most recent
  std::unordered_map<BlockId, LruList::iterator, BlockIdHash> map_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* misses_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
};

}  // namespace citusx::storage

#endif  // CITUSX_STORAGE_BUFFER_POOL_H_
