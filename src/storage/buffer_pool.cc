#include "storage/buffer_pool.h"

namespace citusx::storage {

int64_t BufferPool::EvictIfNeeded() {
  int64_t writes = 0;
  while (static_cast<int64_t>(lru_.size()) >= capacity_pages_ &&
         !lru_.empty()) {
    const Entry& victim = lru_.back();
    if (victim.dirty) writes++;
    map_.erase(victim.block);
    lru_.pop_back();
    evictions_++;
    if (evictions_metric_ != nullptr) evictions_metric_->Inc();
  }
  return writes;
}

bool BufferPool::Access(BlockId block, bool dirty) {
  // Consecutive touches of one block (a heap scan's rows) find it at the
  // front already: a hit with nothing to move.
  if (!lru_.empty() && lru_.front().block == block) {
    hits_++;
    if (hits_metric_ != nullptr) hits_metric_->Inc();
    lru_.front().dirty = lru_.front().dirty || dirty;
    return true;
  }
  auto it = map_.find(block);
  if (it != map_.end()) {
    hits_++;
    if (hits_metric_ != nullptr) hits_metric_->Inc();
    it->second->dirty = it->second->dirty || dirty;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  misses_++;
  if (misses_metric_ != nullptr) misses_metric_->Inc();
  int64_t writes = EvictIfNeeded();
  lru_.push_front(Entry{block, dirty});
  map_[block] = lru_.begin();
  // One read for the miss plus any dirty-evict writes.
  return disk_->Io(1 + writes);
}

bool BufferPool::AppendBlock(BlockId block) {
  auto it = map_.find(block);
  if (it != map_.end()) {
    it->second->dirty = true;
    lru_.splice(lru_.begin(), lru_, it->second);
    return disk_->Io(1);
  }
  int64_t writes = EvictIfNeeded();
  lru_.push_front(Entry{block, true});
  map_[block] = lru_.begin();
  return disk_->Io(1 + writes);
}

void BufferPool::Forget(uint64_t object_id) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->block.object_id == object_id) {
      map_.erase(it->block);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace citusx::storage
