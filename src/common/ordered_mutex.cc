#include "common/ordered_mutex.h"

#include <cstdio>
#include <cstdlib>

namespace citusx {

namespace {
// Ranks held by the calling thread, in acquisition order. Depth is tiny
// (two or three nested locks at most), so a fixed array beats a vector.
constexpr int kMaxHeld = 8;
thread_local int tl_held_ranks[kMaxHeld];
thread_local int tl_held_depth = 0;
}  // namespace

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kConnectionPool:
      return "ConnectionPool";
    case LockRank::kCatalog:
      return "Catalog";
    case LockRank::kCitusMetadata:
      return "CitusMetadata";
    case LockRank::kLockTable:
      return "LockTable";
    case LockRank::kMetricsRegistry:
      return "MetricsRegistry";
    case LockRank::kTraceCollector:
      return "TraceCollector";
  }
  return "Unknown";
}

int HeldLockDepth() { return tl_held_depth; }

LockRank InnermostHeldRank() {
  return static_cast<LockRank>(tl_held_ranks[tl_held_depth - 1]);
}

void OrderedMutex::lock() {
  const int rank = static_cast<int>(rank_);
  if (tl_held_depth > 0 && tl_held_ranks[tl_held_depth - 1] >= rank) {
    std::fprintf(stderr,
                 "[ordered_mutex] lock-rank inversion: acquiring %s(%d) while "
                 "holding rank %d\n",
                 LockRankName(rank_), rank, tl_held_ranks[tl_held_depth - 1]);
    std::abort();
  }
  if (tl_held_depth >= kMaxHeld) {
    std::fprintf(stderr, "[ordered_mutex] lock depth exceeds %d\n", kMaxHeld);
    std::abort();
  }
  mu_.lock();
  tl_held_ranks[tl_held_depth] = rank;
  tl_held_depth++;
}

bool OrderedMutex::try_lock() {
  const int rank = static_cast<int>(rank_);
  if (tl_held_depth > 0 && tl_held_ranks[tl_held_depth - 1] >= rank) {
    std::fprintf(stderr,
                 "[ordered_mutex] lock-rank inversion: try_lock of %s(%d) "
                 "while holding rank %d\n",
                 LockRankName(rank_), rank, tl_held_ranks[tl_held_depth - 1]);
    std::abort();
  }
  if (tl_held_depth >= kMaxHeld) {
    std::fprintf(stderr, "[ordered_mutex] lock depth exceeds %d\n", kMaxHeld);
    std::abort();
  }
  if (!mu_.try_lock()) return false;
  tl_held_ranks[tl_held_depth] = rank;
  tl_held_depth++;
  return true;
}

void OrderedMutex::unlock() {
  // Guards release LIFO. Releasing out of order would desync the stack, so
  // enforce it.
  const int rank = static_cast<int>(rank_);
  if (tl_held_depth <= 0 || tl_held_ranks[tl_held_depth - 1] != rank) {
    std::fprintf(stderr,
                 "[ordered_mutex] non-LIFO unlock of %s(%d)\n",
                 LockRankName(rank_), rank);
    std::abort();
  }
  tl_held_depth--;
  mu_.unlock();
}

}  // namespace citusx
