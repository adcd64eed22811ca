#include "storage/index.h"

#include <algorithm>

#include "common/hash.h"

namespace citusx::storage {

namespace {
// Entry overhead: key datums + pointer + item header.
int64_t EntryBytes(const IndexKey& key) {
  int64_t n = 16;
  for (const auto& d : key) n += d.PhysicalSize();
  return n;
}
}  // namespace

IndexKey BtreeIndex::KeyFromRow(const sql::Row& row) const {
  IndexKey key;
  key.reserve(key_columns_.size());
  for (int c : key_columns_) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

uint64_t BtreeIndex::LeafPageFor(const IndexKey& key) const {
  uint64_t h = 0;
  for (const auto& d : key) {
    h = Mix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(
                      d.PartitionHash())));
  }
  return h % static_cast<uint64_t>(NumLeafPages());
}

bool BtreeIndex::Insert(const IndexKey& key, RowId rid) {
  map_.emplace(key, rid);
  size_bytes_ += EntryBytes(key);
  return pool_->Access(BlockId{object_id_, LeafPageFor(key)}, /*dirty=*/true);
}

void BtreeIndex::Remove(const IndexKey& key, RowId rid) {
  auto [lo, hi] = map_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == rid) {
      size_bytes_ -= EntryBytes(key);
      map_.erase(it);
      return;
    }
  }
}

bool BtreeIndex::EqualRange(const IndexKey& key, std::vector<RowId>* out) {
  if (key.size() == key_columns_.size()) {
    auto [lo, hi] = map_.equal_range(key);
    for (auto it = lo; it != hi; ++it) out->push_back(it->second);
  } else {
    // Prefix scan: [key, key+] using the comparator's prefix behaviour.
    auto it = map_.lower_bound(key);
    for (; it != map_.end(); ++it) {
      bool prefix_match = true;
      for (size_t i = 0; i < key.size(); i++) {
        if (sql::Datum::Compare(it->first[i], key[i]) != 0) {
          prefix_match = false;
          break;
        }
      }
      if (!prefix_match) break;
      out->push_back(it->second);
    }
  }
  return pool_->Access(BlockId{object_id_, LeafPageFor(key)}, /*dirty=*/false);
}

bool BtreeIndex::Range(const sql::Datum* lo, bool lo_inclusive,
                       const sql::Datum* hi, bool hi_inclusive,
                       std::vector<RowId>* out) {
  auto it = map_.begin();
  if (lo != nullptr) {
    IndexKey lo_key = {*lo};
    it = lo_inclusive ? map_.lower_bound(lo_key) : map_.upper_bound(lo_key);
    if (!lo_inclusive) {
      // upper_bound on a prefix key stops at the first key whose first column
      // exceeds lo only if the comparator treats shorter keys as smaller;
      // skip any keys equal on the first column.
      while (it != map_.end() &&
             sql::Datum::Compare(it->first[0], *lo) == 0) {
        ++it;
      }
    }
  }
  int64_t touched = 0;
  for (; it != map_.end(); ++it) {
    if (hi != nullptr) {
      int c = sql::Datum::Compare(it->first[0], *hi);
      if (c > 0 || (c == 0 && !hi_inclusive)) break;
    }
    out->push_back(it->second);
    touched++;
  }
  // Charge one leaf page per ~page worth of entries scanned.
  int64_t entries_per_page =
      std::max<int64_t>(1, pool_->page_bytes() / 32);
  int64_t pages = touched / entries_per_page + 1;
  bool ok = true;
  uint64_t base = lo != nullptr
                      ? LeafPageFor(IndexKey{*lo})
                      : 0;
  for (int64_t p = 0; p < pages; p++) {
    ok = pool_->Access(
        BlockId{object_id_,
                (base + static_cast<uint64_t>(p)) %
                    static_cast<uint64_t>(NumLeafPages())},
        false);
    if (!ok) break;
  }
  return ok;
}

// ---- GIN trigram index ----

namespace {

uint32_t FoldByte(char c) {
  auto b = static_cast<unsigned char>(c);
  return b >= 'A' && b <= 'Z' ? b - 'A' + 'a' : b;
}

// The lowercased trigram of s[0, n), n in 1..3.
Trigram Pack(const char* s, size_t n) {
  Trigram t = static_cast<Trigram>(n) << 24;
  for (size_t i = 0; i < n; i++) t |= FoldByte(s[i]) << (16 - 8 * i);
  return t;
}

// Every trigram of `run` (length >= 3) appended to `out`.
void AppendTrigrams(std::string_view run, std::vector<Trigram>* out) {
  for (size_t i = 0; i + 3 <= run.size(); i++) {
    out->push_back(Pack(run.data() + i, 3));
  }
}

void SortUnique(std::vector<Trigram>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

std::vector<Trigram> GinTrgmIndex::ExtractTrigrams(std::string_view text) {
  std::vector<Trigram> out;
  if (text.size() < 3) {
    if (!text.empty()) out.push_back(Pack(text.data(), text.size()));
    return out;
  }
  out.reserve(text.size() - 2);
  AppendTrigrams(text, &out);
  SortUnique(&out);
  return out;
}

std::vector<Trigram> GinTrgmIndex::PatternTrigrams(std::string_view pattern) {
  std::vector<Trigram> out;
  size_t start = 0;
  for (size_t i = 0; i <= pattern.size(); i++) {
    if (i == pattern.size() || pattern[i] == '%' || pattern[i] == '_') {
      AppendTrigrams(pattern.substr(start, i - start), &out);
      start = i + 1;
    }
  }
  SortUnique(&out);
  return out;
}

uint64_t GinTrgmIndex::PageFor(Trigram t) const {
  int64_t pages = std::max<int64_t>(1, size_bytes_ / pool_->page_bytes());
  char bytes[3];
  size_t n = t >> 24;
  for (size_t i = 0; i < n; i++) {
    bytes[i] = static_cast<char>((t >> (16 - 8 * i)) & 0xff);
  }
  return static_cast<uint64_t>(static_cast<uint32_t>(
             HashBytes(std::string_view(bytes, n)))) %
         static_cast<uint64_t>(pages);
}

int64_t GinTrgmIndex::Insert(std::string_view text, RowId rid) {
  std::vector<Trigram> trigrams = ExtractTrigrams(text);
  for (Trigram t : trigrams) {
    auto& plist = postings_[t];
    plist.push_back(rid);
    size_bytes_ += 8 + (plist.size() == 1 ? 16 : 0);
    pool_->Access(BlockId{object_id_, PageFor(t)}, /*dirty=*/true);
  }
  return static_cast<int64_t>(trigrams.size());
}

bool GinTrgmIndex::Candidates(const std::vector<Trigram>& trigrams,
                              std::vector<RowId>* out) {
  bool first = true;
  std::vector<RowId> current;
  for (Trigram t : trigrams) {
    if (!pool_->Access(BlockId{object_id_, PageFor(t)}, false)) return false;
    auto it = postings_.find(t);
    if (it == postings_.end()) {
      out->clear();
      return true;
    }
    std::vector<RowId> sorted = it->second;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    if (first) {
      current = std::move(sorted);
      first = false;
    } else {
      std::vector<RowId> merged;
      std::set_intersection(current.begin(), current.end(), sorted.begin(),
                            sorted.end(), std::back_inserter(merged));
      current = std::move(merged);
    }
    if (current.empty()) break;
  }
  *out = std::move(current);
  return true;
}

void GinTrgmIndex::Remove(std::string_view text, RowId rid) {
  for (Trigram t : ExtractTrigrams(text)) {
    auto it = postings_.find(t);
    if (it == postings_.end()) continue;
    auto& plist = it->second;
    for (auto pit = plist.begin(); pit != plist.end(); ++pit) {
      if (*pit == rid) {
        plist.erase(pit);
        size_bytes_ -= 8;
        break;
      }
    }
    if (plist.empty()) {
      postings_.erase(it);
      size_bytes_ -= 16;
    }
  }
}

}  // namespace citusx::storage
