// JSONB values. A jsonb Datum holds one flat document: an immutable,
// contiguous pre-order encoding in a SharedBlock, built once from text
// (ParseJsonb) and read in place through JsonbView. Copies of the Datum
// share the block, and a sub-value (`->`) is the same block at the offset
// of the value inside it.
//
// The Json tree below is only a builder for internal payloads and report
// files (metadata sync, UDF specs, bench JSON). It parses and prints
// through the flat form, so the grammar and the printed format exist once.
//
// Two things about a document never change with its representation: the
// text it prints (keys in insertion order, duplicates kept, integers below
// 1e15 as %lld and other numbers as %.17g, five escapes) and its
// PhysicalSize (the block and wire accounting of every heap, index and
// network charge that carries it).
#ifndef CITUSX_SQL_JSON_H_
#define CITUSX_SQL_JSON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace citusx::sql {

enum class JsonKind : uint8_t {
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject
};

/// An immutable, reference-counted run of bytes behind a header of
/// (count, length): a jsonb document, or a text value too long to sit
/// inline in a Datum. Every copy of the Datum that holds it shares it. The
/// count is a plain integer: the program runs on one thread (DESIGN.md
/// §6.3).
class SharedBlock {
 public:
  /// A block of `size` bytes for the caller to fill, with count 1.
  static SharedBlock* New(size_t size);
  SharedBlock(const SharedBlock&) = delete;
  SharedBlock& operator=(const SharedBlock&) = delete;

  void Ref() { refs_++; }
  /// Frees the block when this was the last reference.
  void Unref();

  size_t size() const { return size_; }
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }
  char* data() { return reinterpret_cast<char*>(this + 1); }

 private:
  explicit SharedBlock(size_t size) : size_(size) {}

  size_t refs_ = 1;
  size_t size_;
};

/// One flat document in a SharedBlock, holding one reference to it. Every
/// value is a tag byte and its payload:
///   null, false, true   no payload
///   number              8-byte double
///   string              varint length, bytes
///   array               u32 count, u32 bytes of the elements, elements
///   object              u32 count, u32 bytes of the members, then per
///                       member a varint key length, the key, the value
class JsonbBuffer {
 public:
  JsonbBuffer() = default;
  /// Takes over the caller's reference to `block`.
  explicit JsonbBuffer(SharedBlock* block) : block_(block) {}
  JsonbBuffer(const JsonbBuffer& o) : block_(o.block_) {
    if (block_ != nullptr) block_->Ref();
  }
  JsonbBuffer(JsonbBuffer&& o) noexcept
      : block_(std::exchange(o.block_, nullptr)) {}
  JsonbBuffer& operator=(JsonbBuffer o) noexcept {
    std::swap(block_, o.block_);
    return *this;
  }
  ~JsonbBuffer() {
    if (block_ != nullptr) block_->Unref();
  }

  /// The document's root value; nullptr for an empty buffer.
  const char* get() const {
    return block_ != nullptr ? block_->data() : nullptr;
  }
  /// Hands the block, and this buffer's reference to it, to the caller.
  SharedBlock* release() { return std::exchange(block_, nullptr); }

 private:
  SharedBlock* block_ = nullptr;
};

/// A read-only cursor at one value of a flat document; it does not own
/// the bytes. A default view is "absent" (a missing field or element) and
/// prints as null.
class JsonbView {
 public:
  JsonbView() = default;
  explicit JsonbView(const char* p) : p_(p) {}

  explicit operator bool() const { return p_ != nullptr; }
  const char* data() const { return p_; }

  JsonKind kind() const;
  bool bool_value() const;
  double number_value() const;
  std::string_view string_value() const;
  /// Elements of an array or members of an object; 0 for a scalar.
  int64_t size() const;

  /// The first member named `key`; absent if none or not an object.
  JsonbView Field(std::string_view key) const;
  /// Array element `index`; absent if out of range or not an array.
  JsonbView Element(int64_t index) const;

  /// Calls f(element) for each array element, in order.
  template <typename F>
  void ForEachElement(F&& f) const;
  /// Calls f(key, value) for each object member, in insertion order.
  template <typename F>
  void ForEachMember(F&& f) const;

  /// Bytes of this value's encoding, tag included.
  size_t EncodedSize() const;

  /// The printed text (PostgreSQL jsonb::text in this subset's format).
  std::string ToText() const;
  void AppendText(std::string* out) const;

  /// Block-accounting size: 5 for null and booleans, 8 for a number, the
  /// length plus 2 for a string, and for containers 2 plus, per element, its
  /// size plus 1, or per member its key length plus 4 plus its size.
  int64_t PhysicalSize() const;

 private:
  // Start of a container's elements or members.
  const char* Children() const;
  const char* p_ = nullptr;
};

/// Parse JSON text into a flat document.
Result<JsonbBuffer> ParseJsonb(std::string_view text);

/// jsonb_path_query_array over a JSONPath subset ($.a.b[*].c, $.a[0].b:
/// field access, [n] index, [*] over arrays): every match, in order,
/// copied into one new array document.
JsonbBuffer JsonbPathQueryArray(JsonbView root, std::string_view path);

/// A JSON value tree, for building internal payloads and report files.
class Json;
using JsonPtr = std::shared_ptr<const Json>;

class Json {
 public:
  using Kind = JsonKind;

  Json() : kind_(Kind::kNull) {}
  explicit Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Json(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static JsonPtr MakeNull() { return std::make_shared<Json>(); }
  static JsonPtr MakeBool(bool b) { return std::make_shared<Json>(b); }
  static JsonPtr MakeNumber(double n) { return std::make_shared<Json>(n); }
  static JsonPtr MakeString(std::string s) {
    return std::make_shared<Json>(std::move(s));
  }
  static JsonPtr MakeArray(std::vector<JsonPtr> items);
  static JsonPtr MakeObject(std::vector<std::pair<std::string, JsonPtr>> kv);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonPtr>& array_items() const { return array_; }

  /// Object field lookup; returns null pointer if absent.
  JsonPtr GetField(const std::string& key) const;
  /// Array element; returns null pointer if out of range.
  JsonPtr GetElement(int64_t index) const;

  int64_t array_size() const { return static_cast<int64_t>(array_.size()); }
  const std::vector<std::pair<std::string, JsonPtr>>& object_items() const {
    return object_;
  }

  /// Compact text, printed through the flat form.
  std::string ToString() const;

  /// Parse JSON text (through the flat form).
  static Result<JsonPtr> Parse(const std::string& text);

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonPtr> array_;
  std::vector<std::pair<std::string, JsonPtr>> object_;
};

// ---- JsonbView iteration ----

namespace jsonb_internal {
/// Reads a varint at *p and advances past it.
inline uint32_t ReadVarint(const char** p) {
  uint32_t v = 0;
  int shift = 0;
  for (;;) {
    auto b = static_cast<unsigned char>(*(*p)++);
    v |= static_cast<uint32_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}
}  // namespace jsonb_internal

template <typename F>
void JsonbView::ForEachElement(F&& f) const {
  if (kind() != JsonKind::kArray) return;
  const char* c = Children();
  for (int64_t i = 0, n = size(); i < n; i++) {
    JsonbView v(c);
    f(v);
    c += v.EncodedSize();
  }
}

template <typename F>
void JsonbView::ForEachMember(F&& f) const {
  if (kind() != JsonKind::kObject) return;
  const char* c = Children();
  for (int64_t i = 0, n = size(); i < n; i++) {
    uint32_t len = jsonb_internal::ReadVarint(&c);
    std::string_view key(c, len);
    JsonbView v(c + len);
    f(key, v);
    c = v.data() + v.EncodedSize();
  }
}

}  // namespace citusx::sql

#endif  // CITUSX_SQL_JSON_H_
