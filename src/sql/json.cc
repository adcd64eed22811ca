#include "sql/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <new>

#include "common/str.h"

namespace citusx::sql {

namespace {

enum Tag : char {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagNumber = 3,
  kTagString = 4,
  kTagArray = 5,
  kTagObject = 6,
};

// A container's tag is followed by its count and the bytes of its children.
constexpr size_t kContainerHeader = 1 + 2 * sizeof(uint32_t);

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void WriteU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

void AppendVarint(std::string* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

using jsonb_internal::ReadVarint;

// ---- printing: the one printer of JSON text ----

void AppendEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  size_t run = 0;
  for (size_t i = 0; i < s.size(); i++) {
    const char* esc = nullptr;
    switch (s[i]) {
      case '"':
        esc = "\\\"";
        break;
      case '\\':
        esc = "\\\\";
        break;
      case '\n':
        esc = "\\n";
        break;
      case '\t':
        esc = "\\t";
        break;
      case '\r':
        esc = "\\r";
        break;
      default:
        continue;
    }
    out->append(s.data() + run, i - run);
    out->append(esc, 2);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

void AppendNumber(double n, std::string* out) {
  char buf[32];
  if (n == std::floor(n) && std::abs(n) < 1e15) {
    auto r = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(n));
    out->append(buf, static_cast<size_t>(r.ptr - buf));
  } else {
    int len = std::snprintf(buf, sizeof(buf), "%.17g", n);
    out->append(buf, static_cast<size_t>(len));
  }
}

// Prints the value at `p`; returns the byte after it.
const char* PrintValue(const char* p, std::string* out) {
  switch (*p) {
    case kTagNull:
      out->append("null");
      return p + 1;
    case kTagFalse:
      out->append("false");
      return p + 1;
    case kTagTrue:
      out->append("true");
      return p + 1;
    case kTagNumber: {
      double n;
      std::memcpy(&n, p + 1, sizeof(n));
      AppendNumber(n, out);
      return p + 1 + sizeof(n);
    }
    case kTagString: {
      const char* c = p + 1;
      uint32_t len = ReadVarint(&c);
      AppendEscaped(std::string_view(c, len), out);
      return c + len;
    }
    case kTagArray: {
      uint32_t n = ReadU32(p + 1);
      const char* c = p + kContainerHeader;
      out->push_back('[');
      for (uint32_t i = 0; i < n; i++) {
        if (i > 0) out->push_back(',');
        c = PrintValue(c, out);
      }
      out->push_back(']');
      return c;
    }
    default: {  // kTagObject
      uint32_t n = ReadU32(p + 1);
      const char* c = p + kContainerHeader;
      out->push_back('{');
      for (uint32_t i = 0; i < n; i++) {
        if (i > 0) out->push_back(',');
        uint32_t len = ReadVarint(&c);
        AppendEscaped(std::string_view(c, len), out);
        out->push_back(':');
        c = PrintValue(c + len, out);
      }
      out->push_back('}');
      return c;
    }
  }
}

// ---- building ----

// Builds one flat document, value by value in pre-order.
class JsonbBuilder {
 public:
  explicit JsonbBuilder(size_t reserve = 0) { bytes_.reserve(reserve); }

  void Null();
  void Bool(bool b);
  void Number(double n);
  void String(std::string_view s);
  void BeginArray() { BeginContainer(kTagArray); }
  void EndArray() { EndContainer(); }
  void BeginObject() { BeginContainer(kTagObject); }
  // The next member's key; its value follows.
  void Key(std::string_view key);
  void EndObject() { EndContainer(); }

  size_t size() const { return bytes_.size(); }
  // The document: exactly one complete value must have been added.
  JsonbBuffer Finish() const;

 private:
  void BeginContainer(char tag);
  void EndContainer();
  void AddValue();  // a value starts in the open container, if any

  std::string bytes_;
  struct Open {
    size_t header;  // offset of the container's tag
    uint32_t count;
    bool object;
  };
  std::vector<Open> open_;
};

void JsonbBuilder::AddValue() {
  // An object counts its keys; its values follow them.
  if (!open_.empty() && !open_.back().object) open_.back().count++;
}

void JsonbBuilder::Null() {
  AddValue();
  bytes_.push_back(kTagNull);
}

void JsonbBuilder::Bool(bool b) {
  AddValue();
  bytes_.push_back(b ? kTagTrue : kTagFalse);
}

void JsonbBuilder::Number(double n) {
  AddValue();
  bytes_.push_back(kTagNumber);
  char buf[sizeof(n)];
  std::memcpy(buf, &n, sizeof(n));
  bytes_.append(buf, sizeof(n));
}

void JsonbBuilder::String(std::string_view s) {
  AddValue();
  bytes_.push_back(kTagString);
  AppendVarint(&bytes_, static_cast<uint32_t>(s.size()));
  bytes_.append(s);
}

void JsonbBuilder::BeginContainer(char tag) {
  AddValue();
  open_.push_back(Open{bytes_.size(), 0, tag == kTagObject});
  bytes_.push_back(tag);
  bytes_.append(2 * sizeof(uint32_t), '\0');
}

void JsonbBuilder::EndContainer() {
  Open o = open_.back();
  open_.pop_back();
  char* header = bytes_.data() + o.header;
  WriteU32(header + 1, o.count);
  WriteU32(header + 1 + sizeof(uint32_t),
           static_cast<uint32_t>(bytes_.size() - o.header - kContainerHeader));
}

void JsonbBuilder::Key(std::string_view key) {
  open_.back().count++;
  AppendVarint(&bytes_, static_cast<uint32_t>(key.size()));
  bytes_.append(key);
}

JsonbBuffer JsonbBuilder::Finish() const {
  SharedBlock* block = SharedBlock::New(bytes_.size());
  std::memcpy(block->data(), bytes_.data(), bytes_.size());
  return JsonbBuffer(block);
}

// ---- parsing: the one parser of JSON text ----

class JsonbParser {
 public:
  explicit JsonbParser(std::string_view text)
      : s_(text), out_(text.size() + kContainerHeader) {}

  Result<JsonbBuffer> Parse() {
    SkipWs();
    CITUSX_RETURN_IF_ERROR(ParseValue());
    SkipWs();
    if (pos_ != s_.size()) {
      return Status::InvalidArgument("trailing characters in JSON");
    }
    // Counts, skip sizes and lengths are 32-bit, and none exceeds the whole.
    if (out_.size() > UINT32_MAX) {
      return Status::InvalidArgument("JSON document too large");
    }
    return out_.Finish();
  }

 private:
  Status ParseValue() {
    if (pos_ >= s_.size()) {
      return Status::InvalidArgument("unexpected end of JSON");
    }
    char c = s_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        CITUSX_RETURN_IF_ERROR(ParseString());
        out_.String(str_);
        return Status::OK();
      }
      case 't':
        if (s_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          out_.Bool(true);
          return Status::OK();
        }
        break;
      case 'f':
        if (s_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          out_.Bool(false);
          return Status::OK();
        }
        break;
      case 'n':
        if (s_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          out_.Null();
          return Status::OK();
        }
        break;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    }
    return Status::InvalidArgument(StrFormat("bad JSON at offset %zu", pos_));
  }

  Status ParseObject() {
    pos_++;  // '{'
    out_.BeginObject();
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      pos_++;
      out_.EndObject();
      return Status::OK();
    }
    for (;;) {
      SkipWs();
      CITUSX_RETURN_IF_ERROR(ParseString());
      out_.Key(str_);
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        return Status::InvalidArgument("expected ':' in JSON object");
      }
      pos_++;
      SkipWs();
      CITUSX_RETURN_IF_ERROR(ParseValue());
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        pos_++;
        out_.EndObject();
        return Status::OK();
      }
      return Status::InvalidArgument("expected ',' or '}' in JSON object");
    }
  }

  Status ParseArray() {
    pos_++;  // '['
    out_.BeginArray();
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      pos_++;
      out_.EndArray();
      return Status::OK();
    }
    for (;;) {
      SkipWs();
      CITUSX_RETURN_IF_ERROR(ParseValue());
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        pos_++;
        out_.EndArray();
        return Status::OK();
      }
      return Status::InvalidArgument("expected ',' or ']' in JSON array");
    }
  }

  // Decodes a string literal into str_.
  Status ParseString() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return Status::InvalidArgument("expected string in JSON");
    }
    pos_++;
    str_.clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        switch (e) {
          case 'n':
            str_.push_back('\n');
            break;
          case 't':
            str_.push_back('\t');
            break;
          case 'r':
            str_.push_back('\r');
            break;
          case 'u': {
            // ASCII escapes decode; any other code point becomes '?'.
            if (pos_ + 4 <= s_.size()) {
              int code = 0;
              for (int i = 0; i < 4; i++) {
                char h = s_[pos_ + static_cast<size_t>(i)];
                code = code * 16 +
                       (h >= '0' && h <= '9'   ? h - '0'
                        : h >= 'a' && h <= 'f' ? h - 'a' + 10
                        : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                               : 0);
              }
              pos_ += 4;
              str_.push_back(code < 128 ? static_cast<char>(code) : '?');
            }
            break;
          }
          default:
            str_.push_back(e);
        }
      } else {
        str_.push_back(c);
      }
    }
    return Status::InvalidArgument("unterminated JSON string");
  }

  Status ParseNumber() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') pos_++;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      pos_++;
    }
    double v = 0;
    try {
      v = std::stod(std::string(s_.substr(start, pos_ - start)));
    } catch (...) {
      return Status::InvalidArgument("bad JSON number");
    }
    out_.Number(v);
    return Status::OK();
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      pos_++;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
  JsonbBuilder out_;
  std::string str_;
};

}  // namespace

SharedBlock* SharedBlock::New(size_t size) {
  return new (::operator new(sizeof(SharedBlock) + size)) SharedBlock(size);
}

void SharedBlock::Unref() {
  if (--refs_ == 0) ::operator delete(this);
}

// ---- JsonbView ----

JsonKind JsonbView::kind() const {
  if (p_ == nullptr) return JsonKind::kNull;
  switch (*p_) {
    case kTagNull:
      return JsonKind::kNull;
    case kTagFalse:
    case kTagTrue:
      return JsonKind::kBool;
    case kTagNumber:
      return JsonKind::kNumber;
    case kTagString:
      return JsonKind::kString;
    case kTagArray:
      return JsonKind::kArray;
    default:
      return JsonKind::kObject;
  }
}

bool JsonbView::bool_value() const { return p_ != nullptr && *p_ == kTagTrue; }

double JsonbView::number_value() const {
  if (p_ == nullptr || *p_ != kTagNumber) return 0;
  double n;
  std::memcpy(&n, p_ + 1, sizeof(n));
  return n;
}

std::string_view JsonbView::string_value() const {
  if (p_ == nullptr || *p_ != kTagString) return {};
  const char* c = p_ + 1;
  uint32_t len = ReadVarint(&c);
  return std::string_view(c, len);
}

int64_t JsonbView::size() const {
  if (p_ == nullptr || (*p_ != kTagArray && *p_ != kTagObject)) return 0;
  return ReadU32(p_ + 1);
}

const char* JsonbView::Children() const { return p_ + kContainerHeader; }

JsonbView JsonbView::Field(std::string_view key) const {
  JsonbView found;
  if (p_ == nullptr || *p_ != kTagObject) return found;
  const char* c = Children();
  for (uint32_t i = 0, n = ReadU32(p_ + 1); i < n; i++) {
    uint32_t len = ReadVarint(&c);
    JsonbView v(c + len);
    if (std::string_view(c, len) == key) return v;
    c = v.p_ + v.EncodedSize();
  }
  return found;
}

JsonbView JsonbView::Element(int64_t index) const {
  if (p_ == nullptr || *p_ != kTagArray || index < 0 || index >= size()) {
    return JsonbView();
  }
  const char* c = Children();
  for (int64_t i = 0; i < index; i++) c += JsonbView(c).EncodedSize();
  return JsonbView(c);
}

size_t JsonbView::EncodedSize() const {
  switch (*p_) {
    case kTagNumber:
      return 1 + sizeof(double);
    case kTagString: {
      const char* c = p_ + 1;
      uint32_t len = ReadVarint(&c);
      return static_cast<size_t>(c - p_) + len;
    }
    case kTagArray:
    case kTagObject:
      return kContainerHeader + ReadU32(p_ + 1 + sizeof(uint32_t));
    default:
      return 1;
  }
}

std::string JsonbView::ToText() const {
  std::string out;
  AppendText(&out);
  return out;
}

void JsonbView::AppendText(std::string* out) const {
  if (p_ == nullptr) {
    out->append("null");
    return;
  }
  PrintValue(p_, out);
}

int64_t JsonbView::PhysicalSize() const {
  switch (kind()) {
    case JsonKind::kNull:
    case JsonKind::kBool:
      return 5;
    case JsonKind::kNumber:
      return 8;
    case JsonKind::kString:
      return static_cast<int64_t>(string_value().size()) + 2;
    case JsonKind::kArray: {
      int64_t n = 2;
      ForEachElement([&](JsonbView v) { n += v.PhysicalSize() + 1; });
      return n;
    }
    case JsonKind::kObject: {
      int64_t n = 2;
      ForEachMember([&](std::string_view k, JsonbView v) {
        n += static_cast<int64_t>(k.size()) + 4 + v.PhysicalSize();
      });
      return n;
    }
  }
  return 0;
}

Result<JsonbBuffer> ParseJsonb(std::string_view text) {
  return JsonbParser(text).Parse();
}

JsonbBuffer JsonbPathQueryArray(JsonbView root, std::string_view path) {
  std::vector<JsonbView> current;
  if (root) current.push_back(root);
  size_t pos = 0;
  if (pos < path.size() && path[pos] == '$') pos++;
  std::vector<JsonbView> next;
  while (pos < path.size() && !current.empty()) {
    next.clear();
    if (path[pos] == '.') {
      pos++;
      size_t start = pos;
      while (pos < path.size() && path[pos] != '.' && path[pos] != '[') pos++;
      std::string_view field = path.substr(start, pos - start);
      for (JsonbView j : current) {
        JsonbView f = j.Field(field);
        if (f) next.push_back(f);
      }
    } else if (path[pos] == '[') {
      pos++;
      if (pos < path.size() && path[pos] == '*') {
        pos++;
        for (JsonbView j : current) {
          j.ForEachElement([&](JsonbView item) { next.push_back(item); });
        }
      } else {
        size_t start = pos;
        while (pos < path.size() && path[pos] != ']') pos++;
        int64_t idx = 0;
        try {
          idx = std::stoll(std::string(path.substr(start, pos - start)));
        } catch (...) {
          next.clear();
          current.clear();
          break;
        }
        for (JsonbView j : current) {
          JsonbView e = j.Element(idx);
          if (e) next.push_back(e);
        }
      }
      if (pos < path.size() && path[pos] == ']') pos++;
    } else {
      current.clear();  // malformed path: no match
      break;
    }
    current.swap(next);
  }
  // The matches' bytes, copied behind one array header.
  size_t bytes = 0;
  for (JsonbView v : current) bytes += v.EncodedSize();
  SharedBlock* block = SharedBlock::New(kContainerHeader + bytes);
  char* out = block->data();
  out[0] = kTagArray;
  WriteU32(out + 1, static_cast<uint32_t>(current.size()));
  WriteU32(out + 1 + sizeof(uint32_t), static_cast<uint32_t>(bytes));
  out += kContainerHeader;
  for (JsonbView v : current) {
    size_t n = v.EncodedSize();
    std::memcpy(out, v.data(), n);
    out += n;
  }
  return JsonbBuffer(block);
}

// ---- Json (tree) ----

JsonPtr Json::MakeArray(std::vector<JsonPtr> items) {
  auto j = std::make_shared<Json>();
  j->kind_ = Kind::kArray;
  j->array_ = std::move(items);
  return j;
}

JsonPtr Json::MakeObject(std::vector<std::pair<std::string, JsonPtr>> kv) {
  auto j = std::make_shared<Json>();
  j->kind_ = Kind::kObject;
  j->object_ = std::move(kv);
  return j;
}

JsonPtr Json::GetField(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  return nullptr;
}

JsonPtr Json::GetElement(int64_t index) const {
  if (kind_ != Kind::kArray) return nullptr;
  if (index < 0 || index >= static_cast<int64_t>(array_.size())) return nullptr;
  return array_[static_cast<size_t>(index)];
}

namespace {

void Encode(const Json& j, JsonbBuilder* b) {
  switch (j.kind()) {
    case JsonKind::kNull:
      b->Null();
      break;
    case JsonKind::kBool:
      b->Bool(j.bool_value());
      break;
    case JsonKind::kNumber:
      b->Number(j.number_value());
      break;
    case JsonKind::kString:
      b->String(j.string_value());
      break;
    case JsonKind::kArray:
      b->BeginArray();
      for (const auto& item : j.array_items()) Encode(*item, b);
      b->EndArray();
      break;
    case JsonKind::kObject:
      b->BeginObject();
      for (const auto& [k, v] : j.object_items()) {
        b->Key(k);
        Encode(*v, b);
      }
      b->EndObject();
      break;
  }
}

JsonPtr TreeOf(JsonbView v) {
  switch (v.kind()) {
    case JsonKind::kNull:
      return Json::MakeNull();
    case JsonKind::kBool:
      return Json::MakeBool(v.bool_value());
    case JsonKind::kNumber:
      return Json::MakeNumber(v.number_value());
    case JsonKind::kString:
      return Json::MakeString(std::string(v.string_value()));
    case JsonKind::kArray: {
      std::vector<JsonPtr> items;
      items.reserve(static_cast<size_t>(v.size()));
      v.ForEachElement([&](JsonbView e) { items.push_back(TreeOf(e)); });
      return Json::MakeArray(std::move(items));
    }
    case JsonKind::kObject: {
      std::vector<std::pair<std::string, JsonPtr>> kv;
      kv.reserve(static_cast<size_t>(v.size()));
      v.ForEachMember([&](std::string_view k, JsonbView e) {
        kv.emplace_back(std::string(k), TreeOf(e));
      });
      return Json::MakeObject(std::move(kv));
    }
  }
  return Json::MakeNull();
}

}  // namespace

std::string Json::ToString() const {
  JsonbBuilder b;
  Encode(*this, &b);
  JsonbBuffer doc = b.Finish();
  return JsonbView(doc.get()).ToText();
}

Result<JsonPtr> Json::Parse(const std::string& text) {
  CITUSX_ASSIGN_OR_RETURN(JsonbBuffer doc, ParseJsonb(text));
  return TreeOf(JsonbView(doc.get()));
}

}  // namespace citusx::sql
