// cituslint: in-tree static analysis enforcing citusx's architectural
// invariants. Runs as a tier-1 ctest over src/ with a committed baseline
// (tools/cituslint/baseline.txt) that may only shrink.
//
// Rules:
//   layering            - each src/<layer>/ may only include headers from the
//                         layers below it in the library DAG. src/citus/ (the
//                         "extension") is held to the paper's contract: the
//                         only engine header it may include is engine/hooks.h,
//                         and no storage/ headers at all.
//   status-discard      - no `(void)expr` / `static_cast<void>(expr)`
//                         discards; use CITUSX_IGNORE_STATUS(expr, "reason").
//   one-thread          - no thread, mutex, condition variable, lock guard
//                         or atomic in src/: simulated processes are fibers
//                         on the one thread that drives the simulation, so
//                         the only concurrency is a fiber switch at a yield.
//   nodiscard           - Status and Result must stay [[nodiscard]] in
//                         common/status.h.
//   blocking-in-no-yield - no blocking call (net round trip, simulated wait,
//                         pool/lock admission) while a sim::NoYieldScope is
//                         lexically live. Interprocedural within a file: a
//                         helper that calls a blocking primitive taints its
//                         callers, so hiding the round trip one frame down
//                         does not evade the rule. The kernel aborts such a
//                         yield at run time; this finds it without a run.
//   guc-registry        - every `citus.<flag>` session GUC is declared exactly
//                         once in src/citus/gucs.h (kCitusGucs), is actually
//                         referenced, and — when executor-visible — is stamped
//                         onto pooled worker connections via a `SET <name>`
//                         statement somewhere in src/.
//   metrics-registry    - every metric name passed to counter()/gauge()/
//                         histogram()/CounterValue() is a string literal
//                         spelled from src/obs/metric_names.h
//                         (kRegisteredMetricNames), and every registered name
//                         is used somewhere, so dashboards never reference a
//                         counter that nothing increments.
//
// Suppression: append `// cituslint: allow(<rule>: <reason>)` to the
// offending line. The reason is mandatory — a bare `allow(rule)` is itself a
// lint error — and markers are only honored inside comments, so quoting one
// in a string does not disable the rule.
//
// The scanner splits every line into three aligned views — code, comment
// text, and string-literal contents — with full support for block comments
// and raw strings spanning lines. Rules match against the view they mean:
// includes and calls against code, suppressions against comments, GUC and
// metric names against strings.
//
// Usage: cituslint <repo-root> [--baseline <file>] [--counts] [--self-test]

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string rule;
  std::string file;   // repo-relative, forward slashes
  int line = 0;
  std::string detail;

  /// Line-number-free identity used for baseline matching, so unrelated
  /// edits that shift lines do not invalidate baseline entries.
  std::string Key() const { return rule + "|" + file + "|" + detail; }
};

struct LintResult {
  std::vector<Violation> violations;
  std::vector<std::string> errors;  // lint-tool level problems (fail hard)
};

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      "layering",     "status-discard",       "one-thread",
      "nodiscard",    "blocking-in-no-yield", "guc-registry",
      "metrics-registry"};
  return kRules;
}

bool IsIdentChar(char c) {
  return isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentStart(char c) {
  return isalpha(static_cast<unsigned char>(c)) || c == '_';
}

// ---------------------------------------------------------------------------
// Source scanning: three position-aligned per-line views.

struct SourceFile {
  std::string path;                  // repo-relative
  std::vector<std::string> raw;      // original lines
  std::vector<std::string> code;     // comments and literal contents blanked
                                     // (string delimiters kept)
  std::vector<std::string> comments; // comment text only, else spaces
  std::vector<std::string> strings;  // string/char literal contents only
  std::vector<std::map<std::string, std::string>> allows;  // rule -> reason
  std::vector<std::string> allow_errors;  // malformed suppressions (hard fail)
};

/// One state machine pass producing the three views. Block comments and raw
/// string literals carry state across lines; plain string and char literals
/// reset at end of line so an unterminated literal cannot poison the file.
void ScanViews(const std::vector<std::string>& lines,
               std::vector<std::string>* code,
               std::vector<std::string>* comments,
               std::vector<std::string>* strings) {
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // raw string closing delimiter: )delim"
  for (const std::string& line : lines) {
    std::string code_l(line.size(), ' ');
    std::string com_l(line.size(), ' ');
    std::string str_l(line.size(), ' ');
    for (size_t i = 0; i < line.size(); ++i) {
      char c = line[i];
      char next = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            for (size_t j = i + 2; j < line.size(); ++j) com_l[j] = line[j];
            i = line.size();
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            ++i;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || !IsIdentChar(line[i - 1]))) {
            size_t paren = line.find('(', i + 2);
            if (paren != std::string::npos) {
              raw_delim = ")" + line.substr(i + 2, paren - i - 2) + "\"";
              state = State::kRawString;
              code_l[i + 1] = '"';  // keep the opening delimiter in code
              i = paren;
            } else {
              code_l[i] = c;
            }
          } else if (c == '"') {
            state = State::kString;
            code_l[i] = '"';
          } else if (c == '\'') {
            // Heuristic: skip digit separators (1'000'000).
            if (i > 0 && isdigit(static_cast<unsigned char>(line[i - 1]))) {
              code_l[i] = c;
            } else {
              state = State::kChar;
            }
          } else {
            code_l[i] = c;
          }
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            ++i;
          } else {
            com_l[i] = c;
          }
          break;
        case State::kString:
          if (c == '\\') {
            str_l[i] = c;
            if (i + 1 < line.size()) str_l[i + 1] = next;
            ++i;
          } else if (c == '"') {
            state = State::kCode;
            code_l[i] = '"';
          } else {
            str_l[i] = c;
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
          } else {
            str_l[i] = c;
          }
          break;
        case State::kRawString:
          if (line.compare(i, raw_delim.size(), raw_delim) == 0) {
            state = State::kCode;
            code_l[i + raw_delim.size() - 1] = '"';
            i += raw_delim.size() - 1;
          } else {
            str_l[i] = c;
          }
          break;
      }
    }
    if (state == State::kString || state == State::kChar) state = State::kCode;
    code->push_back(std::move(code_l));
    comments->push_back(std::move(com_l));
    strings->push_back(std::move(str_l));
  }
}

/// Collect `cituslint: allow(rule: reason)` markers from comment text. The
/// reason is mandatory; bare or malformed markers become hard lint errors.
void ParseAllows(const std::string& comment_line, const std::string& path,
                 int lineno, std::map<std::string, std::string>* out,
                 std::vector<std::string>* errors) {
  const std::string tag = "cituslint: allow(";
  std::string where = path + ":" + std::to_string(lineno);
  for (size_t pos = comment_line.find(tag); pos != std::string::npos;
       pos = comment_line.find(tag, pos + tag.size())) {
    size_t start = pos + tag.size();
    size_t end = comment_line.find(')', start);
    if (end == std::string::npos) {
      errors->push_back(where + ": unterminated cituslint: allow(...) marker");
      return;
    }
    std::string inner = comment_line.substr(start, end - start);
    size_t colon = inner.find(':');
    if (colon == std::string::npos) {
      errors->push_back(
          where + ": bare suppression 'allow(" + inner +
          ")' — a justification is required: cituslint: allow(" + inner +
          ": <reason>)");
      continue;
    }
    std::string rule = inner.substr(0, colon);
    std::string reason = inner.substr(colon + 1);
    auto trim = [](std::string* s) {
      s->erase(0, s->find_first_not_of(" \t"));
      s->erase(s->find_last_not_of(" \t") + 1);
    };
    trim(&rule);
    trim(&reason);
    if (KnownRules().count(rule) == 0) {
      errors->push_back(where + ": suppression names unknown rule '" + rule +
                        "'");
      continue;
    }
    if (reason.empty()) {
      errors->push_back(where + ": suppression for '" + rule +
                        "' has an empty reason");
      continue;
    }
    (*out)[rule] = reason;
  }
}

SourceFile LoadSource(const std::string& rel_path,
                      const std::vector<std::string>& lines) {
  SourceFile f;
  f.path = rel_path;
  f.raw = lines;
  ScanViews(lines, &f.code, &f.comments, &f.strings);
  f.allows.resize(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    ParseAllows(f.comments[i], rel_path, static_cast<int>(i + 1), &f.allows[i],
                &f.allow_errors);
  }
  return f;
}

bool Allowed(const SourceFile& f, size_t line_idx, const std::string& rule) {
  return line_idx < f.allows.size() && f.allows[line_idx].count(rule) > 0;
}

// ---------------------------------------------------------------------------
// Rule: layering.

/// First path component under src/ ("engine/locks.h" -> "engine").
std::string LayerOf(const std::string& src_rel) {
  size_t slash = src_rel.find('/');
  return slash == std::string::npos ? src_rel : src_rel.substr(0, slash);
}

const std::map<std::string, std::set<std::string>>& LayerDag() {
  // Which layers each layer's headers/sources may include from. Mirrors the
  // target_link_libraries graph in src/*/CMakeLists.txt plus transitive
  // closure; keep the two in sync.
  static const std::map<std::string, std::set<std::string>> kDag = {
      {"common", {"common"}},
      {"sim", {"sim", "common"}},
      {"obs", {"obs", "sim", "common"}},
      {"sql", {"sql", "common"}},
      {"storage", {"storage", "sql", "sim", "obs", "common"}},
      {"engine", {"engine", "storage", "sql", "sim", "obs", "common"}},
      // The vectorized executor: like the Citus layer, engine access is
      // restricted to the hook API header (special-cased below); reads
      // columnar storage directly.
      {"exec", {"exec", "storage", "sql", "sim", "obs", "common"}},
      {"net", {"net", "engine", "storage", "sql", "sim", "obs", "common"}},
      // The transaction-pooling front tier sits below the extension: it
      // must work against any backend, so citus/ headers are off limits.
      {"pool", {"pool", "net", "engine", "storage", "sql", "sim", "obs",
                "common"}},
      // The extension: engine access is restricted to the hook API header
      // (special-cased below); storage/ is fully off limits.
      {"citus", {"citus", "exec", "net", "sql", "sim", "obs", "common"}},
      {"workload",
       {"workload", "citus", "pool", "exec", "net", "engine", "storage", "sql",
        "sim", "obs", "common"}},
  };
  return kDag;
}

/// Extract the target of an `#include "..."` (project include), or "".
/// The directive is recognized on the code view (so commented-out includes
/// don't count) but the path is read from the raw line, because the code
/// view blanks string-literal contents.
std::string IncludeTarget(const std::string& code_line,
                          const std::string& raw_line) {
  size_t hash = code_line.find_first_not_of(" \t");
  if (hash == std::string::npos || code_line[hash] != '#') return "";
  size_t inc = code_line.find("include", hash);
  if (inc == std::string::npos) return "";
  size_t open = raw_line.find('"', inc);
  if (open == std::string::npos) return "";  // <system> include
  size_t close = raw_line.find('"', open + 1);
  if (close == std::string::npos) return "";
  return raw_line.substr(open + 1, close - open - 1);
}

void CheckLayering(const SourceFile& f, LintResult* out) {
  const std::string kRule = "layering";
  std::string src_rel = f.path.substr(std::string("src/").size());
  std::string layer = LayerOf(src_rel);
  auto it = LayerDag().find(layer);
  if (it == LayerDag().end()) {
    out->errors.push_back("layering: unknown layer '" + layer + "' for " +
                          f.path + " — add it to LayerDag()");
    return;
  }
  const std::set<std::string>& allowed = it->second;
  for (size_t i = 0; i < f.code.size(); ++i) {
    std::string target = IncludeTarget(f.code[i], f.raw[i]);
    if (target.empty()) continue;
    std::string target_layer = LayerOf(target);
    if (LayerDag().count(target_layer) == 0) continue;  // not a src/ layer
    if (Allowed(f, i, kRule)) continue;
    bool ok = allowed.count(target_layer) > 0;
    bool hooks_only =
        (layer == "citus" || layer == "exec") && target_layer == "engine";
    if (hooks_only) {
      ok = (target == "engine/hooks.h");
    }
    if (!ok) {
      out->violations.push_back(
          {kRule, f.path, static_cast<int>(i + 1),
           "includes " + target + " (layer '" + layer + "' may not depend on '" +
               target_layer + "'" + (hooks_only ? " except engine/hooks.h" : "") +
               ")"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: status-discard.

void CheckStatusDiscard(const SourceFile& f, LintResult* out) {
  const std::string kRule = "status-discard";
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    bool hit = false;
    // `(void)expr` cast: '(void)' followed by something castable.
    for (size_t pos = line.find("(void)"); pos != std::string::npos;
         pos = line.find("(void)", pos + 1)) {
      size_t after = pos + strlen("(void)");
      while (after < line.size() && isspace(static_cast<unsigned char>(line[after]))) {
        ++after;
      }
      if (after < line.size() &&
          (isalnum(static_cast<unsigned char>(line[after])) ||
           line[after] == '_' || line[after] == ':' || line[after] == '(' ||
           line[after] == '*')) {
        // Exclude function signatures `f(void)` — C-ism absent here, but be
        // safe: a cast is preceded by start-of-expression, not an identifier.
        size_t before = pos;
        while (before > 0 &&
               isspace(static_cast<unsigned char>(line[before - 1]))) {
          --before;
        }
        if (before > 0 && (isalnum(static_cast<unsigned char>(line[before - 1])) ||
                           line[before - 1] == '_')) {
          continue;  // `name(void)` — a declaration, not a discard
        }
        hit = true;
        break;
      }
    }
    if (!hit && line.find("static_cast<void>(") != std::string::npos) {
      hit = true;
    }
    if (hit && !Allowed(f, i, kRule)) {
      out->violations.push_back(
          {kRule, f.path, static_cast<int>(i + 1),
           "explicit void discard; handle the result or use "
           "CITUSX_IGNORE_STATUS(expr, reason)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: one-thread.

void CheckOneThread(const SourceFile& f, LintResult* out) {
  const std::string kRule = "one-thread";
  static const char* kBanned[] = {
      "std::thread",          "std::jthread",
      "std::async",           "pthread_create",
      "std::mutex",           "std::recursive_mutex",
      "std::timed_mutex",     "std::recursive_timed_mutex",
      "std::shared_mutex",    "std::shared_timed_mutex",
      "std::condition_variable", "std::condition_variable_any",
      "std::lock_guard",      "std::unique_lock",
      "std::scoped_lock",     "std::shared_lock",
      "std::atomic",
  };
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const char* banned : kBanned) {
      size_t pos = line.find(banned);
      // Reject `std::mutex` but not `std::mutex_like_thing`.
      size_t end = pos + strlen(banned);
      if (pos == std::string::npos || (pos > 0 && IsIdentChar(line[pos - 1])) ||
          (end < line.size() && IsIdentChar(line[end]))) {
        continue;
      }
      if (!Allowed(f, i, kRule)) {
        out->violations.push_back(
            {kRule, f.path, static_cast<int>(i + 1),
             std::string("uses ") + banned +
                 "; simulated processes are fibers on one thread, so keep a "
                 "section that must look atomic free of yields and mark it "
                 "with sim::NoYieldScope"});
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: nodiscard.

void CheckNodiscard(const SourceFile& f, LintResult* out) {
  if (f.path != "src/common/status.h") return;
  bool status_marked = false;
  bool result_marked = false;
  for (const std::string& line : f.code) {
    if (line.find("class [[nodiscard]] Status") != std::string::npos) {
      status_marked = true;
    }
    if (line.find("class [[nodiscard]] Result") != std::string::npos) {
      result_marked = true;
    }
  }
  if (!status_marked) {
    out->violations.push_back({"nodiscard", f.path, 1,
                               "Status lost its [[nodiscard]] marking"});
  }
  if (!result_marked) {
    out->violations.push_back({"nodiscard", f.path, 1,
                               "Result lost its [[nodiscard]] marking"});
  }
}

// ---------------------------------------------------------------------------
// Rule: blocking-in-no-yield.

struct ScopeDecl {
  std::string name;  // the scope variable ("no_yield")
  size_t end = 0;    // index of the declarator's last character
};

/// Parse `NoYieldScope name;` (or `name{}`) starting at line[pos]. Returns
/// false for the class's own declarations, which name no variable.
bool TryParseNoYieldScope(const std::string& line, size_t pos,
                          ScopeDecl* out) {
  static const std::string kType = "NoYieldScope";
  size_t p = pos + kType.size();
  if (line.compare(pos, kType.size(), kType) != 0 ||
      (p < line.size() && IsIdentChar(line[p]))) {
    return false;
  }
  while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
  size_t vs = p;
  while (p < line.size() && IsIdentChar(line[p])) ++p;
  if (p == vs) return false;
  out->name = line.substr(vs, p - vs);
  out->end = p - 1;
  if (p < line.size() && line[p] == '{') {
    size_t close = line.find('}', p + 1);
    if (close == std::string::npos) return false;
    out->end = close;
  } else if (p >= line.size() || line[p] != ';') {
    return false;
  }
  return true;
}

/// Primitives that park the calling simulated process: simulation kernel
/// waits, virtual-time resource charges, FIFO admission, net round trips,
/// and engine statement execution (which charges CPU/IO internally). The
/// list encodes cross-file knowledge the file-local call graph cannot see.
/// Deliberately absent: Wake, Send, and the Try* family — those return
/// without blocking. The simulation kernel checks the same rule at run
/// time: a fiber switch made inside a NoYieldScope aborts.
const std::set<std::string>& BlockingSeeds() {
  static const std::set<std::string> kSeeds = {
      // simulation kernel waits
      "WaitFor", "WaitUntil", "Block", "Receive",
      // virtual-time resource charges (CpuResource/DiskResource)
      "Consume", "Io",
      // FIFO admission: semaphore, lock manager, pooler attach
      "Acquire", "RunAttached",
      // net round trips and connection establishment
      "Open", "OpenWithRetry", "Connect", "Query", "QueryBatch",
      "QueryPipeline", "CopyIn", "RoundTrip", "RoundTripRaw",
      // engine statement execution (blocks via Consume/Io)
      "Execute", "ExecuteParsed",
  };
  return kSeeds;
}

struct CallAnalysis {
  struct Fn {
    std::string name;
    int line = 0;  // 1-based line of the opening brace
  };
  struct Call {
    std::string callee;
    int line = 0;                     // 1-based
    std::vector<std::string> scopes;  // live NoYieldScopes, outermost first
    int caller = -1;                  // index into fns, -1 at file scope
  };
  std::vector<Fn> fns;
  std::vector<Call> calls;
};

/// Decide whether the statement text preceding a '{' is a function
/// definition header; return the (unqualified) function name or "".
std::string FunctionHeaderName(const std::string& buffer) {
  size_t last = buffer.find_last_not_of(" \t");
  if (last == std::string::npos) return "";
  char tail = buffer[last];
  // Initializer heads (`= {`), lambda intros (`[&] {`), and operator
  // continuations are not function headers.
  if (tail == '=' || tail == ',' || tail == '(' || tail == '[' ||
      tail == ']' || tail == '+' || tail == '-' || tail == '|' ||
      tail == '&' || tail == '<') {
    return "";
  }
  size_t t0 = buffer.find_first_not_of(" \t");
  size_t t1 = t0;
  while (t1 < buffer.size() && IsIdentChar(buffer[t1])) ++t1;
  std::string first_tok = buffer.substr(t0, t1 - t0);
  static const std::set<std::string> kNonFn = {
      "class", "struct", "enum", "union", "namespace", "using", "typedef"};
  if (kNonFn.count(first_tok) > 0) return "";
  size_t open = buffer.find('(');
  if (open == std::string::npos) return "";
  size_t end = open;
  while (end > 0 && (buffer[end - 1] == ' ' || buffer[end - 1] == '\t')) --end;
  size_t start = end;
  while (start > 0 && IsIdentChar(buffer[start - 1])) --start;
  if (start == end) return "";
  std::string name = buffer.substr(start, end - start);
  static const std::set<std::string> kControl = {"if",     "for",   "while",
                                                 "switch", "catch", "return"};
  if (kControl.count(name) > 0) return "";
  if (isdigit(static_cast<unsigned char>(name[0]))) return "";
  return name;
}

/// One lexical pass over the code view collecting, per call site, the callee
/// name, the enclosing function, and the NoYieldScopes lexically live at
/// that point. A scope is live from its declaration to the close of its
/// block. Lambda bodies are attributed to the enclosing function — a
/// conservative over-approximation that keeps helpers defined inline inside
/// a scope visible to the taint pass.
CallAnalysis AnalyzeCalls(const SourceFile& f) {
  CallAnalysis out;
  struct LiveScope {
    std::string name;
    int depth;
  };
  struct ActiveFn {
    int idx;
    int depth;  // depth at the header; body closes when we return to it
  };
  std::vector<LiveScope> scopes;
  std::vector<ActiveFn> fn_stack;
  int depth = 0;
  std::string buffer;  // current statement text (for header detection)
  bool continuation = false;
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    // Skip preprocessor directives and their backslash continuations: macro
    // bodies are balanced do{}while(0) blocks that would skew brace depth.
    size_t first = line.find_first_not_of(" \t");
    bool pre = continuation ||
               (first != std::string::npos && line[first] == '#');
    bool ends_bs = !f.raw[i].empty() && f.raw[i].back() == '\\';
    if (pre) {
      continuation = ends_bs;
      continue;
    }
    for (size_t pos = 0; pos < line.size(); ++pos) {
      char c = line[pos];
      if (c == '{') {
        if (fn_stack.empty()) {
          std::string name = FunctionHeaderName(buffer);
          if (!name.empty()) {
            fn_stack.push_back({static_cast<int>(out.fns.size()), depth});
            out.fns.push_back({name, static_cast<int>(i + 1)});
          }
        }
        ++depth;
        buffer.clear();
        continue;
      }
      if (c == '}') {
        --depth;
        while (!scopes.empty() && scopes.back().depth > depth) {
          scopes.pop_back();
        }
        if (!fn_stack.empty() && depth == fn_stack.back().depth) {
          fn_stack.pop_back();
        }
        if (depth <= 0) {
          depth = 0;
          scopes.clear();
          fn_stack.clear();
        }
        buffer.clear();
        continue;
      }
      if (c == ';') {
        buffer.clear();
        continue;
      }
      if (IsIdentStart(c) && (pos == 0 || !IsIdentChar(line[pos - 1]))) {
        ScopeDecl sd;
        if (TryParseNoYieldScope(line, pos, &sd)) {
          scopes.push_back({sd.name, depth});
          buffer.append(line.substr(pos, sd.end - pos + 1));
          pos = sd.end;
          continue;
        }
        size_t end = pos;
        while (end < line.size() && IsIdentChar(line[end])) ++end;
        std::string word = line.substr(pos, end - pos);
        size_t after = end;
        while (after < line.size() && line[after] == ' ') ++after;
        if (after < line.size() && line[after] == '(') {
          CallAnalysis::Call call;
          call.callee = word;
          call.line = static_cast<int>(i + 1);
          for (const LiveScope& sc : scopes) call.scopes.push_back(sc.name);
          call.caller = fn_stack.empty() ? -1 : fn_stack.back().idx;
          out.calls.push_back(std::move(call));
        }
        buffer.append(word);
        pos = end - 1;
        continue;
      }
      buffer.push_back(c);
    }
    buffer.push_back(' ');
  }
  return out;
}

void CheckBlockingInNoYield(const SourceFile& f, LintResult* out) {
  const std::string kRule = "blocking-in-no-yield";
  CallAnalysis a = AnalyzeCalls(f);
  // File-local taint fixed point: a function that calls a blocking name
  // (seed or already-tainted) blocks itself. Name-level, so helpers taint
  // callers regardless of declaration order.
  std::set<std::string> tainted;
  std::map<std::string, std::string> via;  // tainted fn -> callee that blocks
  bool changed = true;
  while (changed) {
    changed = false;
    for (const CallAnalysis::Call& c : a.calls) {
      if (c.caller < 0) continue;
      const std::string& fn = a.fns[c.caller].name;
      if (tainted.count(fn) > 0) continue;
      if (BlockingSeeds().count(c.callee) > 0 || tainted.count(c.callee) > 0) {
        tainted.insert(fn);
        via[fn] = c.callee;
        changed = true;
      }
    }
  }
  for (const CallAnalysis::Call& c : a.calls) {
    if (c.scopes.empty()) continue;
    bool seed = BlockingSeeds().count(c.callee) > 0;
    if (!seed && tainted.count(c.callee) == 0) continue;
    if (Allowed(f, static_cast<size_t>(c.line - 1), kRule)) continue;
    std::string detail = "calls " + c.callee + "() while NoYieldScope '" +
                         c.scopes.back() + "' is live";
    if (!seed) {
      std::string chain = c.callee;
      std::string cur = c.callee;
      std::set<std::string> seen = {cur};
      while (via.count(cur) > 0) {
        cur = via[cur];
        chain += " -> " + cur;
        if (!seen.insert(cur).second) break;
      }
      detail += "; " + c.callee + " blocks via " + chain;
    }
    out->violations.push_back({kRule, f.path, c.line, detail});
  }
}

// ---------------------------------------------------------------------------
// Rule: guc-registry.

void CheckGucRegistry(const std::vector<SourceFile>& files, LintResult* out) {
  const std::string kRule = "guc-registry";
  const std::string kRegistryPath = "src/citus/gucs.h";
  const SourceFile* reg = nullptr;
  for (const SourceFile& f : files) {
    if (f.path == kRegistryPath) reg = &f;
  }
  if (reg == nullptr) {
    out->errors.push_back("guc-registry: " + kRegistryPath +
                          " not found — the GUC registry is load-bearing");
    return;
  }
  struct Entry {
    bool visible = false;
    int line = 0;
  };
  std::map<std::string, Entry> entries;
  bool in_table = false;
  bool found = false;
  for (size_t i = 0; i < reg->code.size(); ++i) {
    const std::string& cl = reg->code[i];
    if (!in_table) {
      if (cl.find("kCitusGucs[] = {") != std::string::npos) {
        in_table = true;
        found = true;
      }
      continue;
    }
    if (cl.find("};") != std::string::npos) break;
    if (cl.find('{') == std::string::npos) continue;  // comment or blank
    const std::string& rl = reg->raw[i];
    size_t q1 = rl.find('"');
    size_t q2 = q1 == std::string::npos ? q1 : rl.find('"', q1 + 1);
    size_t q3 = q2 == std::string::npos ? q2 : rl.find('"', q2 + 1);
    size_t q4 = q3 == std::string::npos ? q3 : rl.find('"', q3 + 1);
    if (q4 == std::string::npos) {
      out->errors.push_back("guc-registry: unparsable entry at " +
                            kRegistryPath + ":" + std::to_string(i + 1) +
                            " (expected {\"name\", \"default\", bool})");
      continue;
    }
    std::string name = rl.substr(q1 + 1, q2 - q1 - 1);
    bool visible = rl.find("true", q4) != std::string::npos;
    if (entries.count(name) > 0) {
      out->violations.push_back(
          {kRule, reg->path, static_cast<int>(i + 1),
           "GUC '" + name + "' is declared more than once in kCitusGucs"});
    } else {
      entries[name] = {visible, static_cast<int>(i + 1)};
    }
  }
  if (!found) {
    out->errors.push_back("guc-registry: kCitusGucs table not found in " +
                          kRegistryPath);
    return;
  }
  // Scan every string literal in src/ for two-segment citus.<flag> spellings.
  // Three-segment names (citus.2pc.commits) are metric names, covered by the
  // metrics-registry rule.
  std::set<std::string> used;
  std::set<std::string> stamped;
  for (const SourceFile& f : files) {
    if (f.path == kRegistryPath) continue;
    for (size_t i = 0; i < f.strings.size(); ++i) {
      const std::string& sl = f.strings[i];
      for (size_t pos = sl.find("citus."); pos != std::string::npos;
           pos = sl.find("citus.", pos + 1)) {
        if (pos > 0 && (IsIdentChar(sl[pos - 1]) || sl[pos - 1] == '.')) {
          continue;  // foo_citus. / something.citus. — not a GUC spelling
        }
        size_t seg = pos + strlen("citus.");
        size_t seg_end = seg;
        while (seg_end < sl.size() && IsIdentChar(sl[seg_end])) ++seg_end;
        if (seg_end == seg) continue;
        if (seg_end < sl.size() && sl[seg_end] == '.') continue;  // metric
        std::string name = sl.substr(pos, seg_end - pos);
        used.insert(name);
        if (pos >= 4 && sl.compare(pos - 4, 4, "SET ") == 0) {
          stamped.insert(name);
        }
        if (entries.count(name) == 0 && !Allowed(f, i, kRule)) {
          out->violations.push_back(
              {kRule, f.path, static_cast<int>(i + 1),
               "references unregistered GUC '" + name +
                   "'; declare it in src/citus/gucs.h (kCitusGucs)"});
        }
      }
    }
  }
  for (const auto& [name, e] : entries) {
    if (used.count(name) == 0) {
      if (!Allowed(*reg, static_cast<size_t>(e.line - 1), kRule)) {
        out->violations.push_back(
            {kRule, reg->path, e.line,
             "GUC '" + name +
                 "' is declared but never referenced outside the registry"});
      }
    } else if (e.visible && stamped.count(name) == 0 &&
               !Allowed(*reg, static_cast<size_t>(e.line - 1), kRule)) {
      out->violations.push_back(
          {kRule, reg->path, e.line,
           "executor-visible GUC '" + name +
               "' is never stamped onto worker connections (no \"SET " + name +
               " ...\" literal in src/)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: metrics-registry.

void CheckMetricsRegistry(const std::vector<SourceFile>& files,
                          LintResult* out) {
  const std::string kRule = "metrics-registry";
  const std::string kRegistryPath = "src/obs/metric_names.h";
  const SourceFile* reg = nullptr;
  for (const SourceFile& f : files) {
    if (f.path == kRegistryPath) reg = &f;
  }
  if (reg == nullptr) {
    out->errors.push_back("metrics-registry: " + kRegistryPath +
                          " not found — the metric-name registry is "
                          "load-bearing");
    return;
  }
  std::map<std::string, int> entries;  // name -> registry line
  bool in_table = false;
  bool found = false;
  for (size_t i = 0; i < reg->code.size(); ++i) {
    const std::string& cl = reg->code[i];
    if (!in_table) {
      if (cl.find("kRegisteredMetricNames[] = {") != std::string::npos) {
        in_table = true;
        found = true;
      }
      continue;
    }
    if (cl.find("};") != std::string::npos) break;
    if (cl.find('"') == std::string::npos) continue;  // comment or blank
    const std::string& rl = reg->raw[i];
    size_t q1 = rl.find('"');
    size_t q2 = rl.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    std::string name = rl.substr(q1 + 1, q2 - q1 - 1);
    auto [it, inserted] = entries.emplace(name, static_cast<int>(i + 1));
    if (!inserted) {
      out->violations.push_back(
          {kRule, reg->path, static_cast<int>(i + 1),
           "metric '" + name + "' is registered more than once"});
    }
  }
  if (!found) {
    out->errors.push_back(
        "metrics-registry: kRegisteredMetricNames table not found in " +
        kRegistryPath);
    return;
  }
  // The metrics implementation itself and the registry are the definition
  // layer; call sites everywhere else must spell registered literals.
  auto exempt = [](const std::string& path) {
    return path == "src/obs/metrics.h" || path == "src/obs/metrics.cc" ||
           path == "src/obs/metric_names.h";
  };
  static const char* kCallTokens[] = {"counter", "gauge", "histogram",
                                      "CounterValue"};
  std::set<std::string> used;
  for (const SourceFile& f : files) {
    if (f.path == kRegistryPath) continue;  // the registry is not a use
    // Usage scan (for the pruning direction): any string literal equal to a
    // registered name counts, including table-driven stat-view rows.
    for (size_t i = 0; i < f.strings.size(); ++i) {
      const std::string& sl = f.strings[i];
      for (const auto& [name, line] : entries) {
        for (size_t pos = sl.find(name); pos != std::string::npos;
             pos = sl.find(name, pos + 1)) {
          char before = pos > 0 ? sl[pos - 1] : ' ';
          size_t ai = pos + name.size();
          char after = ai < sl.size() ? sl[ai] : ' ';
          if (!IsIdentChar(before) && before != '.' && !IsIdentChar(after) &&
              after != '.') {
            used.insert(name);
          }
        }
      }
    }
    if (exempt(f.path)) continue;
    for (size_t i = 0; i < f.code.size(); ++i) {
      const std::string& cl = f.code[i];
      for (const char* tok : kCallTokens) {
        size_t tok_len = strlen(tok);
        for (size_t pos = cl.find(tok); pos != std::string::npos;
             pos = cl.find(tok, pos + 1)) {
          if (pos > 0 && IsIdentChar(cl[pos - 1])) continue;
          size_t p = pos + tok_len;
          if (p < cl.size() && IsIdentChar(cl[p])) continue;
          while (p < cl.size() && cl[p] == ' ') ++p;
          if (p >= cl.size() || cl[p] != '(') continue;
          ++p;
          while (p < cl.size() && cl[p] == ' ') ++p;
          if (p >= cl.size() || cl[p] != '"') {
            if (!Allowed(f, i, kRule)) {
              out->violations.push_back(
                  {kRule, f.path, static_cast<int>(i + 1),
                   std::string("metric name passed to ") + tok +
                       "() is not a single-line string literal; spell it "
                       "from src/obs/metric_names.h"});
            }
            continue;
          }
          size_t q2 = f.raw[i].find('"', p + 1);
          if (q2 == std::string::npos) continue;
          std::string name = f.raw[i].substr(p + 1, q2 - p - 1);
          if (entries.count(name) == 0 && !Allowed(f, i, kRule)) {
            out->violations.push_back(
                {kRule, f.path, static_cast<int>(i + 1),
                 "metric '" + name +
                     "' is not registered in src/obs/metric_names.h "
                     "(kRegisteredMetricNames)"});
          }
        }
      }
    }
  }
  for (const auto& [name, line] : entries) {
    if (used.count(name) == 0 &&
        !Allowed(*reg, static_cast<size_t>(line - 1), kRule)) {
      out->violations.push_back(
          {kRule, reg->path, line,
           "registered metric '" + name + "' is never used in src/"});
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.

std::vector<std::string> ReadLines(const fs::path& p) {
  std::ifstream in(p);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

LintResult RunLint(const std::vector<SourceFile>& files) {
  LintResult result;
  for (const SourceFile& f : files) {
    for (const std::string& e : f.allow_errors) result.errors.push_back(e);
  }
  for (const SourceFile& f : files) {
    CheckLayering(f, &result);
    CheckStatusDiscard(f, &result);
    CheckOneThread(f, &result);
    CheckNodiscard(f, &result);
    CheckBlockingInNoYield(f, &result);
  }
  CheckGucRegistry(files, &result);
  CheckMetricsRegistry(files, &result);
  return result;
}

// ---------------------------------------------------------------------------
// Baseline.

std::set<std::string> LoadBaseline(const std::string& path,
                                   std::vector<std::string>* errors) {
  std::set<std::string> keys;
  std::ifstream in(path);
  if (!in.is_open()) {
    errors->push_back("cannot open baseline file: " + path);
    return keys;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line);
  }
  return keys;
}

/// Split current violations against the committed baseline. Baselined keys
/// that no longer fire are stale — the baseline may only shrink, so they
/// must be deleted from the file.
struct BaselineReport {
  std::vector<Violation> fresh;       // violations not in the baseline
  std::set<std::string> matched;      // baseline keys that still fire
  std::vector<std::string> stale;     // baseline keys that no longer fire
  std::map<std::string, int> per_rule_new;
  std::map<std::string, int> per_rule_baselined;
};

BaselineReport ApplyBaseline(const std::vector<Violation>& violations,
                             const std::set<std::string>& baseline) {
  BaselineReport report;
  for (const Violation& v : violations) {
    if (baseline.count(v.Key()) > 0) {
      report.matched.insert(v.Key());
      report.per_rule_baselined[v.rule]++;
      continue;
    }
    report.per_rule_new[v.rule]++;
    report.fresh.push_back(v);
  }
  for (const std::string& key : baseline) {
    if (report.matched.count(key) == 0) report.stale.push_back(key);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Self test: feed synthetic sources through the rules and check the verdicts.

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    if (!cond) {
      fprintf(stderr, "self-test FAILED: %s\n", what);
      failures++;
    }
  };
  auto make = [](const std::string& path, const std::string& text) {
    std::vector<std::string> lines;
    std::stringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) lines.push_back(line);
    return LoadSource(path, lines);
  };
  auto count_rule = [](const LintResult& r, const std::string& rule) {
    int n = 0;
    for (const auto& v : r.violations) {
      if (v.rule == rule) n++;
    }
    return n;
  };

  const std::string kGucsHeader =
      "inline constexpr GucSpec kCitusGucs[] = {\n"
      "};\n";
  const std::string kMetricsHeader =
      "inline constexpr const char* kRegisteredMetricNames[] = {\n"
      "};\n";
  // Every RunLint call needs both registries or the registry rules error.
  auto base = [&]() {
    return std::vector<SourceFile>{
        make("src/citus/gucs.h", kGucsHeader),
        make("src/obs/metric_names.h", kMetricsHeader),
    };
  };
  auto with = [&](std::vector<SourceFile> extra) {
    std::vector<SourceFile> files = base();
    for (SourceFile& f : extra) files.push_back(std::move(f));
    return RunLint(files);
  };

  {  // layering: citus may include hooks.h but nothing else from engine.
    LintResult r = with({
        make("src/citus/good.cc", "#include \"engine/hooks.h\"\n"),
        make("src/citus/bad.cc", "#include \"engine/locks.h\"\n"
                                 "#include \"storage/heap.h\"\n"),
        make("src/citus/suppressed.cc",
             "#include \"engine/locks.h\"  "
             "// cituslint: allow(layering: self-test fixture)\n"),
        make("src/sql/bad.cc", "#include \"engine/node.h\"\n"),
    });
    expect(count_rule(r, "layering") == 3, "layering finds 3 violations");
  }
  {  // layering: exec is hooks.h-only towards engine, like citus, and may
     // read storage directly; nothing below exec may include it.
    LintResult r = with({
        make("src/exec/good.cc", "#include \"engine/hooks.h\"\n"
                                 "#include \"storage/columnar.h\"\n"),
        make("src/exec/bad.cc", "#include \"engine/exec.h\"\n"
                                "#include \"net/connection.h\"\n"),
        make("src/engine/bad.cc", "#include \"exec/vectorized.h\"\n"),
        make("src/citus/good2.cc", "#include \"exec/vectorized.h\"\n"),
    });
    expect(count_rule(r, "layering") == 3,
           "layering holds exec to hooks.h-only engine access");
  }
  {  // layering: the pool tier may use net/engine but never citus (it must
     // stay backend-agnostic), and net may not reach up into pool.
    LintResult r = with({
        make("src/pool/good.cc", "#include \"net/cluster.h\"\n"
                                 "#include \"engine/session.h\"\n"),
        make("src/pool/bad.cc", "#include \"citus/extension.h\"\n"),
        make("src/net/bad.cc", "#include \"pool/pooler.h\"\n"),
        make("src/workload/good.cc", "#include \"pool/pooler.h\"\n"),
    });
    expect(count_rule(r, "layering") == 2,
           "layering keeps pool below citus and above net");
  }
  {  // status-discard: (void) and static_cast<void>, but not f(void) decls
     // or commented/quoted occurrences.
    LintResult r = with({
        make("src/common/a.cc",
             "void f() {\n"
             "  (void)DoThing();\n"
             "  static_cast<void>(DoThing());\n"
             "  (void)x;  // cituslint: allow(status-discard: fixture)\n"
             "  // (void)commented();\n"
             "  Log(\"(void)quoted\");\n"
             "}\n"
             "int g(void);\n"),
    });
    expect(count_rule(r, "status-discard") == 2,
           "status-discard finds exactly the two real discards");
  }
  {  // scanner: block comments and raw strings spanning lines hide their
     // contents from the code view.
    LintResult r = with({
        make("src/common/s.cc",
             "/* start of a block comment\n"
             "(void)HiddenInComment();\n"
             "*/\n"
             "const char* q = R\"sql(\n"
             "(void)HiddenInRawString();\n"
             ")sql\";\n"
             "void f() {\n"
             "  (void)Real();\n"
             "}\n"),
    });
    expect(count_rule(r, "status-discard") == 1,
           "multi-line comments and raw strings are invisible to rules");
  }
  {  // suppressions: bare allow() is a hard error and does not suppress;
     // unknown rule names are errors; markers in strings are inert.
    LintResult r = with({
        make("src/common/b.cc",
             "void f() {\n"
             "  (void)X();  // cituslint: allow(status-discard)\n"
             "}\n"),
    });
    expect(!r.errors.empty(), "bare suppression is a lint error");
    expect(count_rule(r, "status-discard") == 1,
           "bare suppression does not suppress");
    LintResult r2 = with({
        make("src/common/c.cc",
             "void f() {\n"
             "  (void)X();  // cituslint: allow(status-dropped: typo)\n"
             "}\n"),
    });
    expect(!r2.errors.empty(), "unknown rule in suppression is a lint error");
    LintResult r3 = with({
        make("src/common/d.cc",
             "const char* s = \"cituslint: allow(status-discard: nope)\";\n"
             "void f() { (void)X(); }\n"),
    });
    expect(count_rule(r3, "status-discard") == 1,
           "suppression markers inside string literals are inert");
  }
  {  // one-thread: each banned token is flagged once; longer identifiers,
     // comments and strings are not.
    LintResult r = with({
        make("src/engine/t.cc",
             "std::thread t;\n"
             "std::jthread jt;\n"
             "auto fut = std::async(F);\n"
             "pthread_create(&id, nullptr, F, nullptr);\n"
             "std::mutex m;\n"
             "std::recursive_mutex rm;\n"
             "std::timed_mutex tm;\n"
             "std::recursive_timed_mutex rtm;\n"
             "std::shared_mutex sm;\n"
             "std::shared_timed_mutex stm;\n"
             "std::condition_variable cv;\n"
             "std::condition_variable_any cva;\n"
             "std::lock_guard<M> lg(m);\n"
             "std::unique_lock<M> ul(m);\n"
             "std::scoped_lock sl(m);\n"
             "std::shared_lock<M> shl(m);\n"
             "std::atomic<int> a;\n"
             "std::thread_like ok;\n"
             "my_pthread_create();\n"
             "// std::mutex in a comment\n"
             "const char* s = \"std::atomic\";\n"),
    });
    expect(count_rule(r, "one-thread") == 17,
           "one-thread flags each banned token once");
  }
  {  // nodiscard: markers must stay on Status/Result.
    LintResult r = with({
        make("src/common/status.h", "class Status {};\n"
                                    "template <class T> class Result {};\n"),
    });
    expect(count_rule(r, "nodiscard") == 2, "nodiscard catches lost markers");
  }
  {  // blocking-in-no-yield: a direct round trip inside a live scope
     // fires; a scope whose block closed first does not; other functions in
     // the same file are unaffected.
    LintResult r = with({
        make("src/citus/b.cc",
             "void Bad(Conn* c) {\n"
             "  sim::NoYieldScope no_yield;\n"
             "  c->Query(\"SELECT 1\");\n"
             "}\n"
             "void Good(Conn* c) {\n"
             "  {\n"
             "    sim::NoYieldScope no_yield;\n"
             "  }\n"
             "  c->Query(\"SELECT 1\");\n"
             "}\n"),
    });
    expect(count_rule(r, "blocking-in-no-yield") == 1,
           "blocking-in-no-yield flags the round trip inside the scope only");
  }
  {  // blocking-in-no-yield: interprocedural — a helper that blocks taints
     // its caller, and the violation names the chain.
    LintResult r = with({
        make("src/citus/t.cc",
             "Status Helper(Conn* c) {\n"
             "  return c->RoundTrip();\n"
             "}\n"
             "void Caller(Conn* c) {\n"
             "  NoYieldScope no_yield;\n"
             "  Helper(c);\n"
             "}\n"),
    });
    expect(count_rule(r, "blocking-in-no-yield") == 1,
           "a helper that blocks taints its caller");
    bool chain_named = false;
    for (const auto& v : r.violations) {
      if (v.rule == "blocking-in-no-yield" &&
          v.detail.find("Helper -> RoundTrip") != std::string::npos) {
        chain_named = true;
      }
    }
    expect(chain_named, "the violation names the blocking chain");
  }
  {  // blocking-in-no-yield: non-blocking primitives (Wake, Try*) are not
     // seeds.
    LintResult r = with({
        make("src/engine/k.cc",
             "void Release(Process* waiter) {\n"
             "  sim::NoYieldScope no_yield;\n"
             "  sim->Wake(waiter);\n"
             "  TryAcquire();\n"
             "}\n"),
    });
    expect(count_rule(r, "blocking-in-no-yield") == 0,
           "Wake/Try* are not seeds");
  }
  {  // blocking-in-no-yield: suppression with a reason works.
    LintResult r = with({
        make("src/citus/s.cc",
             "void Startup(Conn* c) {\n"
             "  sim::NoYieldScope no_yield;\n"
             "  c->Query(\"x\");  // cituslint: allow(blocking-in-no-yield: "
             "bootstrap before any other process exists)\n"
             "}\n"),
    });
    expect(count_rule(r, "blocking-in-no-yield") == 0,
           "a justified suppression silences blocking-in-no-yield");
  }
  {  // guc-registry: unregistered reference, duplicate declaration, unused
     // declaration, and an executor-visible GUC that is never stamped.
    auto files = std::vector<SourceFile>{
        make("src/citus/gucs.h",
             "inline constexpr GucSpec kCitusGucs[] = {\n"
             "    {\"citus.alpha\", \"on\", true},\n"
             "    {\"citus.alpha\", \"on\", true},\n"
             "    {\"citus.beta\", \"\", false},\n"
             "    {\"citus.gamma\", \"\", true},\n"
             "};\n"),
        make("src/obs/metric_names.h", kMetricsHeader),
        make("src/citus/u.cc",
             "void f(Session& s) {\n"
             "  s.SetVar(\"citus.mystery\", \"1\");\n"
             "  s.Run(\"SET citus.alpha = 'off'\");\n"
             "  s.GetVar(\"citus.gamma\");\n"
             "  m->counter(\"citus.2pc.commits\");  "
             "// cituslint: allow(metrics-registry: fixture)\n"
             "}\n"),
    };
    LintResult r = RunLint(files);
    // Expected: unregistered citus.mystery, duplicate citus.alpha, unused
    // citus.beta, unstamped citus.gamma. The three-segment metric name must
    // NOT be mistaken for a GUC.
    expect(count_rule(r, "guc-registry") == 4,
           "guc-registry finds unregistered/duplicate/unused/unstamped");
  }
  {  // guc-registry: a consistent registry is clean.
    auto files = std::vector<SourceFile>{
        make("src/citus/gucs.h",
             "inline constexpr GucSpec kCitusGucs[] = {\n"
             "    {\"citus.alpha\", \"on\", true},\n"
             "};\n"),
        make("src/obs/metric_names.h", kMetricsHeader),
        make("src/citus/u.cc",
             "void f(Session& s) {\n"
             "  s.Run(\"SET citus.alpha = 'off'\");\n"
             "}\n"),
    };
    LintResult r = RunLint(files);
    expect(count_rule(r, "guc-registry") == 0,
           "a consistent GUC registry is clean");
  }
  {  // metrics-registry: unregistered call-site name, unused registry entry,
     // duplicate entry, and a non-literal argument.
    auto files = std::vector<SourceFile>{
        make("src/citus/gucs.h", kGucsHeader),
        make("src/obs/metric_names.h",
             "inline constexpr const char* kRegisteredMetricNames[] = {\n"
             "    \"pool.used\",\n"
             "    \"pool.used\",\n"
             "    \"pool.unused\",\n"
             "};\n"),
        make("src/pool/m.cc",
             "void f(Metrics* m, const char* dynamic_name) {\n"
             "  m->counter(\"pool.used\")->Inc();\n"
             "  m->counter(\"pool.rogue\")->Inc();\n"
             "  m->gauge(dynamic_name)->Set(1);\n"
             "}\n"),
    };
    LintResult r = RunLint(files);
    // duplicate pool.used + unregistered pool.rogue + unused pool.unused +
    // non-literal gauge() argument.
    expect(count_rule(r, "metrics-registry") == 4,
           "metrics-registry finds duplicate/unregistered/unused/non-literal");
  }
  {  // metrics-registry: table-driven stat-view rows count as usage, and a
     // consistent registry is clean.
    auto files = std::vector<SourceFile>{
        make("src/citus/gucs.h", kGucsHeader),
        make("src/obs/metric_names.h",
             "inline constexpr const char* kRegisteredMetricNames[] = {\n"
             "    \"pool.used\",\n"
             "    \"txn.commits\",\n"
             "};\n"),
        make("src/pool/m.cc",
             "void f(Metrics* m) {\n"
             "  m->counter(\"pool.used\")->Inc();\n"
             "}\n"),
        make("src/obs/stat_views.cc",
             "const Row kRows[] = {\n"
             "    {\"txn.commits\", \"commits\"},\n"
             "};\n"),
    };
    LintResult r = RunLint(files);
    expect(count_rule(r, "metrics-registry") == 0,
           "string-table references count as metric usage");
  }
  {  // baseline: matched entries burn down, unknown entries are stale.
    Violation v{"layering", "src/citus/bad.cc", 3, "includes engine/locks.h"};
    BaselineReport rep =
        ApplyBaseline({v}, {v.Key(), "layering|src/gone.cc|includes x"});
    expect(rep.fresh.empty() && rep.matched.size() == 1,
           "baselined violations are matched, not fresh");
    expect(rep.stale.size() == 1 &&
               rep.stale[0] == "layering|src/gone.cc|includes x",
           "fixed baseline entries are reported stale");
    BaselineReport rep2 = ApplyBaseline({v}, {});
    expect(rep2.fresh.size() == 1 && rep2.stale.empty(),
           "unbaselined violations are fresh");
  }
  if (failures == 0) printf("cituslint self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string baseline_path;
  bool counts = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (arg == "--counts") {
      counts = true;
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      root = arg;
    } else {
      fprintf(stderr,
              "usage: cituslint <repo-root> [--baseline <file>] [--counts] "
              "[--self-test]\n");
      return 2;
    }
  }
  if (root.empty()) {
    fprintf(stderr, "cituslint: missing repo root\n");
    return 2;
  }

  std::vector<SourceFile> files;
  fs::path src = fs::path(root) / "src";
  if (!fs::exists(src)) {
    fprintf(stderr, "cituslint: %s does not exist\n", src.string().c_str());
    return 2;
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    std::string rel = fs::relative(p, fs::path(root)).generic_string();
    files.push_back(LoadSource(rel, ReadLines(p)));
  }

  LintResult result = RunLint(files);

  std::set<std::string> baseline;
  if (!baseline_path.empty()) {
    baseline = LoadBaseline(baseline_path, &result.errors);
  }

  BaselineReport report = ApplyBaseline(result.violations, baseline);
  for (const Violation& v : report.fresh) {
    fprintf(stderr, "%s:%d: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
            v.detail.c_str());
  }
  // Monotonic shrink: baseline entries that no longer fire must be removed.
  for (const std::string& key : report.stale) {
    fprintf(stderr, "stale baseline entry (violation fixed — delete it): %s\n",
            key.c_str());
  }
  for (const std::string& err : result.errors) {
    fprintf(stderr, "cituslint error: %s\n", err.c_str());
  }

  if (counts) {
    for (const std::string& rule : KnownRules()) {
      printf("%s: %d new, %d baselined\n", rule.c_str(),
             report.per_rule_new.count(rule) ? report.per_rule_new.at(rule) : 0,
             report.per_rule_baselined.count(rule)
                 ? report.per_rule_baselined.at(rule)
                 : 0);
    }
  }

  int new_count = static_cast<int>(report.fresh.size());
  int stale = static_cast<int>(report.stale.size());
  if (new_count == 0 && stale == 0 && result.errors.empty()) {
    printf("cituslint: %zu files clean (%d baselined violations remain)\n",
           files.size(), static_cast<int>(report.matched.size()));
    return 0;
  }
  fprintf(stderr, "cituslint: %d new violation(s), %d stale baseline entr%s\n",
          new_count, stale, stale == 1 ? "y" : "ies");
  return 1;
}
