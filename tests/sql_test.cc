// Unit tests for the SQL layer: datum, json, lexer, parser, deparser, eval.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "sql/datum.h"
#include "sql/deparser.h"
#include "sql/eval.h"
#include "sql/json.h"
#include "sql/parser.h"
#include "workload/gharchive.h"

namespace citusx::sql {
namespace {

// ---- Datum ----

TEST(Datum, NullHandling) {
  Datum n = Datum::Null();
  EXPECT_TRUE(n.is_null());
  EXPECT_FALSE(Datum::Equal(n, n));
  EXPECT_EQ(Datum::Compare(n, Datum::Int8(1)), 1);  // NULLs sort last
  EXPECT_EQ(Datum::Compare(Datum::Int8(1), n), -1);
}

TEST(Datum, NumericCrossTypeCompare) {
  EXPECT_EQ(Datum::Compare(Datum::Int4(5), Datum::Int8(5)), 0);
  EXPECT_EQ(Datum::Compare(Datum::Int8(5), Datum::Float8(5.5)), -1);
  EXPECT_EQ(Datum::Compare(Datum::Float8(6.0), Datum::Int4(5)), 1);
}

// Hash-join keys are equal exactly when Compare calls the values equal.
TEST(Datum, JoinKeysFollowCompareEquality) {
  const std::vector<Datum> values = {
      Datum::Int4(3),        Datum::Int8(3),
      Datum::Float8(3.0),    Datum::Float8(-0.0),
      Datum::Int8(0),        Datum::Float8(3.5),
      Datum::Bool(true),     Datum::Int8(1),
      Datum::Date(2),        Datum::Timestamp(2 * 86400000000LL),
      Datum::Int8(2),        Datum::Text("3"),
      Datum::Float8(1e300),  Datum::Int8(-9223372036854775807LL - 1),
      Datum::Float8(-9223372036854775808.0)};
  for (const Datum& a : values) {
    for (const Datum& b : values) {
      EXPECT_EQ(a.JoinKey() == b.JoinKey(), Datum::Compare(a, b) == 0)
          << a.ToSqlLiteral() << " vs " << b.ToSqlLiteral();
    }
  }
  // GROUP BY keys keep their classes: an int and a float group apart.
  EXPECT_NE(Datum::Int8(3).GroupKey(), Datum::Float8(3.0).GroupKey());
}

TEST(Datum, LikeFoldsCaseInPlace) {
  EXPECT_TRUE(LikeMatch("Fix the PostgreSQL planner", "%postgres%", true));
  EXPECT_FALSE(LikeMatch("Fix the PostgreSQL planner", "%postgres%", false));
  EXPECT_TRUE(LikeMatch("abc", "A_C", true));
  EXPECT_FALSE(LikeMatch("abd", "A_C", true));
  EXPECT_TRUE(LikeMatch("[\"X\"]", "%x%", true));
  EXPECT_FALSE(LikeMatch("", "_", true));
}

TEST(Datum, TextCompare) {
  EXPECT_LT(Datum::Compare(Datum::Text("abc"), Datum::Text("abd")), 0);
  EXPECT_TRUE(Datum::Equal(Datum::Text("x"), Datum::Text("x")));
}

TEST(Datum, SqlLiteralRoundTrip) {
  // Every ToSqlLiteral output must re-parse to an equal value.
  std::vector<Datum> values = {
      Datum::Null(),
      Datum::Bool(true),
      Datum::Int8(-42),
      Datum::Float8(3.25),
      Datum::Text("it's"),
      Datum::Date(CivilToDays(2020, 2, 1)),
      Datum::Timestamp(ParseTimestamp("2021-06-20 12:34:56").value()),
  };
  for (const auto& v : values) {
    auto expr = ParseExpression(v.ToSqlLiteral());
    ASSERT_TRUE(expr.ok()) << v.ToSqlLiteral() << ": "
                           << expr.status().ToString();
    EvalContext ctx;
    auto result = Eval(**expr, ctx);
    ASSERT_TRUE(result.ok());
    if (v.is_null()) {
      EXPECT_TRUE(result->is_null());
    } else {
      EXPECT_EQ(Datum::Compare(v, *result), 0) << v.ToSqlLiteral();
    }
  }
}

TEST(Datum, DateMath) {
  int64_t d = CivilToDays(2000, 1, 1);
  EXPECT_EQ(d, 0);
  EXPECT_EQ(FormatDate(CivilToDays(2021, 6, 20)), "2021-06-20");
  int y, m, day;
  DaysToCivil(CivilToDays(2024, 2, 29), &y, &m, &day);
  EXPECT_EQ(y, 2024);
  EXPECT_EQ(m, 2);
  EXPECT_EQ(day, 29);
  EXPECT_EQ(ParseDate("1998-12-01").value(),
            CivilToDays(1998, 12, 1));
}

TEST(Datum, CastMatrix) {
  EXPECT_EQ(Datum::Int8(42).CastTo(TypeId::kText)->text_value(), "42");
  EXPECT_EQ(Datum::Text("17").CastTo(TypeId::kInt8)->int_value(), 17);
  EXPECT_EQ(Datum::Text("1.5").CastTo(TypeId::kFloat8)->float_value(), 1.5);
  EXPECT_EQ(Datum::Text("2020-02-01")
                .CastTo(TypeId::kDate)
                ->int_value(),
            CivilToDays(2020, 2, 1));
  // timestamp -> date truncates
  Datum ts = Datum::Timestamp(ParseTimestamp("2020-02-01 23:59:59").value());
  EXPECT_EQ(ts.CastTo(TypeId::kDate)->int_value(), CivilToDays(2020, 2, 1));
  EXPECT_FALSE(Datum::Jsonb(JsonbBuffer()).CastTo(TypeId::kInt8).ok());
}

TEST(Datum, PartitionHashStability) {
  EXPECT_EQ(Datum::Int8(123).PartitionHash(), Datum::Int8(123).PartitionHash());
  EXPECT_EQ(Datum::Text("abc").PartitionHash(),
            Datum::Text("abc").PartitionHash());
  EXPECT_NE(Datum::Int8(1).PartitionHash(), Datum::Int8(2).PartitionHash());
}

// ---- Json ----

TEST(Json, ParseAndSerialize) {
  auto j = Json::Parse(R"({"a": 1, "b": [true, null, "x\"y"], "c": {"d": 2.5}})");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ((*j)->GetField("a")->number_value(), 1);
  EXPECT_EQ((*j)->GetField("b")->array_size(), 3);
  EXPECT_EQ((*j)->GetField("b")->GetElement(2)->string_value(), "x\"y");
  // Round trip.
  auto j2 = Json::Parse((*j)->ToString());
  ASSERT_TRUE(j2.ok());
  EXPECT_EQ((*j)->ToString(), (*j2)->ToString());
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
}

// ---- Jsonb (flat documents) ----

// `expr` evaluated with its column references bound to `doc`, shown as
// "type:text" ("NULL" for SQL NULL).
std::string EvalOnDoc(const std::string& expr, const Datum& doc) {
  auto e = ParseExpression(expr);
  EXPECT_TRUE(e.ok()) << expr;
  if (!e.ok()) return "";
  WalkExprMut(*e, [](Expr& x) {
    if (x.kind == ExprKind::kColumnRef) x.slot = 0;
  });
  Row row = {doc};
  EvalContext ctx;
  ctx.row = &row;
  auto r = Eval(**e, ctx);
  EXPECT_TRUE(r.ok()) << expr << " -> " << r.status().ToString();
  if (!r.ok() || r->is_null()) return "NULL";
  return std::string(TypeName(r->type())) + ":" + r->ToText();
}

Datum MustJsonb(const std::string& text) {
  auto d = Datum::FromText(TypeId::kJsonb, text);
  EXPECT_TRUE(d.ok()) << text << " -> " << d.status().ToString();
  return d.ok() ? *d : Datum::Null();
}

// The printed text and PhysicalSize of each document, as the pointer-tree
// representation printed and sized them (its SerializedSize).
TEST(Jsonb, PrintsAndSizesAsTheTreeDid) {
  struct Case {
    std::string in, text;
    int64_t size;
  };
  const std::vector<Case> cases = {
      {R"({"a":"q\"uote","b":"back\\slash","c":"new\nline","d":"tab\there\r"})",
       R"({"a":"q\"uote","b":"back\\slash","c":"new\nline","d":"tab\there\r"})",
       63},
      {R"(["\u0041\u00e9\u20ac","x\u000ay","\/\b\f","a\u0001b"])",
       "[\"A??\",\"x\\ny\",\"/bf\",\"a\x01" "b\"]", 26},
      {"{}", "{}", 2},
      {"[]", "[]", 2},
      {R"({"a":{},"b":[],"c":[{}]})", R"({"a":{},"b":[],"c":[{}]})", 26},
      {"[[1,[2,[3,[]]]],[[]],[]]", "[[1,[2,[3,[]]]],[[]],[]]", 50},
      {R"({"k":1,"k":2,"j":{"k":"x","k":"y"}})",
       R"({"k":1,"k":2,"j":{"k":"x","k":"y"}})", 51},
      {"[0,-0,0.1,1e15,1e300,-7,-123456789012,1e14,-1e15,2.5e-3,"
       "123456789012345678,-0.5]",
       "[0,0,0.10000000000000001,1000000000000000,1.0000000000000001e+300,"
       "-7,-123456789012,100000000000000,-1000000000000000,"
       "0.0025000000000000001,1.2345678901234568e+17,-0.5]",
       110},
      {" { \"a\" : [ 1 , 2 ] , \"b\" :\n\t\"c\" } ", R"({"a":[1,2],"b":"c"})",
       35},
      {R"("str")", R"("str")", 5},
      {"42", "42", 8},
      {"true", "true", 5},
      {"null", "null", 5},
      {R"({"a":[1,"two",null,true,{"b":3}],"c":"x"})",
       R"({"a":[1,"two",null,true,{"b":3}],"c":"x"})", 60},
  };
  for (const Case& c : cases) {
    Datum d = MustJsonb(c.in);
    EXPECT_EQ(d.ToText(), c.text) << c.in;
    EXPECT_EQ(d.PhysicalSize(), c.size) << c.in;
    // The tree parses and prints through the same form.
    auto tree = Json::Parse(c.in);
    ASSERT_TRUE(tree.ok()) << c.in;
    EXPECT_EQ((*tree)->ToString(), c.text) << c.in;
  }
}

TEST(Jsonb, OperatorsAnswerAsBefore) {
  struct Probe {
    std::string doc, expr, want;
  };
  const std::string quoted =
      R"({"a":"q\"uote","b":"back\\slash","c":"new\nline","d":"tab\there\r"})";
  const std::string dup = R"({"k":1,"k":2,"j":{"k":"x","k":"y"}})";
  const std::string nested = "[[1,[2,[3,[]]]],[[]],[]]";
  const std::string mixed = R"({"a":[1,"two",null,true,{"b":3}],"c":"x"})";
  const std::vector<Probe> probes = {
      {quoted, "data->'a'", R"(jsonb:"q\"uote")"},
      {quoted, "data->>'a'", "text:q\"uote"},
      {quoted, "data->>'c'", "text:new\nline"},
      {quoted, "data->0", "NULL"},
      {quoted, "jsonb_array_length(data)", "NULL"},
      {quoted, "jsonb_typeof(data->'a')", "text:string"},
      {quoted, "jsonb_path_query_array(data, '$.a')", R"(jsonb:["q\"uote"])"},
      {dup, "data->'k'", "jsonb:1"},
      {dup, "data->>'k'", "text:1"},
      {dup, "data->'j'->>'k'", "text:x"},
      {dup, "jsonb_path_query_array(data, '$.k')", "jsonb:[1]"},
      {nested, "data->0", "jsonb:[1,[2,[3,[]]]]"},
      {nested, "data->>1", "text:[[]]"},
      {nested, "jsonb_array_length(data)", "bigint:3"},
      {nested, "jsonb_typeof(data->0)", "text:array"},
      {nested, "jsonb_path_query_array(data, '$[0][1]')", "jsonb:[[2,[3,[]]]]"},
      {nested, "jsonb_path_query_array(data, '$[*][*]')", "jsonb:[1,[2,[3,[]]],[]]"},
      {mixed, "data->'a'->4", R"(jsonb:{"b":3})"},
      {mixed, "data->'a'->>1", "text:two"},
      {mixed, "data->'a'->2", "NULL"},  // JSON null is SQL NULL
      {mixed, "jsonb_array_length(data->'a')", "bigint:5"},
      {mixed, "jsonb_typeof(data)", "text:object"},
      {mixed, "jsonb_path_query_array(data, '$.a[1]')", R"(jsonb:["two"])"},
      {mixed, "jsonb_path_query_array(data, '$.a[*].b')", "jsonb:[3]"},
      {mixed, "jsonb_path_query_array(data, '$.a[x]')", "jsonb:[]"},
      {mixed, "jsonb_path_query_array(data, 'a')", "jsonb:[]"},
      {mixed, "jsonb_path_query_array(data, '$')",
       R"(jsonb:[{"a":[1,"two",null,true,{"b":3}],"c":"x"}])"},
      {"[]", "jsonb_array_length(data)", "bigint:0"},
      {"null", "jsonb_typeof(data)", "text:null"},
      {"false", "jsonb_typeof(data)", "text:boolean"},
      {"42", "jsonb_typeof(data)", "text:number"},
  };
  for (const Probe& p : probes) {
    EXPECT_EQ(EvalOnDoc(p.expr, MustJsonb(p.doc)), p.want)
        << p.doc << "  " << p.expr;
  }
  // A path result is a document of its own, sized like any other.
  Datum doc = MustJsonb(mixed);
  JsonbBuffer path = JsonbPathQueryArray(doc.jsonb(), "$.a");
  EXPECT_EQ(Datum::Jsonb(path).PhysicalSize(), 48);
  EXPECT_EQ(Datum::Jsonb(path).ToText(), R"([[1,"two",null,true,{"b":3}]])");
}

TEST(Jsonb, PathQuery) {
  Datum doc = MustJsonb(
      R"({"payload": {"commits": [{"message": "m1"}, {"message": "m2"}]}})");
  JsonbBuffer all =
      JsonbPathQueryArray(doc.jsonb(), "$.payload.commits[*].message");
  JsonbView matches(all.get());
  ASSERT_EQ(matches.size(), 2);
  EXPECT_EQ(matches.Element(0).string_value(), "m1");
  EXPECT_EQ(matches.Element(1).string_value(), "m2");
  EXPECT_EQ(JsonbView(JsonbPathQueryArray(doc.jsonb(), "$.missing.path").get())
                .size(),
            0);
  JsonbBuffer idx =
      JsonbPathQueryArray(doc.jsonb(), "$.payload.commits[1].message");
  ASSERT_EQ(JsonbView(idx.get()).size(), 1);
  EXPECT_EQ(JsonbView(idx.get()).Element(0).string_value(), "m2");
}

TEST(Jsonb, CopiesAndSubValuesShareTheBuffer) {
  Datum doc = MustJsonb(R"({"a":{"b":[1,2]},"c":"x"})");
  Datum copy = doc;
  EXPECT_EQ(copy.jsonb().data(), doc.jsonb().data());
  Datum a = doc.JsonbAt(doc.jsonb().Field("a"));
  EXPECT_EQ(a.jsonb().data(), doc.jsonb().Field("a").data());
  EXPECT_EQ(a.ToText(), R"({"b":[1,2]})");
  EXPECT_EQ(a.PhysicalSize(), 27);
  EXPECT_EQ(Datum::Compare(a, MustJsonb(R"({"b": [1, 2]})")), 0);
  EXPECT_EQ(a.GroupKey(), R"(J{"b":[1,2]})");
  EXPECT_EQ(a.PartitionHash(), MustJsonb(R"({"b":[1,2]})").PartitionHash());
  // Like a whole document, a sub-value reads as 0 where a number is taken.
  EXPECT_EQ(a.AsInt64(), 0);
  EXPECT_EQ(EvalOnDoc("abs(data->'c')", doc), "bigint:0");
}

TEST(Jsonb, MalformedTextRefusedWithTheSameErrors) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{", "expected string in JSON"},
      {"[1,", "unexpected end of JSON"},
      {"{\"a\" 1}", "expected ':' in JSON object"},
      {"tru", "bad JSON at offset 0"},
      {"{} trailing", "trailing characters in JSON"},
      {"\"abc", "unterminated JSON string"},
      {"[1 2]", "expected ',' or ']' in JSON array"},
      {"{\"a\":1 \"b\"}", "expected ',' or '}' in JSON object"},
      {"{\"a\":1,}", "expected string in JSON"},
      {"-", "bad JSON number"},
      {"1e400", "bad JSON number"},
      {"", "unexpected end of JSON"},
      {"\"a\\", "unterminated JSON string"},
      {"[\"\\u12\"]", "unterminated JSON string"},
      {"[1,]", "bad JSON at offset 3"},
      {"{\"a\":}", "bad JSON at offset 5"},
      {"--1", "bad JSON number"},
  };
  for (const auto& [in, error] : cases) {
    auto d = Datum::FromText(TypeId::kJsonb, in);
    ASSERT_FALSE(d.ok()) << in;
    EXPECT_EQ(d.status().message(), error) << in;
    EXPECT_FALSE(Json::Parse(in).ok()) << in;
  }
  // Accepted as before: a number's trailing characters stop at the first
  // one strtod does not take.
  EXPECT_EQ(MustJsonb("1.2.3").ToText(), "1.2");
}

// The generator's documents print back to their own text, and their
// sizes and operator answers match the pointer-tree representation's
// (totals pinned from it).
TEST(Jsonb, GhArchiveDocumentsAnswerAsBefore) {
  Rng rng(7);
  workload::GhArchiveConfig config;
  const std::vector<std::string> exprs = {
      "data->>'type'",
      "data->'payload'->'commits'",
      "jsonb_array_length(data->'payload'->'commits')",
      "jsonb_typeof(data->'actor')",
      "jsonb_path_query_array(data, '$.payload.commits[*].message')::text",
      "data->'payload'->'commits'->1->>'sha'",
      "jsonb_path_query_array(data, '$.payload.commits[0].sha')",
      "(data->>'created_at')::date",
      "data->'repo'",
      "data->'payload'->>'size'"};
  uint64_t digest = 1469598103934665603ULL;
  int64_t docs = 0, size_sum = 0, sub_size = 0;
  for (int day = 1; day <= 3; day++) {
    for (const auto& row :
         workload::GhGenerateEvents(rng, config, 400, 2020, 3, day)) {
      Datum doc = MustJsonb(row[1]);
      docs++;
      EXPECT_EQ(doc.ToText(), row[1]);
      size_sum += doc.PhysicalSize();
      for (const std::string& e : exprs) {
        std::string shown = EvalOnDoc(e, doc);
        for (unsigned char c : shown) {
          digest = (digest ^ c) * 1099511628211ULL;
        }
        digest = (digest ^ 0xff) * 1099511628211ULL;
        if (shown.rfind("jsonb:", 0) == 0) {
          sub_size += MustJsonb(shown.substr(6)).PhysicalSize();
        }
      }
    }
  }
  EXPECT_EQ(docs, 1200);
  EXPECT_EQ(size_sum, 360853);
  EXPECT_EQ(sub_size, 217287);
  EXPECT_EQ(digest, 9387858631670363739ULL);
}

// ---- Datum layout ----

// Bytes of a text value: printable runs, quotes, a backslash and bytes of
// 0x80 and above, never NUL.
std::string TextOfLength(size_t n) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; i++) {
    static const char kRun[] = "ab'c\\d\xc3\xa9" "e\xff" "f 1";
    s.push_back(kRun[(i * 7 + n) % (sizeof(kRun) - 1)]);
  }
  return s;
}

// Every answer the 16-byte layout must keep, over NULL, booleans, integer
// extremes, floats, text inline and in blocks, dates, timestamps, jsonb
// documents and sub-values: the digest was computed with the former
// 72-byte Datum. Converting a float beyond int64's range to an integer is
// undefined behaviour, so those answers (AsInt64 and the integer casts of
// such a float, and PartitionHash of one beyond it over 1e6) are not
// pinned.
TEST(Datum, AnswersAsBefore) {
  const Datum doc = MustJsonb(
      R"({"a":{"b":[1,2.5,"x"]},"c":"été","d":[],"e":null})");
  JsonbView a = doc.jsonb().Field("a");
  std::vector<Datum> values = {
      Datum::Null(),
      Datum::Bool(true),
      Datum::Bool(false),
      Datum::Int4(0),
      Datum::Int4(-1),
      Datum::Int4(2147483647),
      Datum::Int4(-2147483647 - 1),
      Datum::Int8(42),
      Datum::Int8(9223372036854775807LL),
      Datum::Int8(-9223372036854775807LL - 1),
      Datum::Float8(0.0),
      Datum::Float8(-0.0),
      Datum::Float8(0.1),
      Datum::Float8(1e15),
      Datum::Float8(1e300),
      Datum::Float8(-1e300),
      Datum::Float8(3.0),
      Datum::Float8(-7.0),
      Datum::Float8(4294967296.0),
      Datum::Float8(2.5),
      Datum::Text(""),
      Datum::Text("7"),
      Datum::Text("true"),
      Datum::Text("12345678901234"),
      Datum::Text("2020-02-29T12:3"),
      Datum::Text("{\"k\":\"\xc3\xa9\xe2\x82\xac!!!\"}"),
      Datum::Text(TextOfLength(14)),
      Datum::Text(TextOfLength(15)),
      Datum::Text(TextOfLength(16)),
      Datum::Text(TextOfLength(100)),
      Datum::Text(TextOfLength(65536)),
      Datum::Date(0),
      Datum::Date(-1),
      Datum::Date(CivilToDays(2020, 2, 29)),
      Datum::Date(CivilToDays(1969, 7, 20)),
      Datum::Timestamp(0),
      Datum::Timestamp(-1),
      Datum::Timestamp(CivilToDays(2020, 2, 29) * 86400000000LL),
      Datum::Timestamp(ParseTimestamp("2020-02-29 23:59:59.5").value()),
      doc,
      doc.JsonbAt(a),
      doc.JsonbAt(a.Field("b")),
      doc.JsonbAt(a.Field("b").Element(1)),
      doc.JsonbAt(a.Field("b").Element(2)),
      doc.JsonbAt(doc.jsonb().Field("c")),
      doc.JsonbAt(doc.jsonb().Field("d")),
      doc.JsonbAt(doc.jsonb().Field("e")),
      Datum::Jsonb(JsonbPathQueryArray(doc.jsonb(), "$.a.b[*]")),
      MustJsonb("[]"),
      MustJsonb("\"str\""),
      MustJsonb("42"),
      MustJsonb("true"),
      MustJsonb("null"),
      Datum::Jsonb(JsonbBuffer()),
  };
  auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return std::to_string(u);
  };
  auto in_int64 = [](double d) {
    return d >= -9223372036854775808.0 && d < 9223372036854775808.0;
  };
  std::string log;
  for (const Datum& v : values) {
    bool is_float = v.type() == TypeId::kFloat8;
    bool ints_ok = !is_float || in_int64(v.float_value());
    log += std::to_string(static_cast<int>(v.type())) + "|" +
           std::to_string(v.PhysicalSize()) + "|" + v.ToText() + "|" +
           v.GroupKey() + "|" + v.JoinKey() + "|" + v.ToSqlLiteral() + "|" +
           std::string(v.text_value()) + "|" + v.jsonb().ToText() + "|" +
           std::to_string(v.int_value()) + "|" +
           std::to_string(v.bool_value()) + "|" + bits(v.float_value()) +
           "|" + bits(v.AsDouble()) + "|";
    if (!is_float || in_int64(v.float_value() * 1e6)) {
      log += std::to_string(v.PartitionHash());
    }
    log += "|";
    if (ints_ok) log += std::to_string(v.AsInt64());
    for (int t = 0; t <= static_cast<int>(TypeId::kJsonb); t++) {
      auto target = static_cast<TypeId>(t);
      bool to_int = target == TypeId::kInt4 || target == TypeId::kInt8 ||
                    target == TypeId::kBool;
      if (to_int && !ints_ok) continue;
      auto cast = v.CastTo(target);
      log += "|" + (cast.ok() ? std::to_string(static_cast<int>(cast->type())) +
                                    ":" + cast->ToSqlLiteral()
                              : cast.status().message());
    }
    log += "\n";
  }
  for (const Datum& x : values) {
    for (const Datum& y : values) {
      log += std::to_string(Datum::Compare(x, y));
      log += Datum::Equal(x, y) ? "=" : ",";
    }
    log += "\n";
  }
  uint64_t digest = 1469598103934665603ULL;
  for (unsigned char c : log) digest = (digest ^ c) * 1099511628211ULL;
  EXPECT_EQ(log.size(), 821589u);
  EXPECT_EQ(digest, 10796915792057468439ULL);
}

// A copy of a text value in a block shares the block and outlives the
// value it was copied from.
TEST(Datum, LongTextCopyOutlivesItsOriginal) {
  const std::string text = TextOfLength(100);
  auto original = std::make_unique<Datum>(Datum::Text(text));
  Datum copy = *original;
  Datum assigned = Datum::Int8(1);
  assigned = *original;
  EXPECT_EQ(copy.text_value().data(), original->text_value().data());
  original.reset();
  EXPECT_EQ(copy.text_value(), text);
  EXPECT_EQ(assigned.text_value(), text);
  Datum moved = std::move(copy);
  EXPECT_EQ(moved.text_value(), text);
  const Datum& alias = moved;
  moved = alias;
  EXPECT_EQ(moved.text_value(), text);
  assigned = Datum::Text("short");
  EXPECT_EQ(moved.text_value(), text);
  // Short text sits inline and moves with its Datum.
  std::vector<Datum> row;
  for (int i = 0; i < 100; i++) row.push_back(Datum::Text(TextOfLength(14)));
  for (const Datum& d : row) EXPECT_EQ(d.text_value(), TextOfLength(14));
}

// ---- Parser ----

Statement MustParse(const std::string& sql) {
  auto r = Parse(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : Statement{};
}

TEST(Parser, SimpleSelect) {
  Statement s = MustParse("SELECT a, b FROM t WHERE a = 1");
  ASSERT_EQ(s.kind, Statement::Kind::kSelect);
  EXPECT_EQ(s.select->targets.size(), 2u);
  ASSERT_EQ(s.select->from.size(), 1u);
  EXPECT_EQ(s.select->from[0]->name, "t");
  ASSERT_NE(s.select->where, nullptr);
}

TEST(Parser, SelectWithEverything) {
  Statement s = MustParse(
      "SELECT DISTINCT t.a AS x, count(*), sum(b + 1) total "
      "FROM t JOIN u ON t.id = u.id LEFT JOIN v ON v.k = t.k "
      "WHERE t.a > 5 AND u.name LIKE 'ab%' "
      "GROUP BY t.a HAVING count(*) > 2 "
      "ORDER BY 2 DESC, x ASC LIMIT 10 OFFSET 5");
  ASSERT_EQ(s.kind, Statement::Kind::kSelect);
  EXPECT_TRUE(s.select->distinct);
  EXPECT_EQ(s.select->targets.size(), 3u);
  EXPECT_EQ(s.select->targets[2].alias, "total");
  EXPECT_EQ(s.select->group_by.size(), 1u);
  ASSERT_NE(s.select->having, nullptr);
  EXPECT_EQ(s.select->order_by.size(), 2u);
  EXPECT_TRUE(s.select->order_by[0].desc);
}

TEST(Parser, SubqueryInFrom) {
  Statement s = MustParse(
      "SELECT avg(device_avg) FROM ("
      "SELECT deviceid, avg(metric) AS device_avg FROM reports "
      "GROUP BY deviceid) AS subq");
  ASSERT_EQ(s.select->from.size(), 1u);
  EXPECT_EQ(s.select->from[0]->kind, TableRef::Kind::kSubquery);
  EXPECT_EQ(s.select->from[0]->alias, "subq");
}

TEST(Parser, InsertForms) {
  Statement v = MustParse(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y') ON CONFLICT DO NOTHING");
  ASSERT_EQ(v.kind, Statement::Kind::kInsert);
  EXPECT_EQ(v.insert->values.size(), 2u);
  EXPECT_TRUE(v.insert->on_conflict_do_nothing);

  Statement is = MustParse("INSERT INTO rollup SELECT a, count(*) FROM t GROUP BY a");
  ASSERT_EQ(is.kind, Statement::Kind::kInsert);
  ASSERT_NE(is.insert->select, nullptr);
}

TEST(Parser, UpdateDelete) {
  Statement u = MustParse("UPDATE t SET v = v + 1, w = 2 WHERE key = $1");
  ASSERT_EQ(u.kind, Statement::Kind::kUpdate);
  EXPECT_EQ(u.update->sets.size(), 2u);
  Statement d = MustParse("DELETE FROM t WHERE a IN (1, 2, 3)");
  ASSERT_EQ(d.kind, Statement::Kind::kDelete);
}

TEST(Parser, CreateTable) {
  Statement s = MustParse(
      "CREATE TABLE IF NOT EXISTS orders ("
      "o_id bigint PRIMARY KEY, o_w_id int NOT NULL, "
      "o_entry_d timestamp, data jsonb, total double precision, "
      "name varchar(24) DEFAULT 'x')");
  ASSERT_EQ(s.kind, Statement::Kind::kCreateTable);
  const auto& ct = *s.create_table;
  EXPECT_TRUE(ct.if_not_exists);
  EXPECT_EQ(ct.schema.columns.size(), 6u);
  EXPECT_EQ(ct.schema.columns[0].type, TypeId::kInt8);
  EXPECT_TRUE(ct.schema.columns[0].primary_key);
  EXPECT_EQ(ct.schema.columns[2].type, TypeId::kTimestamp);
  EXPECT_EQ(ct.schema.columns[3].type, TypeId::kJsonb);
  EXPECT_EQ(ct.schema.columns[4].type, TypeId::kFloat8);
  EXPECT_EQ(ct.primary_key, std::vector<std::string>{"o_id"});
}

TEST(Parser, CompositePrimaryKey) {
  Statement s = MustParse(
      "CREATE TABLE t (a int, b int, c text, PRIMARY KEY (a, b))");
  EXPECT_EQ(s.create_table->primary_key,
            (std::vector<std::string>{"a", "b"}));
}

TEST(Parser, CreateIndex) {
  Statement s = MustParse("CREATE UNIQUE INDEX idx ON t (a, b)");
  EXPECT_TRUE(s.create_index->unique);
  EXPECT_EQ(s.create_index->columns.size(), 2u);

  Statement g = MustParse(
      "CREATE INDEX text_idx ON github_events USING gin "
      "((jsonb_path_query_array(data, '$.payload.commits[*].message')::text) "
      "gin_trgm_ops)");
  EXPECT_EQ(g.create_index->method, IndexMethod::kGinTrgm);
  ASSERT_NE(g.create_index->expression, nullptr);
}

TEST(Parser, TxnStatements) {
  EXPECT_EQ(MustParse("BEGIN").txn->op, TxnOp::kBegin);
  EXPECT_EQ(MustParse("COMMIT").txn->op, TxnOp::kCommit);
  EXPECT_EQ(MustParse("ROLLBACK").txn->op, TxnOp::kRollback);
  Statement p = MustParse("PREPARE TRANSACTION 'citus_0_12'");
  EXPECT_EQ(p.txn->op, TxnOp::kPrepare);
  EXPECT_EQ(p.txn->gid, "citus_0_12");
  EXPECT_EQ(MustParse("COMMIT PREPARED 'g1'").txn->op, TxnOp::kCommitPrepared);
  EXPECT_EQ(MustParse("ROLLBACK PREPARED 'g1'").txn->op,
            TxnOp::kRollbackPrepared);
}

TEST(Parser, SetAndCall) {
  Statement s = MustParse("SET citus.distributed_txid = '42'");
  EXPECT_EQ(s.set->name, "citus.distributed_txid");
  EXPECT_EQ(s.set->value, "42");
  Statement c = MustParse("CALL new_order(1, 2, 3)");
  EXPECT_EQ(c.call->procedure, "new_order");
  EXPECT_EQ(c.call->args.size(), 3u);
}

TEST(Parser, CopyStatement) {
  Statement s = MustParse("COPY t (a, b) FROM STDIN");
  EXPECT_EQ(s.copy->table, "t");
  EXPECT_EQ(s.copy->columns.size(), 2u);
}

TEST(Parser, DateLiteralsAndIntervals) {
  Statement s = MustParse(
      "SELECT * FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - "
      "INTERVAL '90' DAY");
  ASSERT_NE(s.select->where, nullptr);
  Statement m = MustParse(
      "SELECT * FROM orders WHERE o_orderdate < DATE '1995-01-01' + "
      "INTERVAL '3' MONTH");
  ASSERT_NE(m.select->where, nullptr);
}

TEST(Parser, JsonOperators) {
  Statement s = MustParse(
      "SELECT (data->>'created_at')::date, "
      "sum(jsonb_array_length(data->'payload'->'commits')) "
      "FROM github_events WHERE jsonb_path_query_array(data, "
      "'$.payload.commits[*].message')::text ILIKE '%postgres%' "
      "GROUP BY 1 ORDER BY 1 ASC");
  EXPECT_EQ(s.select->targets.size(), 2u);
}

TEST(Parser, NamedUdfArguments) {
  Statement s = MustParse(
      "SELECT create_distributed_table('other', 'k', colocate_with := 'my')");
  ASSERT_EQ(s.select->targets.size(), 1u);
  const Expr& f = *s.select->targets[0].expr;
  EXPECT_EQ(f.kind, ExprKind::kFunc);
  EXPECT_EQ(f.args.size(), 4u);  // 2 positional + marker + value
}

TEST(Parser, Errors) {
  EXPECT_FALSE(Parse("SELEC 1").ok());
  EXPECT_FALSE(Parse("SELECT FROM").ok());
  EXPECT_FALSE(Parse("INSERT INTO t").ok());
  EXPECT_FALSE(Parse("SELECT 'unterminated").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE EXISTS (SELECT 1)").ok());
  EXPECT_FALSE(Parse("SELECT (SELECT 1)").ok());
}

TEST(Parser, CaseExpression) {
  Statement s = MustParse(
      "SELECT sum(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) "
      "FROM orders");
  const Expr& agg = *s.select->targets[0].expr;
  EXPECT_EQ(agg.kind, ExprKind::kAgg);
  EXPECT_EQ(agg.args[0]->kind, ExprKind::kCase);
}

TEST(Parser, BetweenRewrite) {
  Statement s = MustParse("SELECT * FROM t WHERE a BETWEEN 1 AND 10");
  // BETWEEN becomes (a >= 1 AND a <= 10).
  EXPECT_EQ(s.select->where->kind, ExprKind::kBinary);
  EXPECT_EQ(s.select->where->bin_op, BinOp::kAnd);
}

// ---- Deparser round-trip ----

class DeparseRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(DeparseRoundTrip, ParseDeparseParse) {
  const std::string& sql = GetParam();
  auto s1 = Parse(sql);
  ASSERT_TRUE(s1.ok()) << sql << ": " << s1.status().ToString();
  std::string text1 = DeparseStatement(*s1);
  auto s2 = Parse(text1);
  ASSERT_TRUE(s2.ok()) << text1 << ": " << s2.status().ToString();
  std::string text2 = DeparseStatement(*s2);
  EXPECT_EQ(text1, text2) << "deparse not a fixed point for: " << sql;
}

INSTANTIATE_TEST_SUITE_P(
    Statements, DeparseRoundTrip,
    ::testing::Values(
        "SELECT 1",
        "SELECT a, b FROM t WHERE a = 1 AND b <> 'x'",
        "SELECT count(*) FROM t GROUP BY a HAVING count(*) > 1",
        "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON c.x = a.x",
        "SELECT sum(x) FROM (SELECT y AS x FROM u) AS sub",
        "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
        "SELECT a FROM t WHERE b IN (1, 2, 3) OR c IS NOT NULL",
        "SELECT a::text, CAST(b AS bigint) FROM t",
        "SELECT data->'payload'->>'size' FROM events",
        "SELECT * FROM t ORDER BY a DESC, b LIMIT 5 OFFSET 2",
        "SELECT * FROM t WHERE name ILIKE '%post%' FOR UPDATE",
        "INSERT INTO t (a, b) VALUES (1, 'x')",
        "INSERT INTO r SELECT a, count(*) FROM t GROUP BY a",
        "UPDATE t SET v = v + 1 WHERE k = 5",
        "DELETE FROM t WHERE k = 5",
        "CREATE TABLE t (a bigint, b text, PRIMARY KEY (a))",
        "CREATE INDEX i ON t (a, b)",
        "DROP TABLE IF EXISTS t",
        "TRUNCATE a, b",
        "COPY t (a, b) FROM STDIN",
        "BEGIN", "COMMIT", "ROLLBACK",
        "PREPARE TRANSACTION 'gid_1'",
        "COMMIT PREPARED 'gid_1'",
        "SET citus.txid = '9'",
        "CALL payment(1, 2)"));

TEST(Deparser, TableMapRewritesShardNames) {
  auto s = Parse("SELECT o.a FROM orders o JOIN items ON items.id = o.id");
  ASSERT_TRUE(s.ok());
  std::map<std::string, std::string> map = {{"orders", "orders_102008"},
                                            {"items", "items_102012"}};
  DeparseOptions opts;
  opts.table_map = &map;
  std::string text = DeparseStatement(*s, opts);
  EXPECT_NE(text.find("orders_102008"), std::string::npos);
  EXPECT_NE(text.find("items_102012 AS items"), std::string::npos);
}

TEST(Deparser, ParamSubstitution) {
  auto s = Parse("SELECT * FROM t WHERE k = $1 AND v > $2");
  ASSERT_TRUE(s.ok());
  std::vector<Datum> params = {Datum::Text("o'brien"), Datum::Int8(7)};
  DeparseOptions opts;
  opts.params = &params;
  std::string text = DeparseStatement(*s, opts);
  EXPECT_NE(text.find("'o''brien'"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
}

// ---- Eval ----

Datum EvalText(const std::string& expr_text,
               const std::vector<Datum>* params = nullptr) {
  auto e = ParseExpression(expr_text);
  EXPECT_TRUE(e.ok()) << expr_text << ": " << e.status().ToString();
  EvalContext ctx;
  ctx.params = params;
  auto v = Eval(**e, ctx);
  EXPECT_TRUE(v.ok()) << expr_text << ": " << v.status().ToString();
  return v.ok() ? *v : Datum::Null();
}

TEST(Eval, Arithmetic) {
  EXPECT_EQ(EvalText("1 + 2 * 3").int_value(), 7);
  EXPECT_EQ(EvalText("(1 + 2) * 3").int_value(), 9);
  EXPECT_EQ(EvalText("7 / 2").int_value(), 3);  // int division
  EXPECT_EQ(EvalText("7.0 / 2").float_value(), 3.5);
  EXPECT_EQ(EvalText("7 % 3").int_value(), 1);
  EXPECT_EQ(EvalText("-5 + 3").int_value(), -2);
}

TEST(Eval, ThreeValuedLogic) {
  EXPECT_TRUE(EvalText("NULL AND FALSE").type() == TypeId::kBool);
  EXPECT_FALSE(EvalText("NULL AND FALSE").bool_value());  // false
  EXPECT_TRUE(EvalText("NULL OR TRUE").bool_value());
  EXPECT_TRUE(EvalText("NULL OR FALSE").is_null());
  EXPECT_TRUE(EvalText("NULL AND TRUE").is_null());
  EXPECT_TRUE(EvalText("NOT NULL").is_null());
  EXPECT_TRUE(EvalText("1 = NULL").is_null());
}

TEST(Eval, Comparisons) {
  EXPECT_TRUE(EvalText("1 < 2").bool_value());
  EXPECT_TRUE(EvalText("'abc' < 'abd'").bool_value());
  EXPECT_TRUE(EvalText("2 BETWEEN 1 AND 3").bool_value());
  EXPECT_TRUE(EvalText("2 IN (1, 2, 3)").bool_value());
  EXPECT_FALSE(EvalText("5 IN (1, 2, 3)").bool_value());
  EXPECT_TRUE(EvalText("5 NOT IN (1, 2, 3)").bool_value());
  EXPECT_TRUE(EvalText("5 IN (1, NULL)").is_null());
  EXPECT_TRUE(EvalText("NULL IS NULL").bool_value());
  EXPECT_FALSE(EvalText("1 IS NULL").bool_value());
}

TEST(Eval, LikePatterns) {
  EXPECT_TRUE(LikeMatch("postgres", "post%", false));
  EXPECT_TRUE(LikeMatch("postgres", "%gres", false));
  EXPECT_TRUE(LikeMatch("postgres", "%stg%", false));
  EXPECT_TRUE(LikeMatch("postgres", "p_stgres", false));
  EXPECT_FALSE(LikeMatch("postgres", "P%", false));
  EXPECT_TRUE(LikeMatch("PostgreSQL rocks", "%postgres%", true));  // ILIKE
  EXPECT_TRUE(LikeMatch("", "%", false));
  EXPECT_FALSE(LikeMatch("", "_", false));
  EXPECT_TRUE(LikeMatch("abc", "abc", false));
  EXPECT_TRUE(LikeMatch("a%c", "a%c", false));
  EXPECT_TRUE(EvalText("'PostGres is fun' ILIKE '%postgres%'").bool_value());
}

TEST(Eval, StringFunctions) {
  EXPECT_EQ(EvalText("lower('ABC')").text_value(), "abc");
  EXPECT_EQ(EvalText("upper('abc')").text_value(), "ABC");
  EXPECT_EQ(EvalText("length('hello')").int_value(), 5);
  EXPECT_EQ(EvalText("'a' || 'b' || 'c'").text_value(), "abc");
  EXPECT_EQ(EvalText("substring('hello', 2, 3)").text_value(), "ell");
  EXPECT_EQ(EvalText("coalesce(NULL, NULL, 3)").int_value(), 3);
  EXPECT_EQ(EvalText("greatest(1, 5, 3)").int_value(), 5);
  EXPECT_EQ(EvalText("least(2, 5, 3)").int_value(), 2);
  EXPECT_EQ(EvalText("md5('x')").text_value().size(), 32u);
}

TEST(Eval, DateFunctions) {
  EXPECT_EQ(EvalText("DATE '2020-03-15' - INTERVAL '14' DAY").int_value(),
            CivilToDays(2020, 3, 1));
  EXPECT_EQ(EvalText("DATE '1995-01-01' + INTERVAL '3' MONTH").int_value(),
            CivilToDays(1995, 4, 1));
  EXPECT_EQ(EvalText("DATE '1994-01-01' + INTERVAL '1' YEAR").int_value(),
            CivilToDays(1995, 1, 1));
  EXPECT_EQ(EvalText("extract(year FROM DATE '2021-06-20')").int_value(), 2021);
  EXPECT_EQ(EvalText("extract(month FROM DATE '2021-06-20')").int_value(), 6);
  EXPECT_EQ(EvalText("DATE '2020-01-31' - DATE '2020-01-01'").int_value(), 30);
  EXPECT_EQ(EvalText("date_trunc('month', DATE '2021-06-20')").int_value(),
            CivilToDays(2021, 6, 1));
}

TEST(Eval, JsonExpressions) {
  auto j = Datum::FromText(TypeId::kJsonb,
      R"({"created_at": "2020-02-01T10:00:00Z",
          "payload": {"commits": [{"message": "fix postgres bug"},
                                   {"message": "other"}]}})");
  ASSERT_TRUE(j.ok());
  Row row = {*j};
  auto e = ParseExpression(
      "jsonb_array_length(data->'payload'->'commits')");
  ASSERT_TRUE(e.ok());
  // Bind "data" to slot 0 by hand.
  WalkExprMut(*e, [](Expr& x) {
    if (x.kind == ExprKind::kColumnRef) x.slot = 0;
  });
  EvalContext ctx;
  ctx.row = &row;
  EXPECT_EQ(Eval(**e, ctx)->int_value(), 2);

  auto e2 = ParseExpression("(data->>'created_at')::date");
  ASSERT_TRUE(e2.ok());
  WalkExprMut(*e2, [](Expr& x) {
    if (x.kind == ExprKind::kColumnRef) x.slot = 0;
  });
  EXPECT_EQ(Eval(**e2, ctx)->int_value(), CivilToDays(2020, 2, 1));

  auto e3 = ParseExpression(
      "jsonb_path_query_array(data, '$.payload.commits[*].message')::text "
      "ILIKE '%postgres%'");
  ASSERT_TRUE(e3.ok());
  WalkExprMut(*e3, [](Expr& x) {
    if (x.kind == ExprKind::kColumnRef) x.slot = 0;
  });
  EXPECT_TRUE(Eval(**e3, ctx)->bool_value());
}

TEST(Eval, Params) {
  std::vector<Datum> params = {Datum::Int8(10), Datum::Text("x")};
  EXPECT_EQ(EvalText("$1 * 2", &params).int_value(), 20);
  EXPECT_EQ(EvalText("$2 || '!'", &params).text_value(), "x!");
  auto e = ParseExpression("$3");
  ASSERT_TRUE(e.ok());
  EvalContext ctx;
  ctx.params = &params;
  EXPECT_FALSE(Eval(**e, ctx).ok());  // missing param
}

TEST(Eval, CaseEvaluation) {
  EXPECT_EQ(EvalText("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' END")
                .text_value(),
            "b");
  EXPECT_TRUE(EvalText("CASE WHEN FALSE THEN 1 END").is_null());
  EXPECT_EQ(EvalText("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END")
                .text_value(),
            "two");
}

TEST(Eval, DivisionByZero) {
  auto e = ParseExpression("1 / 0");
  ASSERT_TRUE(e.ok());
  EvalContext ctx;
  EXPECT_FALSE(Eval(**e, ctx).ok());
}

}  // namespace
}  // namespace citusx::sql
