// wirecheck + hotpath-alloc coverage: every rule fires on its deliberately
// broken fixture at the expected (line, rule), stays quiet on the symmetric
// twin, one-way codecs are never reported, and the `lint:allow` suppression
// grammar works. The fixtures live in tests/wirecheck_fixtures/ and are
// never compiled — they are data.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "hotpath.hpp"
#include "wirecheck.hpp"

namespace {

using lint::Finding;

std::string fixture(const std::string& name) {
  return std::string(WIRECHECK_FIXTURE_DIR) + "/" + name;
}

/// (line, rule) pairs of the findings, in reporting order.
std::vector<std::pair<int, std::string>> lines_and_rules(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<int, std::string>> out;
  for (const Finding& f : findings) out.emplace_back(f.line, f.rule);
  return out;
}

using Golden = std::vector<std::pair<int, std::string>>;

struct FixtureCase {
  const char* file;
  Golden expected;
};

// The golden table: each defect class the issue names, plus the clean twin.
const std::vector<FixtureCase> kWirecheckCases = {
    {"reordered_field.cpp", {{11, "field-mismatch"}}},
    {"type_mismatch.cpp", {{10, "field-mismatch"}}},
    {"missing_switch_case.cpp",
     {{23, "switch-case"}, {23, "switch-coverage"}}},
    {"asymmetric_flag.cpp", {{16, "flag-mismatch"}}},
    {"count_mismatch.cpp", {{6, "field-mismatch"}}},
    {"symmetric_good.cpp", {}},
};

TEST(WirecheckFixtures, GoldenFindingsPerFixture) {
  for (const FixtureCase& c : kWirecheckCases) {
    const auto findings = wirecheck::analyze_paths({fixture(c.file)});
    EXPECT_EQ(lines_and_rules(findings), c.expected) << c.file;
  }
}

TEST(WirecheckFixtures, EveryRuleHasAFixtureThatFires) {
  std::set<std::string> fired;
  for (const FixtureCase& c : kWirecheckCases) {
    for (const auto& [line, rule] : c.expected) fired.insert(rule);
  }
  for (const std::string& rule : wirecheck::rule_ids()) {
    EXPECT_TRUE(fired.count(rule)) << "no fixture exercises rule " << rule;
  }
}

TEST(WirecheckFixtures, MessagesNameBothSidesOfThePair) {
  const auto findings =
      wirecheck::analyze_paths({fixture("reordered_field.cpp")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("encode_point (line 4)"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("decode_point (line 9)"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("writer writes u32 where reader reads "
                                     "u64"),
            std::string::npos)
      << findings[0].message;
}

TEST(WirecheckFixtures, CoverageNamesTheMissingEnumerator) {
  const auto findings =
      wirecheck::analyze_paths({fixture("missing_switch_case.cpp")});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[1].message.find("Shade::Blue"), std::string::npos)
      << findings[1].message;
  EXPECT_NE(findings[1].message.find("no default"), std::string::npos);
}

TEST(WirecheckFixtures, StatsCountPairsAndCheckedSwitches) {
  wirecheck::Stats stats;
  const auto findings =
      wirecheck::analyze_paths({fixture("symmetric_good.cpp")}, &stats);
  EXPECT_TRUE(findings.empty()) << lint::to_text(findings);
  // put_pair/get_pair, plus bare encode ↔ decode_record via the leftover
  // rule.
  EXPECT_EQ(stats.pairs, 2u);
  EXPECT_EQ(stats.files, 1u);

  stats = {};
  wirecheck::analyze_paths({fixture("missing_switch_case.cpp")}, &stats);
  EXPECT_EQ(stats.pairs, 1u);
  EXPECT_EQ(stats.switches, 2u);  // writer and reader switch both checkable
}

// ---------------------------------------------------------------------------
// Analyzer unit behaviour on inline sources.
// ---------------------------------------------------------------------------

TEST(WirecheckAnalyzer, OneWayCodecsAreNotReported) {
  // A writer with no reader (checkpoint dumps, log framing) is legitimate.
  const std::string one_way =
      "void encode_checkpoint(Writer& enc, const State& s) {\n"
      "  enc.put_ulong(s.epoch);\n"
      "  enc.put_string(s.blob);\n"
      "}\n";
  EXPECT_TRUE(wirecheck::analyze_source("t.cpp", one_way).empty());

  // Two writers and one bare reader (the GIOP shape: request and reply
  // framers share one demux decoder) must not leftover-pair either writer
  // with the reader.
  const std::string giop_shape =
      "void encode_request(Writer& enc, const Req& r) {\n"
      "  enc.put_ulong(r.id);\n"
      "  enc.put_string(r.op);\n"
      "}\n"
      "void encode_reply(Writer& enc, const Rep& r) {\n"
      "  enc.put_ulong(r.id);\n"
      "  enc.put_octet(r.status);\n"
      "}\n"
      "Msg decode(Decoder& dec) {\n"
      "  Msg m;\n"
      "  m.id = dec.get_ulong();\n"
      "  return m;\n"
      "}\n";
  EXPECT_TRUE(wirecheck::analyze_source("t.cpp", giop_shape).empty());
}

TEST(WirecheckAnalyzer, GuardReadInsideConditionStaysSymmetric) {
  // Writer: put flag byte, then guarded group. Reader: consume the flag
  // byte inside the if-condition. Both sides flatten to u8 then a
  // conditional group — the idiom must compare clean.
  const std::string src =
      "void put_frame(Writer& enc, const F& f) {\n"
      "  enc.put_boolean(f.traced);\n"
      "  if (f.traced) {\n"
      "    enc.put_ulonglong(f.trace_id);\n"
      "  }\n"
      "}\n"
      "F get_frame(Decoder& dec) {\n"
      "  F f;\n"
      "  if (dec.get_boolean()) {\n"
      "    f.trace_id = dec.get_ulonglong();\n"
      "  }\n"
      "  return f;\n"
      "}\n";
  EXPECT_TRUE(wirecheck::analyze_source("t.cpp", src).empty())
      << lint::to_text(wirecheck::analyze_source("t.cpp", src));
}

TEST(WirecheckAnalyzer, LineSuppressionAndUmbrella) {
  const std::string base =
      "void put_x(Writer& e, const X& x) {\n"
      "  e.put_ulong(x.a);\n"
      "}\n"
      "X get_x(Decoder& d) {\n"
      "  X x;\n"
      "  {ALLOW}\n"
      "  x.a = d.get_ulonglong();\n"
      "  return x;\n"
      "}\n";
  auto with = [&](const std::string& allow) {
    std::string s = base;
    return s.replace(s.find("{ALLOW}"), 7, allow);
  };
  // Unsuppressed: one field-mismatch at the reader line.
  const auto raw = wirecheck::analyze_source("t.cpp", with("// drift"));
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].rule, "field-mismatch");
  EXPECT_EQ(raw[0].line, 7);
  // Per-rule allow with a reason, on the line above.
  EXPECT_TRUE(wirecheck::analyze_source(
                  "t.cpp",
                  with("// lint:allow(field-mismatch: v1 peers send u32)"))
                  .empty());
  // Umbrella rule name suppresses every wirecheck rule.
  EXPECT_TRUE(
      wirecheck::analyze_source("t.cpp", with("// lint:allow(wirecheck)"))
          .empty());
  // A different rule's allow does not.
  EXPECT_EQ(wirecheck::analyze_source(
                "t.cpp", with("// lint:allow(flag-mismatch)"))
                .size(),
            1u);
}

TEST(WirecheckAnalyzer, FileSuppression) {
  const std::string src =
      "// lint:allow-file(wirecheck) — fixture: primitive layer, verified "
      "by round-trip tests\n"
      "void put_x(Writer& e, const X& x) { e.put_ulong(x.a); }\n"
      "X get_x(Decoder& d) { X x; x.a = d.get_ulonglong(); return x; }\n";
  EXPECT_TRUE(wirecheck::analyze_source("t.cpp", src).empty());
}

TEST(WirecheckAnalyzer, SwitchCoverageSkipsDefaultAndAmbiguousEnums) {
  // A default arm makes any switch exhaustive.
  const std::string with_default =
      "enum class K2 { A, B };\n"
      "int g(K2 k) {\n"
      "  switch (k) {\n"
      "    case K2::A: return 1;\n"
      "    default: return 0;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(wirecheck::analyze_source("t.cpp", with_default).empty());

  // Two visible enums named Kind, both containing the used labels: the
  // checker must skip rather than guess which one the switch is over.
  const std::string ambiguous =
      "enum class Kind { A, B, C };\n"
      "namespace other {\n"
      "enum class Kind { A, B };\n"
      "}\n"
      "int f(Kind k) {\n"
      "  switch (k) {\n"
      "    case Kind::A: return 1;\n"
      "    case Kind::B: return 2;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  EXPECT_TRUE(wirecheck::analyze_source("t.cpp", ambiguous).empty());
}

TEST(WirecheckAnalyzer, CoverageAppliesToUnpairedSwitches) {
  // The MsgKind exhaustiveness gate runs on every switch, not only inside
  // paired codecs — dispatch helpers are where missing kinds actually hide.
  const std::string src =
      "enum class MsgKind { Data, Token };\n"
      "void dispatch(MsgKind k) {\n"
      "  switch (k) {\n"
      "    case MsgKind::Data: on_data(); break;\n"
      "  }\n"
      "}\n";
  const auto findings = wirecheck::analyze_source("t.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "switch-coverage");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("MsgKind::Token"), std::string::npos);
}

TEST(WirecheckAnalyzer, JsonOutputIsMachineReadable) {
  const auto findings =
      wirecheck::analyze_paths({fixture("reordered_field.cpp")});
  const std::string json = lint::to_json(findings);
  EXPECT_NE(json.find("\"rule\":\"field-mismatch\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":11"), std::string::npos);
  EXPECT_TRUE(lint::to_json({}).find("{\"findings\":[]}") == 0);
}

// ---------------------------------------------------------------------------
// hotpath-alloc.
// ---------------------------------------------------------------------------

TEST(HotpathFixtures, BadRegionFlagsEachAllocationShape) {
  hotpath::Stats stats;
  const auto findings =
      hotpath::analyze_paths({fixture("hotpath_bad.cpp")}, &stats);
  // new, push_back, std::string temp; reserve is sanctioned and the
  // insert on line 10 carries a lint:allow.
  const Golden expected = {
      {5, "hotpath-alloc"}, {6, "hotpath-alloc"}, {7, "hotpath-alloc"}};
  EXPECT_EQ(lines_and_rules(findings), expected);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].message.find("frame arena"), std::string::npos);
  EXPECT_EQ(stats.regions, 1u);
}

TEST(HotpathAnalyzer, ArenaWriterGrowthIsExempt) {
  // Growth routed through the frame arena is sanctioned without an allow:
  // Writer declarations, arena() handles, and seal() calls never fire, even
  // on lines that also match an allocation pattern.
  const std::string src =
      "void f(Ctx& c) {\n"
      "  // lint: hotpath\n"
      "  cdr::Writer w(c.arena(), 64);\n"
      "  c.frames.push_back(w.seal());\n"
      "  c.log.push_back(1);\n"
      "}\n";
  const auto findings = hotpath::analyze_source("t.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5);
}

TEST(HotpathFixtures, CleanRegionAndEndpath) {
  hotpath::Stats stats;
  const auto findings =
      hotpath::analyze_paths({fixture("hotpath_good.cpp")}, &stats);
  EXPECT_TRUE(findings.empty()) << lint::to_text(findings);
  EXPECT_EQ(stats.regions, 1u);
}

TEST(HotpathAnalyzer, RegionEndsWithEnclosingScope) {
  const std::string src =
      "void f(V& a, V& b, bool x) {\n"
      "  if (x) {\n"
      "    // lint: hotpath\n"
      "    a.push_back(1);\n"
      "  }\n"
      "  b.push_back(2);\n"
      "}\n";
  const auto findings = hotpath::analyze_source("t.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(HotpathAnalyzer, FileSuppressionAndNoMarkersMeansClean) {
  const std::string no_marker =
      "void f(V& a) {\n"
      "  a.push_back(1);\n"
      "}\n";
  EXPECT_TRUE(hotpath::analyze_source("t.cpp", no_marker).empty());

  const std::string allowed_file =
      "// lint:allow-file(hotpath-alloc)\n"
      "void f(V& a) {\n"
      "  // lint: hotpath\n"
      "  a.push_back(1);\n"
      "}\n";
  EXPECT_TRUE(hotpath::analyze_source("t.cpp", allowed_file).empty());
}

}  // namespace
