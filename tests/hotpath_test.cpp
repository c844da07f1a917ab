// hotpath-alloc coverage: the rule fires on each allocation shape in its
// deliberately broken fixture and stays quiet on the clean twin, arena
// growth is exempt, regions end with their scope, and the `lint:allow`
// suppression grammar works. The fixtures live in tests/hotpath_fixtures/
// and are never compiled — they are data.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "hotpath.hpp"

namespace {

using lint::Finding;

std::string fixture(const std::string& name) {
  return std::string(HOTPATH_FIXTURE_DIR) + "/" + name;
}

/// (line, rule) pairs of the findings, in reporting order.
std::vector<std::pair<int, std::string>> lines_and_rules(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<int, std::string>> out;
  for (const Finding& f : findings) out.emplace_back(f.line, f.rule);
  return out;
}

using Golden = std::vector<std::pair<int, std::string>>;

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
