// lint::lexer — shared lexical front end for the static-analysis toolkit.
//
// Every analyzer in tools/lint (detlint, hotpath-alloc) is a
// lexical scanner: it reasons about token-level patterns, not a full AST.
// What they all need first is the same thing — the source text with comment
// and string/char-literal *contents* blanked out (newlines preserved so
// line numbers survive), plus the comments and string literals themselves,
// each tagged with its line. This library is that front end, factored out
// of detlint's original scrubber so the analyzers share one lexer and
// one set of corner-case fixes (raw strings, digit separators, escapes).
//
// It also hosts the pieces every analyzer CLI shares: the Finding record,
// text/JSON rendering, the source-tree walker, and the `lint:allow`
// suppression-directive parser used by hotpath-alloc
// (detlint keeps its historical `detlint:allow(...)` file-scoped syntax).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace lint {

// ---------------------------------------------------------------------------
// Findings and rendering (shared by every analyzer).
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// Stable report order within a file: (line, rule).
void sort_findings(std::vector<Finding>& findings);

/// `file:line: [rule] message`, one finding per line.
std::string to_text(const std::vector<Finding>& findings);

/// Machine-readable JSON: {"findings":[{file,line,rule,message},...]}.
std::string to_json(const std::vector<Finding>& findings);

// ---------------------------------------------------------------------------
// Lexing.
// ---------------------------------------------------------------------------

struct Comment {
  std::string text;  // contents, without the // or /* */ markers
  int line = 0;      // line the comment starts on
  int end_line = 0;  // line the comment ends on (== line unless block)
  bool own_line = false;  // no code preceded the comment on its first line
};

struct StringLit {
  std::string text;  // literal contents, escapes kept verbatim
  int line = 0;      // line the literal starts on
};

struct Lexed {
  /// Same-shape copy of the source: comment and string/char literal
  /// contents are blanked to spaces, newlines kept, so offsets map to the
  /// original line numbers and token-level regexes cannot match into text.
  std::string code;
  std::vector<Comment> comments;
  std::vector<StringLit> strings;
};

/// Lex one translation unit. Handles //, /* */, "...", R"(...)" (any
/// delimiter), char literals, escapes, and digit separators (1'000'000).
Lexed lex(const std::string& text);

// ---------------------------------------------------------------------------
// Suppression directives (hotpath-alloc).
//
//   // lint:allow(<rule>[: reason])          this line (or the next, when
//                                            the comment sits on its own)
//   // lint:allow(<rule>,<rule>,...)         several rules, no reason text
//   // lint:allow-file(<rule>[: reason])     whole file
//
// The rule name `all`, or an analyzer's umbrella name,
// suppresses every rule that analyzer owns.
// ---------------------------------------------------------------------------

struct Allows {
  std::set<std::string> file_rules;
  std::map<int, std::set<std::string>> line_rules;

  /// True if `rule` (or `umbrella`, or "all") is allowed at `line`.
  bool allowed(const std::string& rule, int line,
               const std::string& umbrella) const;
};

Allows parse_allows(const std::vector<Comment>& comments);

// ---------------------------------------------------------------------------
// Source discovery.
// ---------------------------------------------------------------------------

/// Read a whole file; throws std::runtime_error("<tool>: cannot read ...")
/// on failure, with `tool` naming the analyzer for the error message.
std::string read_file(const std::string& path, const std::string& tool);

/// Expand files and/or directories into a sorted, de-duplicated list of
/// C++ sources (.cpp/.cc/.cxx/.hpp/.hh/.h). Directories named `build*`,
/// starting with '.', or ending in `_fixtures` (deliberately-bad analyzer
/// fixtures) are skipped; fixture files passed explicitly are still
/// returned.
std::vector<std::string> collect_sources(const std::vector<std::string>& paths);

}  // namespace lint
