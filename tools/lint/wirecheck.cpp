#include "wirecheck.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>

namespace wirecheck {

namespace {

const std::vector<std::string> kRules = {
    "field-mismatch",
    "flag-mismatch",
    "switch-case",
    "switch-coverage",
};

constexpr const char* kUmbrella = "wirecheck";

// ---------------------------------------------------------------------------
// Operation trees.
//
// A codec body is modelled as the ordered sequence of CDR operations it
// performs: primitives (put_ulong/get_ulong → u32, ...), calls to named
// sub-codecs (put_ring/get_ring → "ring"), flag-guarded groups (if),
// repeated groups (for/while), and kind dispatch (switch). Expressions the
// lexer cannot see through (raw byte moves, alignment) are skipped — they
// carry no independent field structure.
// ---------------------------------------------------------------------------

struct Op {
  enum class K { Prim, Call, Cond, Loop, Switch };
  K k = K::Prim;
  std::string tag;  // Prim: wire type; Call: stem; Cond: flag constants
  int line = 0;
  std::vector<Op> children;  // Cond then-branch, Loop body
  std::vector<Op> orelse;    // Cond else-branch
  std::vector<std::pair<std::string, std::vector<Op>>> cases;  // Switch
  bool has_default = false;                                    // Switch
};

using Ops = std::vector<Op>;

// Primitive names folded to their wire layout, so e.g. put_long/get_ulong
// (same width, same alignment, sign handled by the caller) stay symmetric
// while put_ulong/get_ulonglong (width drift) do not.
const std::map<std::string, std::string>& prim_types() {
  static const std::map<std::string, std::string> types = {
      {"put_octet", "u8"},       {"get_octet", "u8"},
      {"put_char", "u8"},        {"get_char", "u8"},
      {"put_boolean", "u8"},     {"get_boolean", "u8"},
      {"put_ushort", "u16"},     {"get_ushort", "u16"},
      {"put_short", "u16"},      {"get_short", "u16"},
      {"put_ulong", "u32"},      {"get_ulong", "u32"},
      {"put_long", "u32"},       {"get_long", "u32"},
      {"put_ulonglong", "u64"},  {"get_ulonglong", "u64"},
      {"put_longlong", "u64"},   {"get_longlong", "u64"},
      {"put_float", "f32"},      {"get_float", "f32"},
      {"put_double", "f64"},     {"get_double", "f64"},
      {"put_string", "str"},     {"get_string", "str"},
      {"get_string_view", "str"},  // borrowed read of the same layout
      {"put_octet_seq", "bytes"},{"get_octet_seq", "bytes"},
      {"get_octet_seq_buf", "bytes"},  // zero-copy read of the same layout
      {"get_encapsulation", "encap"},
      // Writer's backpatched length field, in-place octet sequence and
      // in-place encapsulation open: a u32 slot, a sequence<octet> whose
      // content follows, and the endian flag byte. patch_ulong and the
      // end_* calls write no new fields and are ignored by the naming
      // rules.
      {"reserve_ulong", "u32"},
      {"begin_octet_seq", "bytes"},
      {"begin_encapsulation", "u8"},
  };
  return types;
}

// Calls that move bytes without independent field structure.
const std::set<std::string>& ignored_calls() {
  static const std::set<std::string> ignored = {
      "put_raw",     "get_raw",      "put_aligned", "get_aligned",
      "get_view",    "get_raw_buf",  "get_subrange"};
  return ignored;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool is_writer_name(const std::string& name) {
  return name.rfind("put_", 0) == 0 || name == "encode" ||
         name.rfind("encode_", 0) == 0;
}
bool is_reader_name(const std::string& name) {
  return name.rfind("get_", 0) == 0 || name == "decode" ||
         name.rfind("decode_", 0) == 0;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return s;
}

/// put_ring/get_ring → "ring"; encode_data_into/decode_data_from → "data";
/// Type::encode/Type::decode → lowercased type name; bare encode/decode
/// without a qualifier → "".
std::string stem_of(const std::string& name, const std::string& qual) {
  if (name == "encode" || name == "decode") return lower(qual);
  std::string rest = name;
  for (const char* prefix : {"put_", "get_", "encode_", "decode_"}) {
    const std::size_t n = std::string(prefix).size();
    if (rest.rfind(prefix, 0) == 0) {
      rest = rest.substr(n);
      break;
    }
  }
  for (const char* suffix : {"_into", "_from", "_payload"}) {
    const std::string suf(suffix);
    if (rest.size() > suf.size() &&
        rest.compare(rest.size() - suf.size(), suf.size(), suf) == 0) {
      rest = rest.substr(0, rest.size() - suf.size());
    }
  }
  return lower(rest);
}

// ---------------------------------------------------------------------------
// Parsing helpers over scrubbed code.
// ---------------------------------------------------------------------------

std::vector<int> build_line_table(const std::string& code) {
  std::vector<int> lines(code.size() + 1, 1);
  int line = 1;
  for (std::size_t i = 0; i < code.size(); ++i) {
    lines[i] = line;
    if (code[i] == '\n') ++line;
  }
  lines[code.size()] = line;
  return lines;
}

std::size_t skip_ws(const std::string& code, std::size_t i, std::size_t e) {
  while (i < e && std::isspace(static_cast<unsigned char>(code[i]))) ++i;
  return i;
}

std::string word_at(const std::string& code, std::size_t i, std::size_t e) {
  std::string w;
  while (i < e && is_ident(code[i])) w.push_back(code[i++]);
  return w;
}

/// Matching close for the bracket at `i` ('(' or '{'); npos on imbalance.
/// Valid code keeps the other bracket kinds balanced in between, so one
/// counter suffices.
std::size_t match_bracket(const std::string& code, std::size_t i,
                          std::size_t e) {
  const char open = code[i];
  const char close = open == '(' ? ')' : '}';
  int depth = 0;
  for (std::size_t j = i; j < e; ++j) {
    if (code[j] == open) ++depth;
    if (code[j] == close && --depth == 0) return j;
  }
  return std::string::npos;
}

/// End of the plain statement starting at `i`: the ';' at bracket depth 0
/// (lambda bodies, braced initializers, and argument lists are skipped).
std::size_t stmt_end(const std::string& code, std::size_t i, std::size_t e) {
  int paren = 0, brace = 0, bracket = 0;
  for (std::size_t j = i; j < e; ++j) {
    switch (code[j]) {
      case '(': ++paren; break;
      case ')': --paren; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      case ';':
        if (paren == 0 && brace == 0 && bracket == 0) return j;
        break;
    }
  }
  return e;
}

/// Flag constants referenced by a condition (kFlagTraced, kMagic, ...),
/// sorted and joined — the Cond tag compared across writer/reader.
std::string flag_tag(const std::string& code, std::size_t b, std::size_t e) {
  std::set<std::string> ks;
  std::size_t i = b;
  while (i < e) {
    if (is_ident_start(code[i]) && (i == b || !is_ident(code[i - 1]))) {
      const std::string w = word_at(code, i, e);
      if (w.size() >= 2 && w[0] == 'k' &&
          std::isupper(static_cast<unsigned char>(w[1]))) {
        ks.insert(w);
      }
      i += w.size();
    } else {
      ++i;
    }
  }
  std::string out;
  for (const std::string& k : ks) {
    if (!out.empty()) out += "&";
    out += k;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Body parser: statements → operation tree.
// ---------------------------------------------------------------------------

class BodyParser {
 public:
  BodyParser(const std::string& code, const std::vector<int>& lines)
      : code_(code), lines_(lines) {}

  Ops parse(std::size_t b, std::size_t e) {
    Ops out;
    parse_stmts(b, e, out);
    return out;
  }

 private:
  const std::string& code_;
  const std::vector<int>& lines_;

  void parse_stmts(std::size_t b, std::size_t e, Ops& out) {
    std::size_t i = b;
    while (i < e) {
      i = skip_ws(code_, i, e);
      if (i >= e) break;
      const char c = code_[i];
      if (c == '{') {
        const std::size_t j = match_bracket(code_, i, e);
        if (j == std::string::npos) return;
        parse_stmts(i + 1, j, out);
        i = j + 1;
        continue;
      }
      if (c == ';' || c == '}') {
        ++i;
        continue;
      }
      const std::string w = word_at(code_, i, e);
      if (w == "if") {
        i = parse_if(i, e, out);
      } else if (w == "for" || w == "while") {
        i = parse_loop(i, e, out);
      } else if (w == "do") {
        i = parse_do(i, e, out);
      } else if (w == "switch") {
        i = parse_switch(i, e, out);
      } else if (w == "else") {
        i += w.size();  // dangling else — branch parsed by caller
      } else {
        const std::size_t j = stmt_end(code_, i, e);
        extract_ops(i, j, out);
        i = j + 1;
      }
    }
  }

  /// One controlled branch: `{...}` block or a single (possibly nested
  /// control) statement. Returns the position after the branch.
  std::size_t parse_branch(std::size_t i, std::size_t e, Ops& out) {
    i = skip_ws(code_, i, e);
    if (i >= e) return e;
    if (code_[i] == '{') {
      const std::size_t j = match_bracket(code_, i, e);
      if (j == std::string::npos) return e;
      parse_stmts(i + 1, j, out);
      return j + 1;
    }
    const std::string w = word_at(code_, i, e);
    if (w == "if") return parse_if(i, e, out);
    if (w == "for" || w == "while") return parse_loop(i, e, out);
    if (w == "do") return parse_do(i, e, out);
    if (w == "switch") return parse_switch(i, e, out);
    const std::size_t j = stmt_end(code_, i, e);
    extract_ops(i, j, out);
    return j + 1;
  }

  std::size_t parse_if(std::size_t i, std::size_t e, Ops& out) {
    i = skip_ws(code_, i + 2, e);  // past "if"
    if (word_at(code_, i, e) == "constexpr") {
      i = skip_ws(code_, i + 9, e);
    }
    if (i >= e || code_[i] != '(') return i;
    const std::size_t close = match_bracket(code_, i, e);
    if (close == std::string::npos) return e;
    // Operations inside the condition execute unconditionally, before the
    // guarded group: `if (dec.get_boolean()) { ... }` reads its flag byte
    // exactly where the writer's `put_boolean(traced); if (traced)` wrote
    // it.
    extract_ops(i + 1, close, out);
    Op node;
    node.k = Op::K::Cond;
    node.tag = flag_tag(code_, i + 1, close);
    node.line = lines_[i];
    std::size_t next = parse_branch(close + 1, e, node.children);
    const std::size_t after = skip_ws(code_, next, e);
    if (word_at(code_, after, e) == "else") {
      next = parse_branch(after + 4, e, node.orelse);
    }
    if (!node.children.empty() || !node.orelse.empty()) {
      out.push_back(std::move(node));
    }
    return next;
  }

  std::size_t parse_loop(std::size_t i, std::size_t e, Ops& out) {
    while (i < e && is_ident(code_[i])) ++i;  // past for/while
    i = skip_ws(code_, i, e);
    if (i >= e || code_[i] != '(') return i;
    const std::size_t close = match_bracket(code_, i, e);
    if (close == std::string::npos) return e;
    extract_ops(i + 1, close, out);
    Op node;
    node.k = Op::K::Loop;
    node.line = lines_[i];
    const std::size_t next = parse_branch(close + 1, e, node.children);
    if (!node.children.empty()) out.push_back(std::move(node));
    return next;
  }

  std::size_t parse_do(std::size_t i, std::size_t e, Ops& out) {
    Op node;
    node.k = Op::K::Loop;
    node.line = lines_[i];
    std::size_t next = parse_branch(i + 2, e, node.children);
    next = skip_ws(code_, next, e);
    if (word_at(code_, next, e) == "while") {
      next = skip_ws(code_, next + 5, e);
      if (next < e && code_[next] == '(') {
        const std::size_t close = match_bracket(code_, next, e);
        if (close != std::string::npos) {
          extract_ops(next + 1, close, node.children);
          next = close + 1;
        }
      }
    }
    if (!node.children.empty()) out.push_back(std::move(node));
    const std::size_t semi = stmt_end(code_, next, e);
    return semi == e ? e : semi + 1;
  }

  std::size_t parse_switch(std::size_t i, std::size_t e, Ops& out) {
    i = skip_ws(code_, i + 6, e);  // past "switch"
    if (i >= e || code_[i] != '(') return i;
    const std::size_t close = match_bracket(code_, i, e);
    if (close == std::string::npos) return e;
    extract_ops(i + 1, close, out);  // e.g. switch (dec.get_octet())
    std::size_t b = skip_ws(code_, close + 1, e);
    if (b >= e || code_[b] != '{') return b;
    const std::size_t body_end = match_bracket(code_, b, e);
    if (body_end == std::string::npos) return e;

    Op node;
    node.k = Op::K::Switch;
    node.line = lines_[i];
    std::string label;
    bool in_segment = false;
    std::size_t seg_start = b + 1;
    auto flush = [&](std::size_t seg_end) {
      if (!in_segment) {
        // Preamble before the first label: executes never (C++) — drop.
        return;
      }
      Ops seg;
      parse_stmts(seg_start, seg_end, seg);
      node.cases.emplace_back(label, std::move(seg));
    };
    int paren = 0, brace = 0, bracket = 0;
    std::size_t j = b + 1;
    while (j < body_end) {
      const char c = code_[j];
      if (c == '(') ++paren;
      else if (c == ')') --paren;
      else if (c == '{') ++brace;
      else if (c == '}') --brace;
      else if (c == '[') ++bracket;
      else if (c == ']') --bracket;
      else if (paren == 0 && brace == 0 && bracket == 0 &&
               is_ident_start(c) && !is_ident(code_[j - 1])) {
        const std::string w = word_at(code_, j, body_end);
        if (w == "case") {
          flush(j);
          std::size_t k = j + 4;
          // The label's ':' — skip past any '::' scope separators.
          while (k < body_end &&
                 !(code_[k] == ':' &&
                   (k + 1 >= body_end || code_[k + 1] != ':') &&
                   code_[k - 1] != ':')) {
            ++k;
          }
          std::string lbl = code_.substr(j + 4, k - j - 4);
          const auto wb = lbl.find_first_not_of(" \t\n");
          const auto we = lbl.find_last_not_of(" \t\n");
          label = wb == std::string::npos ? ""
                                          : lbl.substr(wb, we - wb + 1);
          in_segment = true;
          seg_start = k + 1;
          j = k + 1;
          continue;
        }
        if (w == "default") {
          const std::size_t k = skip_ws(code_, j + 7, body_end);
          if (k < body_end && code_[k] == ':') {
            flush(j);
            node.has_default = true;
            label = "default";
            in_segment = true;
            seg_start = k + 1;
            j = k + 1;
            continue;
          }
        }
        j += w.size();
        continue;
      }
      ++j;
    }
    flush(body_end);
    out.push_back(std::move(node));
    return body_end + 1;
  }

  /// Lexical op extraction from a flat span: every `name(` where `name` is
  /// a CDR primitive or a codec-named helper.
  void extract_ops(std::size_t b, std::size_t e, Ops& out) {
    std::size_t i = b;
    while (i < e) {
      if (!is_ident_start(code_[i]) || (i > b && is_ident(code_[i - 1]))) {
        ++i;
        continue;
      }
      const std::string w = word_at(code_, i, e);
      const std::size_t after = skip_ws(code_, i + w.size(), e);
      if (after >= e || code_[after] != '(') {
        i += w.size();
        continue;
      }
      const auto prim = prim_types().find(w);
      if (prim != prim_types().end()) {
        Op op;
        op.k = Op::K::Prim;
        op.tag = prim->second;
        op.line = lines_[i];
        out.push_back(std::move(op));
      } else if (ignored_calls().count(w) == 0 &&
                 (is_writer_name(w) || is_reader_name(w))) {
        std::string qual;
        if (w == "encode" || w == "decode") {
          // Qualified bare call (Type::encode(...)): recover the qualifier
          // so the call stem matches the member definition's stem.
          std::size_t q = i;
          if (q >= 2 + b && code_[q - 1] == ':' && code_[q - 2] == ':') {
            std::size_t qe = q - 2;
            std::size_t qb = qe;
            while (qb > b && is_ident(code_[qb - 1])) --qb;
            qual = code_.substr(qb, qe - qb);
          }
        }
        Op op;
        op.k = Op::K::Call;
        op.tag = stem_of(w, qual);
        op.line = lines_[i];
        out.push_back(std::move(op));
      }
      i += w.size();
    }
  }
};

// ---------------------------------------------------------------------------
// Function-definition discovery.
// ---------------------------------------------------------------------------

struct FuncDef {
  std::string name;  // last component (encode_data_into, put_ring, ...)
  std::string qual;  // enclosing qualifier if member (FlightRecorder)
  std::string stem;
  bool writer = false;
  int line = 0;
  Ops ops;
};

bool codec_name(const std::string& last) {
  return is_writer_name(last) || is_reader_name(last);
}

std::vector<FuncDef> scan_defs(const std::string& code,
                               const std::vector<int>& lines) {
  std::vector<FuncDef> defs;
  BodyParser parser(code, lines);
  const std::size_t n = code.size();
  std::size_t i = 0;
  while (i < n) {
    if (!is_ident_start(code[i]) || (i > 0 && is_ident(code[i - 1]))) {
      ++i;
      continue;
    }
    // Read the full qualified chain a::b::name.
    std::vector<std::string> chain;
    std::size_t j = i;
    for (;;) {
      const std::string w = word_at(code, j, n);
      if (w.empty()) break;
      chain.push_back(w);
      j += w.size();
      if (j + 1 < n && code[j] == ':' && code[j + 1] == ':' &&
          j + 2 < n && is_ident_start(code[j + 2])) {
        j += 2;
      } else {
        break;
      }
    }
    if (chain.empty()) {
      ++i;
      continue;
    }
    const std::string& last = chain.back();
    if (!codec_name(last)) {
      i = j;
      continue;
    }
    // Member access (x.get_string(...)) is a call, not a definition.
    std::size_t p = i;
    while (p > 0 &&
           std::isspace(static_cast<unsigned char>(code[p - 1]))) {
      --p;
    }
    if (p > 0 && (code[p - 1] == '.' ||
                  (code[p - 1] == '>' && p > 1 && code[p - 2] == '-'))) {
      i = j;
      continue;
    }
    std::size_t k = skip_ws(code, j, n);
    if (k >= n || code[k] != '(') {
      i = j;
      continue;
    }
    const std::size_t close = match_bracket(code, k, n);
    if (close == std::string::npos) {
      i = j;
      continue;
    }
    // Definition if (only) cv/ref-qualifier-ish words separate the
    // parameter list from the body brace.
    std::size_t m = skip_ws(code, close + 1, n);
    for (;;) {
      const std::string w = word_at(code, m, n);
      if (w == "const" || w == "noexcept" || w == "override" ||
          w == "final" || w == "mutable") {
        m = skip_ws(code, m + w.size(), n);
      } else {
        break;
      }
    }
    if (m >= n || code[m] != '{') {
      i = j;
      continue;
    }
    const std::size_t body_end = match_bracket(code, m, n);
    if (body_end == std::string::npos) {
      i = j;
      continue;
    }
    FuncDef def;
    def.name = last;
    def.qual = chain.size() > 1 ? chain[chain.size() - 2] : "";
    def.stem = stem_of(last, def.qual);
    def.writer = is_writer_name(last);
    def.line = lines[i];
    def.ops = parser.parse(m + 1, body_end);
    defs.push_back(std::move(def));
    i = body_end + 1;
  }
  return defs;
}

// ---------------------------------------------------------------------------
// Pairing.
// ---------------------------------------------------------------------------

struct Pair {
  const FuncDef* writer;
  const FuncDef* reader;
};

std::vector<Pair> pair_defs(const std::vector<FuncDef>& defs) {
  std::vector<Pair> pairs;
  std::vector<const FuncDef*> unpaired_writers, unpaired_readers;
  // Group by stem, preserving appearance order.
  std::vector<std::string> stems;
  std::map<std::string, std::vector<const FuncDef*>> writers, readers;
  for (const FuncDef& d : defs) {
    auto& bucket = d.writer ? writers[d.stem] : readers[d.stem];
    bucket.push_back(&d);
    if (std::find(stems.begin(), stems.end(), d.stem) == stems.end()) {
      stems.push_back(d.stem);
    }
  }
  for (const std::string& s : stems) {
    auto& w = writers[s];
    auto& r = readers[s];
    const std::size_t n = std::min(w.size(), r.size());
    for (std::size_t i = 0; i < n; ++i) pairs.push_back({w[i], r[i]});
    for (std::size_t i = n; i < w.size(); ++i) unpaired_writers.push_back(w[i]);
    for (std::size_t i = n; i < r.size(); ++i) unpaired_readers.push_back(r[i]);
  }
  // Last resort: a file whose single remaining writer or reader is the
  // bare `encode`/`decode` pairs with the single remaining other side
  // (encode(Packet) ↔ decode_packet). Anything looser would false-pair
  // one-way formats, so everything else stays unpaired and unreported.
  if (unpaired_writers.size() == 1 && unpaired_readers.size() == 1 &&
      (unpaired_writers[0]->name == "encode" ||
       unpaired_readers[0]->name == "decode")) {
    pairs.push_back({unpaired_writers[0], unpaired_readers[0]});
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

std::string describe(const Op& op) {
  switch (op.k) {
    case Op::K::Prim: return op.tag;
    case Op::K::Call: return "'" + op.tag + "' sub-codec";
    case Op::K::Cond:
      return op.tag.empty() ? "conditional group"
                            : "conditional group [" + op.tag + "]";
    case Op::K::Loop: return "repeated group";
    case Op::K::Switch: return "switch dispatch";
  }
  return "?";
}

struct CompareCtx {
  std::string file;
  const FuncDef* writer;
  const FuncDef* reader;
  std::vector<lint::Finding>* findings;
  bool stop = false;

  void emit(const std::string& rule, int line, const std::string& what) {
    findings->push_back(
        {file, line, rule,
         writer->name + " (line " + std::to_string(writer->line) + ") vs " +
             reader->name + " (line " + std::to_string(reader->line) +
             "): " + what});
    stop = true;
  }
};

int anchor_line(const Op* w, const Op* r) {
  if (r && r->line) return r->line;
  return w ? w->line : 0;
}

void compare_lists(CompareCtx& ctx, const Ops& a, const Ops& b);

void compare_ops(CompareCtx& ctx, const Op& w, const Op& r) {
  if (ctx.stop) return;
  if (w.k != r.k) {
    const std::string rule =
        (w.k == Op::K::Cond || r.k == Op::K::Cond) ? "flag-mismatch"
                                                   : "field-mismatch";
    ctx.emit(rule, anchor_line(&w, &r),
             "writer has " + describe(w) + " where reader has " + describe(r));
    return;
  }
  switch (w.k) {
    case Op::K::Prim:
      if (w.tag != r.tag) {
        ctx.emit("field-mismatch", anchor_line(&w, &r),
                 "writer writes " + w.tag + " where reader reads " + r.tag);
      }
      break;
    case Op::K::Call:
      if (w.tag != r.tag) {
        ctx.emit("field-mismatch", anchor_line(&w, &r),
                 "writer invokes " + describe(w) + " where reader invokes " +
                     describe(r));
      }
      break;
    case Op::K::Cond:
      if (w.tag != r.tag) {
        ctx.emit("flag-mismatch", anchor_line(&w, &r),
                 "conditional group guarded by [" + w.tag +
                     "] in writer but [" + r.tag + "] in reader");
        return;
      }
      compare_lists(ctx, w.children, r.children);
      compare_lists(ctx, w.orelse, r.orelse);
      break;
    case Op::K::Loop:
      compare_lists(ctx, w.children, r.children);
      break;
    case Op::K::Switch: {
      auto find_case = [](const Op& op, const std::string& label)
          -> const Ops* {
        for (const auto& [l, ops] : op.cases) {
          if (l == label) return &ops;
        }
        return nullptr;
      };
      // Label diffs are all reported (independent defects); the first
      // structural mismatch inside a common label still stops the pair.
      for (const auto& [label, ops] : w.cases) {
        if (label == "default") continue;
        if (!find_case(r, label)) {
          ctx.findings->push_back(
              {ctx.file, r.line ? r.line : w.line, "switch-case",
               ctx.writer->name + " handles case " + label + " but " +
                   ctx.reader->name + " does not"});
        }
      }
      for (const auto& [label, ops] : r.cases) {
        if (label == "default") continue;
        if (!find_case(w, label)) {
          ctx.findings->push_back(
              {ctx.file, r.line, "switch-case",
               ctx.reader->name + " handles case " + label + " but " +
                   ctx.writer->name + " does not"});
        }
      }
      for (const auto& [label, ops] : w.cases) {
        if (ctx.stop) break;
        const Ops* rc = find_case(r, label);
        if (rc) compare_lists(ctx, ops, *rc);
      }
      break;
    }
  }
}

void compare_lists(CompareCtx& ctx, const Ops& a, const Ops& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ctx.stop) return;
    compare_ops(ctx, a[i], b[i]);
  }
  if (ctx.stop || a.size() == b.size()) return;
  const Op* extra = a.size() > b.size() ? &a[n] : &b[n];
  ctx.emit("field-mismatch", extra->line,
           "writer has " + std::to_string(a.size()) +
               " operation(s) where reader has " + std::to_string(b.size()) +
               " (first unmatched: " + describe(*extra) + ")");
}

// ---------------------------------------------------------------------------
// Enum collection and standalone switch coverage.
// ---------------------------------------------------------------------------

using EnumMap = std::map<std::string, std::vector<std::set<std::string>>>;

void collect_enums(const std::string& code, EnumMap& out) {
  static const std::regex enum_re(
      R"(\benum\s+(?:class\s+|struct\s+)?(\w+)\s*(?::[^({;]*)?\{)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), enum_re);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    const std::size_t open =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    const std::size_t close = match_bracket(code, open, code.size());
    if (close == std::string::npos) continue;
    std::set<std::string> enumerators;
    std::size_t seg = open + 1;
    int depth = 0;
    for (std::size_t j = open + 1; j <= close; ++j) {
      const char c = code[j];
      if (c == '(' || c == '{') ++depth;
      if (c == ')' || c == '}') --depth;
      if ((c == ',' && depth == 0) || j == close) {
        const std::size_t b = skip_ws(code, seg, j);
        const std::string w = word_at(code, b, j);
        if (!w.empty()) enumerators.insert(w);
        seg = j + 1;
      }
    }
    if (!enumerators.empty()) {
      auto& variants = out[name];
      if (std::find(variants.begin(), variants.end(), enumerators) ==
          variants.end()) {
        variants.push_back(std::move(enumerators));
      }
    }
  }
}

struct SwitchInfo {
  int line = 0;
  std::vector<std::string> labels;
  bool has_default = false;
};

std::vector<SwitchInfo> scan_switches(const std::string& code,
                                      const std::vector<int>& lines) {
  std::vector<SwitchInfo> out;
  const std::size_t n = code.size();
  std::size_t i = 0;
  while (i + 6 < n) {
    if (!(is_ident_start(code[i]) && (i == 0 || !is_ident(code[i - 1])))) {
      ++i;
      continue;
    }
    const std::string w = word_at(code, i, n);
    if (w != "switch") {
      i += w.size();
      continue;
    }
    std::size_t p = skip_ws(code, i + 6, n);
    if (p >= n || code[p] != '(') {
      i += w.size();
      continue;
    }
    const std::size_t close = match_bracket(code, p, n);
    if (close == std::string::npos) break;
    std::size_t b = skip_ws(code, close + 1, n);
    if (b >= n || code[b] != '{') {
      i = close + 1;
      continue;
    }
    const std::size_t body_end = match_bracket(code, b, n);
    if (body_end == std::string::npos) break;
    SwitchInfo info;
    info.line = lines[i];
    int paren = 0, brace = 0, bracket = 0;
    std::size_t j = b + 1;
    while (j < body_end) {
      const char c = code[j];
      if (c == '(') ++paren;
      else if (c == ')') --paren;
      else if (c == '{') ++brace;
      else if (c == '}') --brace;
      else if (paren == 0 && brace == 0 && bracket == 0 &&
               is_ident_start(c) && !is_ident(code[j - 1])) {
        const std::string kw = word_at(code, j, body_end);
        if (kw == "case") {
          std::size_t k = j + 4;
          while (k < body_end &&
                 !(code[k] == ':' &&
                   (k + 1 >= body_end || code[k + 1] != ':') &&
                   code[k - 1] != ':')) {
            ++k;
          }
          std::string lbl = code.substr(j + 4, k - j - 4);
          const auto wb = lbl.find_first_not_of(" \t\n");
          const auto we = lbl.find_last_not_of(" \t\n");
          if (wb != std::string::npos) {
            info.labels.push_back(lbl.substr(wb, we - wb + 1));
          }
          j = k + 1;
          continue;
        }
        if (kw == "default") {
          const std::size_t k = skip_ws(code, j + 7, body_end);
          if (k < body_end && code[k] == ':') info.has_default = true;
        }
        j += kw.size();
        continue;
      } else if (c == '[') {
        ++bracket;
      } else if (c == ']') {
        --bracket;
      }
      ++j;
    }
    out.push_back(std::move(info));
    i = b + 1;  // nested switches are scanned too
  }
  return out;
}

void check_coverage(const std::string& file, const SwitchInfo& sw,
                    const EnumMap& enums,
                    std::vector<lint::Finding>& findings, bool* checked) {
  *checked = false;
  if (sw.has_default || sw.labels.empty()) return;
  // All labels must be enum-qualified (Enum::Value) and agree on the enum.
  std::string enum_name;
  std::set<std::string> used;
  for (const std::string& label : sw.labels) {
    const std::size_t pos = label.rfind("::");
    if (pos == std::string::npos || pos == 0) return;
    std::size_t qe = pos;
    std::size_t qb = qe;
    while (qb > 0 && is_ident(label[qb - 1])) --qb;
    const std::string e = label.substr(qb, qe - qb);
    const std::string v = label.substr(pos + 2);
    if (enum_name.empty()) {
      enum_name = e;
    } else if (enum_name != e) {
      return;
    }
    used.insert(v);
  }
  const auto it = enums.find(enum_name);
  if (it == enums.end()) return;
  // Same-named enums (rep::Kind vs ViewEvent::Kind): the candidate must
  // contain every label used; with several plausible candidates the switch
  // is skipped rather than guessed at.
  const std::set<std::string>* candidate = nullptr;
  for (const auto& variant : it->second) {
    bool all = true;
    for (const std::string& v : used) {
      if (variant.count(v) == 0) {
        all = false;
        break;
      }
    }
    if (all) {
      if (candidate) return;  // ambiguous
      candidate = &variant;
    }
  }
  if (!candidate) return;
  *checked = true;
  std::string missing;
  for (const std::string& v : *candidate) {
    if (used.count(v) == 0) {
      if (!missing.empty()) missing += ", ";
      missing += enum_name + "::" + v;
    }
  }
  if (!missing.empty()) {
    findings.push_back(
        {file, sw.line, "switch-coverage",
         "switch over " + enum_name + " has no case for " + missing +
             " and no default"});
  }
}

// ---------------------------------------------------------------------------
// Per-file analysis.
// ---------------------------------------------------------------------------

std::vector<lint::Finding> analyze_lexed(const std::string& file,
                                         const lint::Lexed& lexed,
                                         const EnumMap& enums, Stats* stats) {
  const std::vector<int> lines = build_line_table(lexed.code);
  const lint::Allows allows = lint::parse_allows(lexed.comments);
  std::vector<lint::Finding> findings;

  const std::vector<FuncDef> defs = scan_defs(lexed.code, lines);
  for (const Pair& p : pair_defs(defs)) {
    CompareCtx ctx{file, p.writer, p.reader, &findings};
    compare_lists(ctx, p.writer->ops, p.reader->ops);
    if (stats) ++stats->pairs;
  }

  for (const SwitchInfo& sw : scan_switches(lexed.code, lines)) {
    bool checked = false;
    check_coverage(file, sw, enums, findings, &checked);
    if (checked && stats) ++stats->switches;
  }

  std::vector<lint::Finding> kept;
  for (lint::Finding& f : findings) {
    if (!allows.allowed(f.rule, f.line, kUmbrella)) {
      kept.push_back(std::move(f));
    }
  }
  lint::sort_findings(kept);
  return kept;
}

}  // namespace

const std::vector<std::string>& rule_ids() { return kRules; }

std::vector<lint::Finding> analyze_source(const std::string& file,
                                          const std::string& text,
                                          Stats* stats) {
  const lint::Lexed lexed = lint::lex(text);
  EnumMap enums;
  collect_enums(lexed.code, enums);
  if (stats) ++stats->files;
  return analyze_lexed(file, lexed, enums, stats);
}

std::vector<lint::Finding> analyze_paths(const std::vector<std::string>& paths,
                                         Stats* stats) {
  const std::vector<std::string> files = lint::collect_sources(paths);
  std::vector<std::pair<std::string, lint::Lexed>> lexed;
  EnumMap enums;
  for (const std::string& f : files) {
    lexed.emplace_back(f, lint::lex(lint::read_file(f, "wirecheck")));
    collect_enums(lexed.back().second.code, enums);
  }
  std::vector<lint::Finding> findings;
  for (const auto& [file, lx] : lexed) {
    std::vector<lint::Finding> fs = analyze_lexed(file, lx, enums, stats);
    findings.insert(findings.end(), fs.begin(), fs.end());
  }
  if (stats) stats->files = files.size();
  lint::sort_findings(findings);
  return findings;
}

}  // namespace wirecheck
