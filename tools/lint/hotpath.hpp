// hotpath-alloc — heap-allocation ratchet for annotated hot regions.
//
// The zero-copy hot path (arena-backed wire buffers end to end) relies on
// allocation *discipline*: the token-visit → deliver path must not quietly
// grow new heap traffic now that frames are built in the arena. This
// analyzer flags allocation-shaped constructs inside regions annotated
//
//     // lint: hotpath [free-text note]
//
// A marker opens a hot region covering the rest of its innermost
// enclosing brace scope (annotate the top of a function body to cover the
// whole function); `// lint: endpath` closes it early. Flagged inside a
// region (rule id `hotpath-alloc`):
//
//   * operator new / make_unique / make_shared
//   * growing container calls: .push_back/.emplace/.emplace_back/
//     .insert/.append/.resize  (.reserve is the sanctioned amortization
//     idiom and is deliberately NOT flagged)
//   * allocating temporaries: std::string(...), std::to_string(...),
//     Bytes(...)
//   * copy-constructed std::string / Bytes locals (a `std::move` on the
//     same line exempts the declaration)
//
// Growth routed through the frame arena is sanctioned without an allow:
// lines declaring a cdr::Writer/Arena, taking an arena() handle, or sealing
// a frame never fire — a Writer bump-allocates into pooled slabs.
//
// Suppression uses the shared lint:allow grammar (lexer.hpp):
//     // lint:allow(hotpath-alloc: <why this allocation is sanctioned>)
// on (or on the line above) the finding, or `lint:allow-file(...)` for a
// whole file. Every surviving suppression must justify itself on its own
// terms (bounded, loss-only, refcount bump, …) — "the arena will fix it"
// is no longer a reason.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace hotpath {

struct Stats {
  std::size_t files = 0;    // files scanned
  std::size_t regions = 0;  // hot regions found
};

/// The single rule id, as used by findings and suppressions.
const std::string& rule_id();

/// Analyze one translation unit given its text (file name is used only
/// for reporting). Honors `lint:allow` comments found in `text`.
std::vector<lint::Finding> analyze_source(const std::string& file,
                                          const std::string& text,
                                          Stats* stats = nullptr);

/// Analyze files and/or directories (walked as in lint::collect_sources).
/// Returns findings sorted by (file, line).
std::vector<lint::Finding> analyze_paths(const std::vector<std::string>& paths,
                                         Stats* stats = nullptr);

}  // namespace hotpath
