// Token stream for hring-lint (tools/hring_lint/README.md).
//
// A single-pass C++ tokenizer: identifiers, numbers, string/char literals
// (including raw strings), and punctuation with longest-match operators.
// Comments are not tokens — they are collected separately per line so the
// expectation (`hring-expect`), suppression (`hring-nolint`) and hot-path
// annotation comments stay addressable by the checks without cluttering
// the structural parse. Preprocessor directives are skipped wholesale
// (including line continuations): the linter analyses the file as written,
// not the preprocessed translation unit.
//
// The token and comment toolkit below is the one set of skipping and
// annotation-lookup helpers every model and check walks the streams with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hring::lint {

enum class TokKind : std::uint8_t {
  kIdent,
  kNumber,
  kString,
  kChar,
  kPunct,
  kEof,
};

struct Token {
  TokKind kind = TokKind::kEof;
  /// View into SourceFile::content — valid while the file is alive.
  std::string_view text;
  std::uint32_t line = 0;  // 1-based
  std::uint32_t col = 0;   // 1-based

  [[nodiscard]] bool is(std::string_view t) const { return text == t; }
  [[nodiscard]] bool is_ident() const { return kind == TokKind::kIdent; }
};

/// One comment (`//...` or `/*...*/`), with the line it starts on.
struct Comment {
  std::string_view text;  // includes the comment markers
  std::uint32_t line = 0;
};

/// A lexed file. `content` owns the bytes every token/comment views into.
struct SourceFile {
  std::string path;
  std::string content;
  std::vector<Token> tokens;    // terminated by a kEof token
  std::vector<Comment> comments;
};

/// Lexes `content` in place (tokens/comments view into file.content).
void lex(SourceFile& file);

/// Reads `path` from disk and lexes it. Returns false when unreadable.
[[nodiscard]] bool lex_file(const std::string& path, SourceFile& file);

// ---------------------------------------------------------------------------
// Token and comment toolkit

using Toks = std::vector<Token>;

/// Index of the token after the `close` matching the `open` at t[i]. Stops
/// at `limit` or the kEof token when unbalanced.
[[nodiscard]] std::size_t skip_balanced(const Toks& t, std::size_t i,
                                        std::string_view open,
                                        std::string_view close,
                                        std::size_t limit = SIZE_MAX);

/// Skips a template argument/parameter list starting at `<`; `>>` closes
/// two levels. Returns the index after the closing `>`, or the `;`/`{`
/// that shows it was not a template list after all.
[[nodiscard]] std::size_t skip_angles(const Toks& t, std::size_t i);

/// Index after the next `;` outside parentheses and braces, or `limit`
/// (or the kEof token) when there is none.
[[nodiscard]] std::size_t skip_to_semicolon(const Toks& t, std::size_t i,
                                            std::size_t limit = SIZE_MAX);

/// The comment nearest to (and not past) `line` within [line - above, line]
/// whose text contains `marker`; nullptr when absent.
[[nodiscard]] const Comment* find_annotation(const SourceFile& file,
                                             std::uint32_t line,
                                             std::uint32_t above,
                                             std::string_view marker);

/// The text following the first `marker` in `text`, leading whitespace
/// dropped.
[[nodiscard]] std::string_view after_marker(std::string_view text,
                                            std::string_view marker);

/// True when a `// hring-nolint(<check>)` (or bare `// hring-nolint`)
/// comment on `line` suppresses `check`.
[[nodiscard]] bool nolint(const SourceFile& file, std::uint32_t line,
                          std::string_view check);

}  // namespace hring::lint
