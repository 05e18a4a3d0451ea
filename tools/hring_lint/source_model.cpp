#include "source_model.hpp"

#include <set>

namespace hring::lint {
namespace {

/// Expression contexts in which `ident (` is a call, not a declarator.
bool prev_blocks_declarator(const Token& prev) {
  static const std::set<std::string_view> kDeny = {
      "=",  "(",  ",",  "+",  "-",  "/",  "%",  "!",  "?",  "<",
      ">",  "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", ".",
      "->", "return"};
  return kDeny.count(prev.text) > 0;
}

class Parser {
 public:
  Parser(const SourceFile& file, Model& model)
      : file_(file), t_(file.tokens), model_(model) {}

  void run() { parse_scope(0, t_.size(), nullptr); }

 private:
  ClassInfo& class_entry(const std::string& name, std::uint32_t line) {
    ClassInfo& cls = model_.classes[name];
    if (cls.name.empty()) {
      cls.name = name;
      cls.line = line;
      cls.file = &file_;
    }
    return cls;
  }

  /// Parses the base-specifier list between `:` and `{`; returns the index
  /// of the `{`.
  std::size_t parse_bases(std::size_t i, ClassInfo& cls) {
    std::string last_ident;
    for (; i < t_.size() && t_[i].kind != TokKind::kEof; ++i) {
      const Token& tok = t_[i];
      if (tok.is("{")) break;
      if (tok.is(",")) {
        if (!last_ident.empty()) cls.bases.push_back(last_ident);
        last_ident.clear();
        continue;
      }
      if (tok.is("<")) {
        i = skip_angles(t_, i) - 1;
        continue;
      }
      if (tok.is_ident() && !tok.is("public") && !tok.is("protected") &&
          !tok.is("private") && !tok.is("virtual")) {
        last_ident = std::string(tok.text);
      }
    }
    if (!last_ident.empty()) cls.bases.push_back(last_ident);
    return i;
  }

  /// Parses a member-function candidate anchored at `ident (`; returns the
  /// index to resume from, or `name_idx + 1` when it is not a function.
  std::size_t parse_function(std::size_t name_idx, ClassInfo* cls) {
    const Token& name_tok = t_[name_idx];
    std::string name(name_tok.text);
    std::string owner;  // out-of-line: Cls::name(...)
    if (name_idx >= 2 && t_[name_idx - 1].is("::") &&
        t_[name_idx - 2].is_ident()) {
      owner = std::string(t_[name_idx - 2].text);
    } else if (name_idx >= 1 && t_[name_idx - 1].is("~")) {
      name = "~" + name;
    }
    if (name_idx >= 1 && owner.empty() &&
        prev_blocks_declarator(t_[name_idx - 1])) {
      return name_idx + 1;
    }

    MethodInfo method;
    method.name = name;
    method.line = name_tok.line;
    method.file = &file_;

    std::size_t i = skip_balanced(t_, name_idx + 1, "(", ")");
    // Trailing specifiers: const/noexcept/override/final/ref-qualifiers,
    // then one of `;` (declaration), `{` (body), `:` (ctor-init list),
    // `=` (pure/defaulted/deleted).
    for (;;) {
      const Token& tok = t_[i];
      if (tok.is("const")) {
        method.is_const = true;
        ++i;
      } else if (tok.is("noexcept")) {
        ++i;
        if (t_[i].is("(")) i = skip_balanced(t_, i, "(", ")");
      } else if (tok.is("override")) {
        method.is_override = true;
        ++i;
      } else if (tok.is("final") || tok.is("&") || tok.is("&&") ||
                 tok.is("volatile")) {
        ++i;
      } else if (tok.is("->")) {
        // Trailing return type: runs to the body/terminator.
        ++i;
        while (i < t_.size() && !t_[i].is("{") && !t_[i].is(";") &&
               !t_[i].is("=") && t_[i].kind != TokKind::kEof) {
          if (t_[i].is("<")) {
            i = skip_angles(t_, i);
          } else if (t_[i].is("(")) {
            i = skip_balanced(t_, i, "(", ")");
          } else {
            ++i;
          }
        }
      } else {
        break;
      }
    }
    if (t_[i].is(":")) {
      // Constructor initializer list: `name(args)` or `name{args}` items
      // separated by commas, then the body brace.
      ++i;
      for (;;) {
        while (i < t_.size() && t_[i].kind != TokKind::kEof &&
               !t_[i].is("(") && !t_[i].is("{")) {
          if (t_[i].is("<")) {
            i = skip_angles(t_, i);
            continue;
          }
          ++i;
        }
        if (t_[i].is("(")) {
          i = skip_balanced(t_, i, "(", ")");
        } else if (t_[i].is("{")) {
          // `{` directly after the initializer name is a brace-init item;
          // after `)`/`}` it is the body.
          i = skip_balanced(t_, i, "{", "}");
        } else {
          return i;  // malformed; bail
        }
        if (t_[i].is(",")) {
          ++i;
          continue;
        }
        break;
      }
      // The body brace follows the last initializer.
      if (!t_[i].is("{")) return i;
    }
    if (t_[i].is(";")) {
      record(method, owner, cls);
      return i + 1;
    }
    if (t_[i].is("=")) {  // = 0; / = default; / = delete;
      i = skip_to_semicolon(t_, i);
      record(method, owner, cls);
      return i;
    }
    if (t_[i].is("{")) {
      const std::size_t body_end_excl = skip_balanced(t_, i, "{", "}");
      method.has_body = true;
      method.body_begin = i + 1;
      method.body_end = body_end_excl > 0 ? body_end_excl - 1 : i + 1;
      method.hot_path =
          find_annotation(file_, method.line, 4, "hring-lint: hot-path") !=
          nullptr;
      record(method, owner, cls);
      return body_end_excl;
    }
    return name_idx + 1;  // not a function after all
  }

  void record(MethodInfo& method, const std::string& owner, ClassInfo* cls) {
    if (!owner.empty()) {
      ClassInfo& target = class_entry(owner, method.line);
      target.methods.push_back(std::move(method));
    } else if (cls != nullptr) {
      cls->methods.push_back(std::move(method));
    }
    // Free functions with bodies keep hot-path annotations honored via a
    // synthetic "" class bucket.
    else if (method.has_body) {
      ClassInfo& target = model_.classes[""];
      target.file = &file_;
      target.methods.push_back(std::move(method));
    }
  }

  void parse_scope(std::size_t i, std::size_t end, ClassInfo* cls) {
    while (i < end && t_[i].kind != TokKind::kEof) {
      const Token& tok = t_[i];
      if (tok.is("namespace")) {
        ++i;
        while (i < end && !t_[i].is("{") && !t_[i].is(";")) ++i;
        if (t_[i].is("{")) {
          const std::size_t after = skip_balanced(t_, i, "{", "}");
          parse_scope(i + 1, after - 1, cls);
          i = after;
        } else {
          ++i;
        }
        continue;
      }
      if (tok.is("template")) {
        ++i;
        if (t_[i].is("<")) i = skip_angles(t_, i);
        continue;
      }
      if (tok.is("using") || tok.is("typedef") || tok.is("static_assert") ||
          tok.is("friend")) {
        i = skip_to_semicolon(t_, i);
        continue;
      }
      if (tok.is("enum")) {
        ++i;
        if (t_[i].is("class") || t_[i].is("struct")) ++i;
        std::string enum_name;
        std::uint32_t enum_line = 0;
        if (t_[i].is_ident()) {
          enum_name = std::string(t_[i].text);
          enum_line = t_[i].line;
        }
        while (i < end && !t_[i].is("{") && !t_[i].is(";")) ++i;
        if (t_[i].is("{")) {
          const std::size_t body_end_excl = skip_balanced(t_, i, "{", "}");
          if (!enum_name.empty() && model_.enums.count(enum_name) == 0) {
            EnumInfo info;
            info.name = enum_name;
            info.line = enum_line;
            info.file = &file_;
            // Enumerators are the idents in "expect one" position: right
            // after `{` or a depth-0 `,`. Initializer expressions (after
            // `=`) are skipped to the next depth-0 comma.
            bool expect = true;
            for (std::size_t j = i + 1; j + 1 < body_end_excl; ++j) {
              const Token& et = t_[j];
              if (et.is("(")) {
                j = skip_balanced(t_, j, "(", ")") - 1;
              } else if (et.is("{")) {
                j = skip_balanced(t_, j, "{", "}") - 1;
              } else if (et.is(",")) {
                expect = true;
              } else if (expect && et.is_ident()) {
                info.enumerators.push_back(std::string(et.text));
                expect = false;
              } else {
                expect = false;
              }
            }
            model_.enums.emplace(enum_name, std::move(info));
          }
          i = body_end_excl;
        }
        i = skip_to_semicolon(t_, i);
        continue;
      }
      if (tok.is("class") || tok.is("struct")) {
        ++i;
        while (t_[i].is("[")) {  // attributes
          while (i < end && !t_[i].is("]")) ++i;
          ++i;
        }
        if (!t_[i].is_ident()) {  // anonymous aggregate
          continue;
        }
        // Possibly qualified (`class ExecutionCore::FireContext`): the
        // terminal component names the class.
        std::size_t name_idx = i;
        ++i;
        while (t_[i].is("::") && t_[i + 1].is_ident()) {
          name_idx = i + 1;
          i += 2;
        }
        const Token& name_tok = t_[name_idx];
        if (t_[i].is("final")) ++i;
        if (t_[i].is(";")) {  // forward declaration
          ++i;
          continue;
        }
        if (!t_[i].is(":") && !t_[i].is("{")) {
          continue;  // `class Foo` used as an elaborated type specifier
        }
        ClassInfo& entry =
            class_entry(std::string(name_tok.text), name_tok.line);
        if (t_[i].is(":")) i = parse_bases(i + 1, entry);
        if (t_[i].is("{")) {
          const std::size_t after = skip_balanced(t_, i, "{", "}");
          if (entry.body_file == nullptr) {  // first definition site wins
            entry.body_file = &file_;
            entry.body_begin = i + 1;
            entry.body_end = after > 0 ? after - 1 : i + 1;
            entry.line = name_tok.line;
            entry.file = &file_;
          }
          parse_scope(i + 1, after - 1, &entry);
          i = skip_to_semicolon(t_, after - 1);
        }
        continue;
      }
      if (tok.is_ident() && i + 1 < end && t_[i + 1].is("(")) {
        i = parse_function(i, cls);
        continue;
      }
      if (tok.is("(")) {
        i = skip_balanced(t_, i, "(", ")");
        continue;
      }
      if (tok.is("{")) {
        i = skip_balanced(t_, i, "{", "}");
        continue;
      }
      ++i;
    }
  }

  const SourceFile& file_;
  const Toks& t_;
  Model& model_;
};

}  // namespace

bool Model::derives_from(const std::string& name,
                         const std::string& root) const {
  std::set<std::string> visited;
  std::vector<const std::string*> stack = {&name};
  while (!stack.empty()) {
    const std::string& cur = *stack.back();
    stack.pop_back();
    if (!visited.insert(cur).second) continue;
    const auto it = classes.find(cur);
    if (it == classes.end()) continue;
    for (const std::string& base : it->second.bases) {
      if (base == root) return true;
      stack.push_back(&base);
    }
  }
  return false;
}

std::vector<const MethodInfo*> Model::methods_named(
    const ClassInfo& cls, const std::string& name) const {
  std::vector<const MethodInfo*> out;
  for (const MethodInfo& m : cls.methods) {
    if (m.name == name) out.push_back(&m);
  }
  return out;
}

bool Model::guarded_shape(const std::string& name,
                          const ClassInfo& cls) const {
  if (name.empty()) return false;
  if (derives_from(name)) return true;
  return !methods_named(cls, "enabled").empty() &&
         !methods_named(cls, "fire").empty();
}

bool Model::has_nonconst_method(const ClassInfo& cls,
                                const std::string& name) const {
  for (const MethodInfo& m : cls.methods) {
    if (m.name == name && !m.is_const) return true;
  }
  return false;
}

void parse_file(const SourceFile& file, Model& model) {
  model.files.push_back(&file);
  Parser parser(file, model);
  parser.run();
}

// ---------------------------------------------------------------------------
// Statement model

namespace {

/// True for statements that provably never complete: `HRING_ASSERT(false)`
/// and friends (always-on, [[noreturn]] on failure — support/assert.hpp),
/// plain aborts, and unreachable markers. The first identifier decides.
[[nodiscard]] bool is_noreturn_stmt(const Toks& t, std::size_t begin,
                                    std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& tok = t[i];
    if (!tok.is_ident()) continue;
    if (tok.is("HRING_ASSERT") || tok.is("HRING_EXPECTS") ||
        tok.is("HRING_ENSURES")) {
      return i + 3 < end && t[i + 1].is("(") && t[i + 2].is("false") &&
             t[i + 3].is(")");
    }
    if (tok.is("abort") || tok.is("assert_fail") ||
        tok.is("__builtin_unreachable") || tok.is("unreachable") ||
        tok.is("exit") || tok.is("_Exit") || tok.is("terminate")) {
      return i + 1 < end && t[i + 1].is("(");
    }
    return false;
  }
  return false;
}

class StmtBuilder {
 public:
  StmtBuilder(const SourceFile& file, std::size_t begin, std::size_t end)
      : t_(file.tokens), end_(end), pos_(begin) {}

  [[nodiscard]] Stmt run() {
    Stmt root;
    root.kind = Stmt::Kind::kBlock;
    root.begin = pos_;
    root.end = end_;
    parse_children(root, end_);
    return root;
  }

 private:
  [[nodiscard]] bool at(std::string_view s) const {
    return pos_ < end_ && t_[pos_].is(s);
  }

  void parse_cond(Stmt& s) {
    s.cond_begin = pos_;
    pos_ = skip_balanced(t_, pos_, "(", ")", end_);
    s.cond_end = pos_;
  }

  /// Parses one statement into `parent.children`; one that makes no
  /// progress is dropped and its token skipped.
  void parse_child(Stmt& parent) {
    const std::size_t before = pos_;
    parent.children.push_back(parse_stmt());
    if (pos_ == before) {
      parent.children.pop_back();
      ++pos_;
    }
  }

  /// Parses statements into `parent.children` until `end` (exclusive).
  void parse_children(Stmt& parent, std::size_t end) {
    const std::size_t saved_end = end_;
    end_ = end;
    while (pos_ < end) parse_child(parent);
    end_ = saved_end;
  }

  /// Parses the braced switch body at pos_ into one kBlock segment per
  /// case/default label (statements before the first label form their own).
  void parse_segments(Stmt& s) {
    const std::size_t close = skip_balanced(t_, pos_, "{", "}", end_);
    const std::size_t saved_end = end_;
    end_ = close - 1;
    ++pos_;
    while (pos_ < end_) {
      const bool label = at("case") || at("default");
      if (label || s.children.empty()) {
        if (!s.children.empty()) s.children.back().end = pos_;
        Stmt seg;
        seg.kind = Stmt::Kind::kBlock;
        seg.begin = pos_;
        s.children.push_back(std::move(seg));
      }
      if (!label) {
        parse_child(s.children.back());
        continue;
      }
      while (pos_ < end_ && !at(":")) ++pos_;
      ++pos_;
    }
    if (!s.children.empty()) s.children.back().end = end_;
    end_ = saved_end;
    pos_ = close;
  }

  Stmt parse_stmt() {
    Stmt s;
    s.begin = pos_;
    if (at("{")) {
      const std::size_t close = skip_balanced(t_, pos_, "{", "}", end_);
      s.kind = Stmt::Kind::kBlock;
      ++pos_;
      parse_children(s, close - 1);
      pos_ = close;
    } else if (at("if")) {
      s.kind = Stmt::Kind::kIf;
      ++pos_;
      if (at("constexpr")) ++pos_;
      parse_cond(s);
      s.children.push_back(parse_stmt());
      if (at("else")) {
        ++pos_;
        s.children.push_back(parse_stmt());
      }
    } else if (at("while") || at("for")) {
      s.kind = Stmt::Kind::kLoop;
      ++pos_;
      parse_cond(s);
      s.children.push_back(parse_stmt());
    } else if (at("do")) {
      s.kind = Stmt::Kind::kLoop;
      ++pos_;
      s.children.push_back(parse_stmt());
      if (at("while")) {
        ++pos_;
        parse_cond(s);
      }
      if (at(";")) ++pos_;
    } else if (at("switch")) {
      s.kind = Stmt::Kind::kSwitch;
      ++pos_;
      parse_cond(s);
      if (at("{")) parse_segments(s);
    } else if (at("else") || at(";")) {  // stray
      ++pos_;
    } else {
      if (at("return")) {
        s.kind = Stmt::Kind::kReturn;
      } else if (at("break") || at("continue")) {
        s.kind = Stmt::Kind::kBreak;
      } else if (at("goto") || at("throw")) {
        s.kind = Stmt::Kind::kJump;
      }
      pos_ = skip_to_semicolon(t_, pos_, end_);
      if (s.kind == Stmt::Kind::kExpr && is_noreturn_stmt(t_, s.begin, pos_)) {
        s.kind = Stmt::Kind::kJump;
      }
    }
    s.end = pos_;
    return s;
  }

  const Toks& t_;
  std::size_t end_;
  std::size_t pos_;
};

[[nodiscard]] bool stmt_contains(const Stmt& s, std::size_t tok) {
  return tok >= s.begin && tok < s.end;
}

/// Token ranges guaranteed to execute given that `s` begins executing:
/// whole simple statements, every child of a block (a child that exits
/// abnormally makes anything sequenced after `s` unreachable, which is
/// exactly the context dominance is queried in), and only the condition
/// of if/loop/switch.
void collect_guaranteed(const Stmt& s,
                        std::vector<std::pair<std::size_t, std::size_t>>& out) {
  switch (s.kind) {
    case Stmt::Kind::kExpr:
    case Stmt::Kind::kReturn:
    case Stmt::Kind::kBreak:
    case Stmt::Kind::kJump:
      out.emplace_back(s.begin, s.end);
      return;
    case Stmt::Kind::kBlock:
      for (const Stmt& child : s.children) collect_guaranteed(child, out);
      return;
    case Stmt::Kind::kIf:
    case Stmt::Kind::kLoop:
    case Stmt::Kind::kSwitch:
      if (s.cond_end > s.cond_begin) {
        out.emplace_back(s.cond_begin, s.cond_end);
      }
      return;
  }
}

}  // namespace

Stmt build_stmt_tree(const SourceFile& file, std::size_t begin,
                     std::size_t end) {
  return StmtBuilder(file, begin, end).run();
}

bool loop_enclosed(const Stmt& root, std::size_t tok) {
  if (!stmt_contains(root, tok)) return false;
  if (root.kind == Stmt::Kind::kLoop) return true;
  for (const Stmt& child : root.children) {
    if (stmt_contains(child, tok)) return loop_enclosed(child, tok);
  }
  return false;
}

bool dominated_by_range(const Stmt& root, std::size_t tok, std::size_t from,
                        std::size_t to) {
  if (!stmt_contains(root, tok)) return false;
  std::vector<std::pair<std::size_t, std::size_t>> guaranteed;
  const Stmt* node = &root;
  for (;;) {
    // Conditions evaluate before any branch or body they guard.
    if (node->cond_end > node->cond_begin && tok >= node->cond_end) {
      guaranteed.emplace_back(node->cond_begin, node->cond_end);
    }
    const Stmt* next = nullptr;
    for (const Stmt& child : node->children) {
      if (stmt_contains(child, tok)) {
        next = &child;
        break;
      }
      // Sequential siblings run to completion before `tok`'s statement
      // begins — but only in a block (or case segment); if branches and
      // switch segments are alternatives.
      if (node->kind == Stmt::Kind::kBlock) collect_guaranteed(child, guaranteed);
    }
    if (next == nullptr) break;
    node = next;
  }
  // Earlier tokens of the statement (or condition) containing `tok`.
  guaranteed.emplace_back(node->begin, tok);
  for (const auto& [b, e] : guaranteed) {
    if (b < to && from < e) return true;
  }
  return false;
}

}  // namespace hring::lint
