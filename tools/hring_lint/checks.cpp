#include "checks.hpp"

#include <array>
#include <optional>
#include <set>
#include <string_view>

#include "concurrency_model.hpp"
#include "protocol_model.hpp"

namespace hring::lint {
namespace {

[[nodiscard]] bool is_member_ident(const Token& tok) {
  return tok.is_ident() && tok.text.size() > 1 && tok.text.back() == '_';
}

void emit(const SourceFile& file, std::uint32_t line, std::uint32_t col,
          const std::string& check, std::string message,
          std::vector<Diagnostic>& diags) {
  if (nolint(file, line, check)) return;
  diags.push_back({file.path, line, col, check, std::move(message)});
}

/// True when tokens[i] is the name of a call: `name (`.
[[nodiscard]] bool is_call(const std::vector<Token>& t, std::size_t i) {
  return t[i].is_ident() && i + 1 < t.size() && t[i + 1].is("(");
}

/// True when the call at `i` has an explicit receiver (`x.f(...)`).
[[nodiscard]] bool has_receiver(const std::vector<Token>& t, std::size_t i) {
  return i > 0 && (t[i - 1].is(".") || t[i - 1].is("->"));
}

// ---------------------------------------------------------------------------
// codec-symmetry

void check_codec_symmetry(const Model& model, std::vector<Diagnostic>& diags) {
  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || !model.derives_from(name)) continue;
    const bool has_enc = !model.methods_named(cls, "encode").empty();
    const bool has_dec = !model.methods_named(cls, "decode").empty();
    if (has_enc && !has_dec && cls.file != nullptr) {
      emit(*cls.file, cls.line, 1, "codec-symmetry",
           "class '" + name +
               "' overrides encode() but not decode(); the model checker's "
               "snapshot restore would silently fall back to "
               "Process::decode",
           diags);
    }
    if (has_dec && !has_enc && cls.file != nullptr) {
      emit(*cls.file, cls.line, 1, "codec-symmetry",
           "class '" + name +
               "' overrides decode() but not encode(); snapshots taken via "
               "the inherited encode() cannot carry the state decode() "
               "restores",
           diags);
    }
    for (const MethodInfo* m : model.methods_named(cls, "decode")) {
      if (!m->has_body || m->file == nullptr) continue;
      const std::vector<Token>& t = m->file->tokens;
      std::size_t call_idx = m->body_end;
      for (std::size_t i = m->body_begin; i < m->body_end; ++i) {
        if (is_call(t, i) && t[i].is("decode_spec_vars")) {
          call_idx = i;
          break;
        }
      }
      if (call_idx == m->body_end) {
        emit(*m->file, m->line, 1, "codec-symmetry",
             "decode() must restore the spec variables via "
             "decode_spec_vars before reading its own fields",
             diags);
        continue;
      }
      for (std::size_t i = m->body_begin; i < call_idx; ++i) {
        if (is_member_ident(t[i]) || t[i].is("this")) {
          emit(*m->file, t[i].line, t[i].col, "codec-symmetry",
               "decode() touches '" + std::string(t[i].text) +
                   "' before decode_spec_vars has restored the spec "
                   "variables",
               diags);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// guard-purity

void check_guard_purity(const Model& model, std::vector<Diagnostic>& diags) {
  static const std::set<std::string_view> kContextOps = {"consume", "send",
                                                         "note_action"};
  static const std::set<std::string_view> kSpecMutators = {
      "declare_leader", "set_leader_label", "set_done", "halt_self"};
  static const std::set<std::string_view> kAssignOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || !model.derives_from(name)) continue;
    std::set<std::pair<std::string, std::uint32_t>> seen;
    for (const MethodInfo* m : model.methods_named(cls, "enabled")) {
      if (m->file == nullptr) continue;
      if (!m->is_const && seen.insert({m->file->path, m->line}).second) {
        emit(*m->file, m->line, 1, "guard-purity",
             "enabled() must be declared const: guards are side-effect "
             "free (model §II)",
             diags);
      }
      if (!m->has_body) continue;
      const std::vector<Token>& t = m->file->tokens;
      for (std::size_t i = m->body_begin; i < m->body_end; ++i) {
        const Token& tok = t[i];
        if (is_call(t, i)) {
          if (kContextOps.count(tok.text) > 0) {
            emit(*m->file, tok.line, tok.col, "guard-purity",
                 "enabled() calls Context::" + std::string(tok.text) +
                     "(); guards may only inspect state, never "
                     "consume/send/label",
                 diags);
          } else if (!has_receiver(t, i) &&
                     kSpecMutators.count(tok.text) > 0) {
            emit(*m->file, tok.line, tok.col, "guard-purity",
                 "enabled() calls the spec mutator " +
                     std::string(tok.text) + "()",
                 diags);
          } else if (!has_receiver(t, i) &&
                     model.has_nonconst_method(cls, std::string(tok.text))) {
            emit(*m->file, tok.line, tok.col, "guard-purity",
                 "enabled() calls the non-const member '" +
                     std::string(tok.text) + "'",
                 diags);
          }
          continue;
        }
        if (tok.is("const_cast")) {
          emit(*m->file, tok.line, tok.col, "guard-purity",
               "enabled() casts away const", diags);
          continue;
        }
        // Member mutation: `x_ = ...`, `this->x = ...`, `x_[i] = ...`,
        // `++x_`, `x_--`, and compound assignments.
        const bool is_assign =
            tok.kind == TokKind::kPunct && kAssignOps.count(tok.text) > 0;
        const bool is_incdec = tok.is("++") || tok.is("--");
        if (!is_assign && !is_incdec) continue;
        std::size_t lhs = i;  // find the mutated operand's identifier
        bool member = false;
        if (lhs > 0 && t[lhs - 1].is("]")) {
          std::size_t depth = 0;
          while (lhs > 0) {
            --lhs;
            if (t[lhs].is("]")) ++depth;
            if (t[lhs].is("[") && --depth == 0) break;
          }
        }
        if (lhs > 0 && is_member_ident(t[lhs - 1])) member = true;
        if (lhs > 2 && t[lhs - 2].is("->") && t[lhs - 3].is("this")) {
          member = true;
        }
        if (is_incdec && i + 1 < m->body_end &&
            (is_member_ident(t[i + 1]) ||
             (t[i + 1].is("this") && i + 3 < m->body_end &&
              t[i + 2].is("->")))) {
          member = true;
        }
        if (member) {
          emit(*m->file, tok.line, tok.col, "guard-purity",
               "enabled() mutates a member; guards are side-effect free",
               diags);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// consume-discipline

/// Max consume() calls along the paths that fall through / break-or-continue
/// out of / return out of a statement; -1 = no such path.
struct Paths {
  int cont = 0;
  int brk = -1;
  int ret = -1;
};

/// Appends `tail` to a path that already carries `head` consumes.
[[nodiscard]] int then(int head, int tail) {
  return tail >= 0 ? head + tail : -1;
}

/// Folds a Stmt tree into per-path consume() counts. A loop-carried
/// consume() sets `in_loop`; statements after a path's terminator are
/// unreachable and not visited.
class ConsumeFold {
 public:
  explicit ConsumeFold(const SourceFile& file) : t_(file.tokens) {}

  bool in_loop = false;

  Paths fold(const Stmt& s, bool looped) {
    switch (s.kind) {
      case Stmt::Kind::kExpr:
        return {count(s.begin, s.end, looped), -1, -1};
      case Stmt::Kind::kReturn:
        return {-1, -1, count(s.begin, s.end, looped)};
      case Stmt::Kind::kBreak:
        return {-1, 0, -1};
      case Stmt::Kind::kJump:
        return {-1, -1, -1};
      case Stmt::Kind::kBlock:
        return fold_seq(s, looped);
      case Stmt::Kind::kIf: {
        const int c0 = count(s.cond_begin, s.cond_end, looped);
        const Paths a = fold(s.children[0], looped);
        const Paths b =
            s.children.size() > 1 ? fold(s.children[1], looped) : Paths{};
        return {then(c0, std::max(a.cont, b.cont)),
                then(c0, std::max(a.brk, b.brk)),
                then(c0, std::max(a.ret, b.ret))};
      }
      case Stmt::Kind::kLoop: {
        const int head = count(s.cond_begin, s.cond_end, true);
        const Paths body = fold(s.children[0], true);
        return {head + std::max({body.cont, body.brk, 0}), -1,
                then(head, body.ret)};
      }
      case Stmt::Kind::kSwitch: {
        // Case segments are alternatives, and `break` exits the switch.
        // Fallthrough between consuming cases is not modeled (§II actions
        // do not rely on it); an empty segment shares the next one's
        // statements. With a default present and every segment terminated
        // nothing falls out (Peterson's relay switch ends in
        // `default: HRING_ASSERT(false);`).
        const int c0 = count(s.cond_begin, s.cond_end, looped);
        bool has_default = false;
        int out = -1;
        int ret = -1;
        for (const Stmt& seg : s.children) {
          has_default |= t_[seg.begin].is("default");
          if (seg.children.empty()) continue;
          const Paths p = fold_seq(seg, looped);
          out = std::max({out, p.cont, p.brk});
          ret = std::max(ret, p.ret);
        }
        if (!has_default) out = std::max(out, 0);  // no label matched
        return {then(c0, out), -1, then(c0, ret)};
      }
    }
    return {};
  }

 private:
  Paths fold_seq(const Stmt& block, bool looped) {
    Paths r;
    for (const Stmt& child : block.children) {
      const Paths p = fold(child, looped);
      r.brk = std::max(r.brk, then(r.cont, p.brk));
      r.ret = std::max(r.ret, then(r.cont, p.ret));
      r.cont = then(r.cont, p.cont);
      if (r.cont < 0) break;
    }
    return r;
  }

  int count(std::size_t from, std::size_t to, bool looped) {
    int n = 0;
    for (std::size_t i = from; i < to; ++i) {
      if (t_[i].is("consume") && i + 1 < to && t_[i + 1].is("(")) ++n;
    }
    if (looped && n > 0) in_loop = true;
    return n;
  }

  const Toks& t_;
};

void check_consume_discipline(const Model& model,
                              std::vector<Diagnostic>& diags) {
  for (const auto& [name, cls] : model.classes) {
    if (!model.guarded_shape(name, cls)) continue;
    for (const MethodInfo* m : model.methods_named(cls, "fire")) {
      if (!m->has_body || m->file == nullptr) continue;
      const ConsumeSummary s =
          analyze_consume_paths(*m->file, m->body_begin, m->body_end);
      if (s.in_loop) {
        emit(*m->file, m->line, 1, "consume-discipline",
             "fire() calls consume() inside a loop; an action receives "
             "the head message at most once",
             diags);
      }
      if (s.max_on_path > 1) {
        emit(*m->file, m->line, 1, "consume-discipline",
             "fire() may call consume() " + std::to_string(s.max_on_path) +
                 " times on one path; the model's rcv happens exactly once "
                 "per action",
             diags);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// hot-path-alloc

void scan_body_for_allocations(const MethodInfo& m, const std::string& where,
                               std::vector<Diagnostic>& diags) {
  static const std::set<std::string_view> kAllocatingTypes = {
      "string",        "vector",       "deque",
      "list",          "map",          "multimap",
      "set",           "multiset",     "unordered_map",
      "unordered_set", "function",     "ostringstream",
      "stringstream",  "istringstream", "basic_string",
      "LabelSequence"};
  static const std::set<std::string_view> kAllocatingCalls = {
      "to_string", "make_unique", "make_shared", "substr"};

  const std::vector<Token>& t = m.file->tokens;
  for (std::size_t i = m.body_begin; i < m.body_end; ++i) {
    const Token& tok = t[i];
    if (tok.is("new")) {
      emit(*m.file, tok.line, tok.col, "hot-path-alloc",
           "operator new in " + where +
               "; the firing path must stay allocation-free",
           diags);
      continue;
    }
    if (!tok.is_ident()) continue;
    if (kAllocatingCalls.count(tok.text) > 0 && i + 1 < m.body_end &&
        (t[i + 1].is("(") || t[i + 1].is("<"))) {
      emit(*m.file, tok.line, tok.col, "hot-path-alloc",
           "call to allocating '" + std::string(tok.text) + "' in " + where,
           diags);
      continue;
    }
    if (kAllocatingTypes.count(tok.text) == 0) continue;
    if (i == 0 || !t[i - 1].is("::")) continue;  // qualified uses only
    // Skip template arguments, then decide from the following token
    // whether this names a by-value construction or declaration.
    std::size_t j = i + 1;
    if (j < m.body_end && t[j].is("<")) {
      std::size_t depth = 0;
      for (; j < m.body_end; ++j) {
        if (t[j].is("<")) ++depth;
        if (t[j].is(">") && --depth == 0) {
          ++j;
          break;
        }
        if (t[j].is(">>")) {
          if (depth <= 2) {
            ++j;
            break;
          }
          depth -= 2;
        }
      }
    }
    if (j >= m.body_end) continue;
    if (t[j].is_ident() || t[j].is("(") || t[j].is("{")) {
      emit(*m.file, tok.line, tok.col, "hot-path-alloc",
           "constructs allocating type '" + std::string(tok.text) +
               "' in " + where,
           diags);
    }
  }
}

void check_hot_path_alloc(const Model& model, std::vector<Diagnostic>& diags) {
  for (const auto& [name, cls] : model.classes) {
    const bool guarded = model.guarded_shape(name, cls);
    for (const MethodInfo& m : cls.methods) {
      if (m.file == nullptr || !m.has_body) continue;
      const bool action_body =
          guarded && (m.name == "enabled" || m.name == "fire");
      if (action_body) {
        scan_body_for_allocations(
            m, m.name == "enabled" ? "enabled() (guard)" : "fire() (action)",
            diags);
      } else if (m.hot_path) {
        scan_body_for_allocations(m, "'" + m.name + "' (hring-lint: hot-path)",
                                  diags);
      }
    }
  }
}

}  // namespace

void emit_diag(const SourceFile& file, std::uint32_t line, std::uint32_t col,
               const std::string& check, std::string message,
               std::vector<Diagnostic>& diags) {
  emit(file, line, col, check, std::move(message), diags);
}

ConsumeSummary analyze_consume_paths(const SourceFile& file,
                                     std::size_t body_begin,
                                     std::size_t body_end) {
  ConsumeFold folder(file);
  const Paths p =
      folder.fold(build_stmt_tree(file, body_begin, body_end), false);
  ConsumeSummary s;
  s.max_on_path = static_cast<std::size_t>(std::max({p.cont, p.brk, p.ret, 0}));
  s.in_loop = folder.in_loop;
  return s;
}

void run_checks(const Model& model, const std::vector<std::string>& checks,
                std::vector<Diagnostic>& diags) {
  for (const std::string& check : checks) {
    if (check == "codec-symmetry") check_codec_symmetry(model, diags);
    if (check == "guard-purity") check_guard_purity(model, diags);
    if (check == "consume-discipline") check_consume_discipline(model, diags);
    if (check == "hot-path-alloc") check_hot_path_alloc(model, diags);
    if (check == "space-bound") check_space_bound(model, diags);
    if (check == "alphabet-closure") check_alphabet_closure(model, diags);
    if (check == "batch-mirror") check_batch_mirror(model, diags);
    if (check == "atomics-discipline") check_atomics_discipline(model, diags);
    if (check == "spsc-ownership") check_spsc_ownership(model, diags);
    if (check == "pairing") check_pairing(model, diags);
    if (check == "lost-wakeup") check_lost_wakeup(model, diags);
    if (check == "no-block-in-hot-path") {
      check_no_block_in_hot_path(model, diags);
    }
    if (check == "decode-before-trust") {
      check_decode_before_trust(model, diags);
    }
  }
  sort_diagnostics(diags);
}

}  // namespace hring::lint
