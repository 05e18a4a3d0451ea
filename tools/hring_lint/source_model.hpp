// Structural model extracted from the token streams (tools/hring_lint).
//
// The linter does not preprocess or type-check: it recovers exactly the
// structure the protocol checks need — class definitions with their base
// specifiers, member-function declarations/definitions (in-class and
// out-of-line `Cls::name(...)`), constness/override-ness, and body token
// ranges — and resolves "derives from hring::sim::Process" transitively
// across every file of the invocation. Base classes are matched by the
// terminal identifier of the base-specifier (`sim::Process` → `Process`),
// which is unambiguous in this codebase and in the fixture corpus; the
// trade-off is documented in docs/STATIC_ANALYSIS.md.
//
// Function bodies get one statement model on top (Stmt, below): every
// check that reasons about control flow folds over or queries that tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace hring::lint {

struct MethodInfo {
  std::string name;
  bool is_const = false;
  bool is_override = false;
  bool has_body = false;
  /// Token index range of the body in `file->tokens`, excluding the
  /// enclosing braces: [body_begin, body_end).
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::uint32_t line = 0;  // line of the method name token
  const SourceFile* file = nullptr;
  /// Marked hot by a `// hring-lint: hot-path` comment directly above or
  /// on the signature line.
  bool hot_path = false;
};

struct ClassInfo {
  std::string name;
  std::vector<std::string> bases;  // terminal identifier of each base
  std::vector<MethodInfo> methods;
  std::uint32_t line = 0;
  const SourceFile* file = nullptr;
  /// Token index range of the class body in `body_file->tokens`, excluding
  /// the enclosing braces: [body_begin, body_end). Set at the first
  /// definition site seen; out-of-line method definitions do not move it.
  const SourceFile* body_file = nullptr;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

struct EnumInfo {
  std::string name;
  std::vector<std::string> enumerators;
  std::uint32_t line = 0;
  const SourceFile* file = nullptr;
};

struct Model {
  /// Classes by name, merged across files (out-of-line definitions attach
  /// to the class entry; a redefinition in another file merges methods).
  std::map<std::string, ClassInfo> classes;

  /// Enumerations by (unqualified) name, first definition wins.
  std::map<std::string, EnumInfo> enums;

  /// Every file parsed into this model, in parse order.
  std::vector<const SourceFile*> files;

  /// True iff `name` transitively derives from `root` (default: the
  /// guarded-action base class). Unknown bases terminate the walk.
  [[nodiscard]] bool derives_from(const std::string& name,
                                  const std::string& root = "Process") const;

  /// All methods of `cls` with the given name (declarations and
  /// definitions; out-of-line definitions included).
  [[nodiscard]] std::vector<const MethodInfo*> methods_named(
      const ClassInfo& cls, const std::string& name) const;

  /// True iff the class declares a non-const member function `name`
  /// (used by the guard-purity check for same-class calls).
  [[nodiscard]] bool has_nonconst_method(const ClassInfo& cls,
                                         const std::string& name) const;

  /// True for classes with the guarded-action shape: Process subclasses
  /// and the batch mirrors, which expose enabled()/fire() without deriving.
  [[nodiscard]] bool guarded_shape(const std::string& name,
                                   const ClassInfo& cls) const;
};

/// Parses one lexed file into the model (call once per file; the file must
/// outlive the model).
void parse_file(const SourceFile& file, Model& model);

// ---------------------------------------------------------------------------
// Statement model

struct Stmt {
  enum class Kind : std::uint8_t {
    kExpr,    ///< expression / declaration statement
    kBlock,   ///< `{ ... }`, or one case segment of a switch
    kIf,      ///< children: then[, else]
    kLoop,    ///< while/for/do body
    kSwitch,  ///< children: one kBlock segment per case/default label
    kReturn,
    kBreak,   ///< break / continue
    kJump,    ///< goto / throw / a no-return call such as HRING_ASSERT(false)
  };
  Kind kind = Kind::kExpr;
  /// Token range of the whole statement, including any condition. A case
  /// segment runs from its label to the next label or the closing brace.
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Condition range for if/loop/switch ([cond_begin, cond_end)).
  std::size_t cond_begin = 0;
  std::size_t cond_end = 0;
  std::vector<Stmt> children;
};

/// Parses the body token range [begin, end) into a statement tree rooted
/// at a kBlock.
[[nodiscard]] Stmt build_stmt_tree(const SourceFile& file, std::size_t begin,
                                   std::size_t end);

/// True when token index `tok` lies inside a loop statement of `root`
/// (body or condition).
[[nodiscard]] bool loop_enclosed(const Stmt& root, std::size_t tok);

/// True when some token in [from, to) is guaranteed to execute before
/// token `tok` on every path through the tree: the range intersects a
/// preceding sibling (or earlier tokens of the same statement) on the
/// ancestor chain of `tok`. Conditional branches and other case segments
/// that merely *may* run do not count.
[[nodiscard]] bool dominated_by_range(const Stmt& root, std::size_t tok,
                                      std::size_t from, std::size_t to);

}  // namespace hring::lint
