// Concurrency-discipline model and checks (tools/hring_lint).
//
// Layer 5 of the static-analysis stack (docs/STATIC_ANALYSIS.md): the
// paper's unidirectional FIFO links make every cross-thread edge in the
// runtime a producer→consumer pair with a fixed ownership story, so the
// discipline the in-host runtime follows by convention — own cursor
// relaxed, opposite cursor acquire, publish with release, publish before
// ringing the doorbell, re-check after waking, decode before trusting
// wire bytes — can be stated as source-level rules and enforced on every
// path, not just the schedules TSan happens to observe.
//
// Annotation grammar (comments read by this model):
//
//   // hring-role: producer|consumer|coordinator|watchdog
//       Up to four lines above a function. Attributes every access in the
//       body to that thread role.
//   // hring-shared: <writers>-><readers>
//   // hring-shared: <role-list>
//       On a member's line or the line directly above. The arrow form
//       declares single-owner publication: roles left of `->` own (write)
//       the member, roles right of it observe it. The list form declares
//       mutex- or RMW-mediated sharing among the listed roles with no
//       single owner; only access control applies. Role lists are
//       comma-separated.
//
// The checks (dispatched from run_checks alongside the token and IR
// levels):
//
//   spsc-ownership        a role stores only its own cursor; owner loads
//                         are relaxed, opposite-role loads acquire, the
//                         publishing store release (Lamport SPSC, as in
//                         runtime/inhost/spsc_queue.hpp).
//   pairing               every release publication of an atomic member
//                         has an acquire-side observer reachable from a
//                         different role, and vice versa; one-sided
//                         std::atomic_thread_fence use is diagnosed.
//   lost-wakeup           a doorbell notify is dominated by its
//                         publication store; futex waits sit inside
//                         re-check loops (directly or at every call site
//                         of a named park primitive); condition-variable
//                         waits carry a predicate.
//   no-block-in-hot-path  no sleep/yield/futex/blocking-syscall sink is
//                         reachable in the call graph from enabled(),
//                         fire(), or a hot-path-annotated root.
//   decode-before-trust   raw wire bytes (wire::Frame locals, byte-buffer
//                         locals) reach protocol state only through
//                         wire::decode; any other read of undecoded bytes
//                         is diagnosed.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "diagnostics.hpp"
#include "source_model.hpp"

namespace hring::lint {

// ---------------------------------------------------------------------------
// Thread roles

enum class Role : std::uint8_t {
  kProducer = 0,
  kConsumer = 1,
  kCoordinator = 2,
  kWatchdog = 3,
};
inline constexpr std::size_t kNumRoles = 4;

/// Role name as spelled in annotations; nullopt for unknown words.
[[nodiscard]] std::optional<Role> parse_role(std::string_view word);
[[nodiscard]] std::string_view role_name(Role role);

/// A set of roles (bitmask over Role).
struct RoleSet {
  std::uint8_t bits = 0;

  void add(Role r) { bits = static_cast<std::uint8_t>(bits | (1u << static_cast<unsigned>(r))); }
  [[nodiscard]] bool contains(Role r) const {
    return (bits & (1u << static_cast<unsigned>(r))) != 0;
  }
  [[nodiscard]] bool empty() const { return bits == 0; }
  /// Comma-joined role names, annotation order.
  [[nodiscard]] std::string render() const;
};

/// The `// hring-role:` annotation nearest above `line` (within four
/// lines), or nullopt. `malformed` reporting is the caller's job: an
/// hring-role comment with an unknown role word yields nullopt here and a
/// diagnostic from the spsc-ownership check.
[[nodiscard]] std::optional<Role> function_role(const SourceFile& file,
                                                std::uint32_t line);

/// A member's `// hring-shared:` declaration.
struct SharedDecl {
  std::string member;
  RoleSet writers;      // arrow form: owners; list form: the whole set
  RoleSet readers;      // arrow form only; empty in list form
  bool has_arrow = false;
  std::uint32_t line = 0;  // member declaration line
  bool malformed = false;
};

/// All hring-shared declarations of `file`, resolved to the member name
/// declared on the annotation's line (or the line below a standalone
/// comment). Used per-file, matching the atomics-discipline receiver
/// resolution.
[[nodiscard]] std::vector<SharedDecl> shared_decls(const SourceFile& file);

/// Names declared std::atomic<...> in `file` (members and locals alike).
/// Receivers resolve per file: atomics here are always used where they
/// are declared, and a global set would trip on unrelated plain variables
/// that happen to share a name across files.
[[nodiscard]] std::set<std::string> atomic_names_of(const SourceFile& file);

// ---------------------------------------------------------------------------
// The five concurrency checks (dispatched by run_checks)

void check_spsc_ownership(const Model& model, std::vector<Diagnostic>& diags);
void check_pairing(const Model& model, std::vector<Diagnostic>& diags);
void check_lost_wakeup(const Model& model, std::vector<Diagnostic>& diags);
void check_no_block_in_hot_path(const Model& model,
                                std::vector<Diagnostic>& diags);
void check_decode_before_trust(const Model& model,
                               std::vector<Diagnostic>& diags);

}  // namespace hring::lint
