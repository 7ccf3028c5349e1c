// apiary_lint: a repo-native static analyzer for the Apiary codebase.
//
// The simulator's core guarantees — byte-identical replay from a seed,
// Monitor-interposed accelerator isolation, and a fully-handled stable
// service ABI — are invariants the C++ compiler cannot see. This analyzer
// enforces them mechanically:
//
//   apiary-determinism     no ambient randomness / wall-clock / hash-order
//                          dependence in simulation state
//   apiary-layering        the allowed include DAG between src/ subsystems
//   apiary-opcode-coverage every kOp* constant has a handler and a test,
//                          lives in an ABI header and has its own value
//   apiary-include-guard   SRC_PATH_H_ include-guard convention
//   apiary-debug-name      Clocked subclasses override DebugName()
//   apiary-nodiscard       capability/segment-minting APIs are [[nodiscard]]
//   apiary-hot-path        packets come from PacketPool, payloads ride in
//                          PayloadBuf (no per-message heap allocation); the
//                          express corridor planner/reservation files never
//                          allocate outside one-time Configure()
//   apiary-global-state    no unannotated process-global mutable state under
//                          src/ (survivors carry APIARY-SHARED(<domain>))
//   apiary-domain-confinement
//                          raw pointer/reference members may not cross the
//                          sim/noc/core domain boundary except through
//                          registered channel types
//   apiary-sync-discipline ad-hoc std::mutex/std::atomic/thread_local are
//                          banned under src/ outside src/sim/thread_domain.*
//   apiary-wire-writer     NocPacket::CorruptWireBit, the one in-flight
//                          wire-image writer, is called only from src/fault/
//   apiary-wake-path       a NextActivity() that can declare kNoActivity
//                          ("idle until external input") must show its wake
//                          path or name its waker with APIARY-WAKE
//   apiary-nolint-reason   every NOLINT(apiary-*) carries a ": <reason>"
//
// Any finding is suppressible in-line with clang-tidy style markers:
//   // NOLINT(apiary-<check>): <reason>          suppress on this line
//   // NOLINTNEXTLINE(apiary-<check>): <reason>  suppress on the next line
// A bare NOLINT (no parenthesized list) suppresses every apiary check on
// the line. Suppressions naming an apiary check must carry a ": <reason>"
// suffix (enforced by apiary-nolint-reason).
//
// A block that declares kNoActivity parks until someone wakes it; state
// mutated behind a parked block's back is exactly the bug class the
// active-set scheduler turns from "perf loss" into "missed work". When the
// wake path is not visible in the block's own .h/.cc pair, the waker is
// named on or directly above the NextActivity definition:
//   // APIARY-WAKE(<source>): <reason>
// where <source> names who ends the quiescence (e.g. "tile", "owner",
// "self") and <reason> says how the input reaches a Tick.
//
// Global mutable state that is *deliberately* shared (a process-wide
// observability sink, an ablation toggle) is kept alive with the sanctioned
// annotation on or directly above the declaration:
//   // APIARY-SHARED(<domain>): <reason>
// where <domain> names the sharing scope (e.g. "process") and <reason> says
// why the state cannot be domain-local. The annotation is the audit trail
// for every piece of state two simulators in one process would share.
//
// Implementation: a hand-rolled lexer strips comments and string/char
// literals (so commented-out code never fires) and records NOLINT markers,
// then per-file line scans plus one corpus-wide include-graph/opcode pass
// produce findings. No libclang dependency.
#ifndef TOOLS_APIARY_LINT_LINT_H_
#define TOOLS_APIARY_LINT_LINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace apiary {
namespace lint {

struct Finding {
  std::string file;   // Repo-relative path, '/'-separated.
  int line = 0;       // 1-based; 0 for whole-file findings.
  std::string check;  // e.g. "apiary-determinism".
  std::string message;

  std::string ToString() const;
};

// One APIARY-SHARED annotation parsed from a comment.
enum class SharedAnnotation : uint8_t {
  kNone = 0,       // No annotation on this line.
  kOk = 1,         // APIARY-SHARED(<domain>): <reason> — well-formed.
  kMalformed = 2,  // Marker present but domain or reason missing.
};

// A lexed source file: raw lines (for include parsing and NOLINT markers)
// plus "code" lines with comments and string/char literals blanked out.
struct SourceFile {
  std::string path;  // Repo-relative, '/'-separated.
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
  // Per-line suppression lists; "*" suppresses every apiary check.
  std::vector<std::vector<std::string>> nolint;
  // Per-line APIARY-SHARED(<domain>): <reason> annotations. An annotation
  // blesses the global declared on its own line or the line below it.
  std::vector<SharedAnnotation> shared;

  bool IsSuppressed(int line, const std::string& check) const;
  // True when `line` (1-based) carries or sits under a well-formed
  // APIARY-SHARED annotation.
  bool IsSharedAnnotated(int line) const;
};

// Lexes `content` as C++ source: strips // and /* */ comments and string
// and character literals from the code view, records NOLINT markers.
SourceFile LexSource(std::string path, const std::string& content);

// Reads and lexes a file from disk. Returns false on I/O failure.
bool LoadSource(const std::string& absolute_path, const std::string& repo_relative_path,
                SourceFile* out);

struct LintConfig {
  // --- apiary-determinism ---
  // Fully-qualified identifiers banned outright (leading+trailing
  // identifier boundary).
  std::vector<std::string> banned_identifiers;
  // Function names banned when called: identifier boundary before, '(' after.
  std::vector<std::string> banned_calls;
  // Banned substrings (trailing boundary only), e.g. "_clock::now" which
  // catches every std::chrono clock.
  std::vector<std::string> banned_suffixes;
  // Hash-ordered containers banned in simulation state (src/ only).
  std::vector<std::string> banned_containers;
  // Path prefixes exempt from the determinism check (the seeded RNG itself,
  // and stats/ which only aggregates).
  std::vector<std::string> determinism_exempt_prefixes;
  // Where randomness is supposed to come from (for the finding message).
  std::string randomness_home;

  // --- apiary-layering ---
  // Allowed include edges: src/<dir>/ may include src/<d>/ for each d in
  // layering[dir]. A src/ subdirectory absent from the map is itself a
  // violation (every layer must be declared).
  std::map<std::string, std::vector<std::string>> layering;
  // Exact include targets allowed from anywhere (the stable wire-ABI
  // headers; analogous to a syscall-number header visible to userland).
  std::vector<std::string> layering_exempt_includes;

  // --- apiary-hot-path ---
  // Path prefixes where the hot-path memory discipline does not apply: the
  // pool/serialization layer itself, which is the one place allowed to
  // allocate packets and touch raw wire vectors.
  std::vector<std::string> hot_path_exempt_prefixes;
  // Path prefixes holding the express corridor planner and reservation
  // structures. Corridor launch, conflict scanning, and materialization all
  // run on the executed-cycle path, so these files may not allocate at all
  // outside the one-time Configure() sizing: no new/make_unique/make_shared
  // and no container assign/resize/reserve. Reservation state is sized once
  // and recycled in place.
  std::vector<std::string> express_hot_path_prefixes;
  // Path prefixes whose counters are typed uint64_t fields: a string-literal
  // `counters_.Add("...")` there builds a std::string key and does a
  // std::map lookup per event (once per flit in the router and NI).
  std::vector<std::string> typed_counter_prefixes;
  // Path prefixes of the per-cycle fabric (mesh, router, NI), where sweep
  // and arbitration order come from bit walks: a std::sort or
  // std::stable_sort there re-sorts on every executed cycle.
  std::vector<std::string> fabric_sort_prefixes;

  // --- apiary-wire-writer ---
  // The in-flight wire-image mutator: the ejecting NI re-hashes only packets
  // it marked, so any other caller would write bytes no checksum covers.
  std::string wire_writer;
  // Path prefixes that may name it: the fault hooks, and its defining header.
  std::vector<std::string> wire_writer_allowed_prefixes;

  // --- apiary-opcode-coverage ---
  // Path suffixes of the headers that define the opcode ABI.
  std::vector<std::string> opcode_def_files;

  // --- apiary-nodiscard ---
  // Path suffixes of headers whose minting APIs must be [[nodiscard]].
  std::vector<std::string> nodiscard_files;
  // Return types that mint capabilities/segments.
  std::vector<std::string> nodiscard_types;

  // --- apiary-global-state ---
  // Path prefixes exempt from the global-state check (none by default: the
  // APIARY-SHARED annotation is the only sanctioned escape).
  std::vector<std::string> global_state_exempt_prefixes;

  // --- apiary-domain-confinement ---
  // The layers whose types hang off one simulator's domain: a raw
  // pointer/reference member to one of these types from a *different* layer
  // is a cross-domain edge.
  std::vector<std::string> confined_layers;
  // Registered channel/handle types that are the sanctioned way to cross a
  // domain boundary (the NI injection surface, the simulator substrate, the
  // per-domain context, intrusive packet refs).
  std::vector<std::string> confinement_channel_types;

  // --- apiary-sync-discipline ---
  // Synchronization identifiers banned under src/.
  std::vector<std::string> banned_sync_identifiers;
  // The one reviewed home where synchronization may live.
  std::vector<std::string> sync_allowed_prefixes;

  // --- apiary-wake-path ---
  // Substrings that count as a visible wake integration in a block's
  // .h/.cc pair: firing or handing out a wake.
  std::vector<std::string> wake_evidence;
};

// The Apiary repo policy (see tools/apiary_lint/README.md for rationale).
LintConfig DefaultConfig();

// Per-file checks. Findings are appended unfiltered; RunAllChecks applies
// NOLINT suppression.
void CheckDeterminism(const SourceFile& file, const LintConfig& config,
                      std::vector<Finding>* findings);
void CheckLayering(const SourceFile& file, const LintConfig& config,
                   std::vector<Finding>* findings);
void CheckIncludeGuard(const SourceFile& file, const LintConfig& config,
                       std::vector<Finding>* findings);
void CheckDebugName(const SourceFile& file, const LintConfig& config,
                    std::vector<Finding>* findings);
void CheckNodiscard(const SourceFile& file, const LintConfig& config,
                    std::vector<Finding>* findings);
// Hot-path memory discipline (DESIGN.md): under src/, NocPackets must come
// from PacketPool::Acquire() — never std::make_shared<NocPacket> or a bare
// new NocPacket — and message payloads ride in PayloadBuf, so a
// std::vector<uint8_t> touching a payload reintroduces per-message heap
// allocation. The pool/serialization layer itself is exempt.
void CheckHotPath(const SourceFile& file, const LintConfig& config,
                  std::vector<Finding>* findings);
// Shared-state analysis (DESIGN.md "Domain confinement"): under src/, any
// non-const namespace-scope global, function-local static mutable (Meyers
// singleton included), or mutable static data member is process-shared
// state that every simulator in the process would share. Survivors must carry an
// // APIARY-SHARED(<domain>): <reason> annotation on or above the line.
void CheckGlobalState(const SourceFile& file, const LintConfig& config,
                      std::vector<Finding>* findings);
// Synchronization discipline: ad-hoc std::mutex/std::atomic/thread_local
// under src/ is banned outside the allow-listed src/sim/thread_domain.{h,cc},
// so the tree's one piece of thread-affine state is in one reviewed place.
void CheckSyncDiscipline(const SourceFile& file, const LintConfig& config,
                         std::vector<Finding>* findings);
// Suppression hygiene: a NOLINT/NOLINTNEXTLINE list naming an apiary-*
// check must carry a ": <reason>" suffix — the reason is the audit trail.
void CheckNolintReason(const SourceFile& file, const LintConfig& config,
                       std::vector<Finding>* findings);

// Corpus-wide: every kOp* constant in an opcode-ABI header must be
// referenced by a handler under src/ and by at least one file under tests/.
// The tests/ requirement is enforced only when the corpus includes tests/
// (so `apiary_lint src` alone stays meaningful). A kOp* constant defined
// elsewhere under src/, and two under src/ with one value (literals and
// `kOpAppBase + n` resolved), are findings too.
void CheckOpcodeCoverage(const std::vector<SourceFile>& files, const LintConfig& config,
                         std::vector<Finding>* findings);

// Corpus-wide (the declaration and its wake often live in different files
// of a .h/.cc pair): under src/, a NextActivity() definition whose body can
// return kNoActivity declares "idle until external input" — the active-set
// scheduler will park the block on it. The pair must then show a wake
// integration (RequestWake/WakeHint), or the definition must carry an
// // APIARY-WAKE(<source>): <reason> annotation naming who wakes it. A
// parked block whose input arrives with no wake is missed work, not a
// perf loss (DESIGN.md §"Simulation substrate").
void CheckWakePath(const std::vector<SourceFile>& files, const LintConfig& config,
                   std::vector<Finding>* findings);

// Corpus-wide, symbol-table-aware: builds a class/struct -> src layer table
// from definitions, then flags raw pointer/reference *members* whose pointee
// type lives in a different confined layer (sim/noc/core) than the declaring
// file. Cross-domain state must ride PacketRef, capability handles, or a
// registered channel type — that discipline keeps each simulator's state
// reachable only from its own domain.
void CheckDomainConfinement(const std::vector<SourceFile>& files, const LintConfig& config,
                            std::vector<Finding>* findings);

// Runs every check over the corpus, drops NOLINT-suppressed findings, and
// returns the rest sorted by (file, line, check).
std::vector<Finding> RunAllChecks(const std::vector<SourceFile>& files,
                                  const LintConfig& config);

}  // namespace lint
}  // namespace apiary

#endif  // TOOLS_APIARY_LINT_LINT_H_
