#include "tools/apiary_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

namespace apiary {
namespace lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool MatchesAnySuffix(const std::string& path, const std::vector<std::string>& suffixes) {
  for (const auto& suffix : suffixes) {
    if (EndsWith(path, suffix)) {
      return true;
    }
  }
  return false;
}

std::string Trimmed(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

// Finds occurrences of `token` in `line` with an identifier boundary on
// both sides ('::'-qualified tokens also require the leading char not be
// ':'). Returns byte offsets of each occurrence.
std::vector<size_t> FindIdentifier(const std::string& line, const std::string& token) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool head_ok =
        pos == 0 || (!IsIdentChar(line[pos - 1]) && line[pos - 1] != ':');
    const size_t after = pos + token.size();
    const bool tail_ok = after >= line.size() || !IsIdentChar(line[after]);
    if (head_ok && tail_ok) {
      hits.push_back(pos);
    }
    pos += token.size();
  }
  return hits;
}

// True when line contains a *call* of `name`: identifier boundary before
// (and not a member access or qualified name), '(' after optional spaces.
bool FindCall(const std::string& line, const std::string& name) {
  size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string::npos) {
    const bool head_ok = pos == 0 || (!IsIdentChar(line[pos - 1]) && line[pos - 1] != ':' &&
                                      line[pos - 1] != '.' && line[pos - 1] != '>');
    size_t after = pos + name.size();
    while (after < line.size() && (line[after] == ' ' || line[after] == '\t')) {
      ++after;
    }
    if (head_ok && after < line.size() && line[after] == '(') {
      return true;
    }
    pos += name.size();
  }
  return false;
}

// Parses `#include "target"` from a raw line; empty string when absent.
std::string ParseQuotedInclude(const std::string& raw) {
  const std::string trimmed = Trimmed(raw);
  if (trimmed.empty() || trimmed[0] != '#') {
    return "";
  }
  size_t pos = trimmed.find_first_not_of(" \t", 1);
  if (pos == std::string::npos || trimmed.compare(pos, 7, "include") != 0) {
    return "";
  }
  size_t open = trimmed.find('"', pos + 7);
  if (open == std::string::npos) {
    return "";
  }
  size_t close = trimmed.find('"', open + 1);
  if (close == std::string::npos) {
    return "";
  }
  return trimmed.substr(open + 1, close - open - 1);
}

// Top-level directory under src/ for a repo-relative path, or "" if the
// path is not of the form src/<dir>/...
std::string SrcLayer(const std::string& path) {
  if (!StartsWith(path, "src/")) {
    return "";
  }
  size_t slash = path.find('/', 4);
  if (slash == std::string::npos) {
    return "";
  }
  return path.substr(4, slash - 4);
}

// Records the check names listed in "(...)" after a NOLINT marker at
// `after` in `line`; a bare marker records "*".
std::vector<std::string> ParseNolintList(const std::string& line, size_t after) {
  std::vector<std::string> checks;
  if (after < line.size() && line[after] == '(') {
    size_t close = line.find(')', after);
    if (close != std::string::npos) {
      std::string inside = line.substr(after + 1, close - after - 1);
      std::stringstream ss(inside);
      std::string item;
      while (std::getline(ss, item, ',')) {
        item = Trimmed(item);
        if (!item.empty()) {
          checks.push_back(item);
        }
      }
      return checks;
    }
  }
  checks.push_back("*");
  return checks;
}

// Parses the shared "(<tag>): <reason>" annotation grammar starting at
// `pos` (just past the marker). Well-formed means: non-empty parenthesized
// tag, a ':' after the close paren, and a non-empty reason after the colon.
SharedAnnotation ParseAnnotationGrammar(const std::string& raw, size_t pos) {
  if (pos >= raw.size() || raw[pos] != '(') {
    return SharedAnnotation::kMalformed;
  }
  size_t close = raw.find(')', pos);
  if (close == std::string::npos || Trimmed(raw.substr(pos + 1, close - pos - 1)).empty()) {
    return SharedAnnotation::kMalformed;
  }
  pos = close + 1;
  while (pos < raw.size() && (raw[pos] == ' ' || raw[pos] == '\t')) {
    ++pos;
  }
  if (pos >= raw.size() || raw[pos] != ':') {
    return SharedAnnotation::kMalformed;
  }
  if (Trimmed(raw.substr(pos + 1)).empty()) {
    return SharedAnnotation::kMalformed;
  }
  return SharedAnnotation::kOk;
}

SharedAnnotation ParseSharedAnnotation(const std::string& raw, size_t marker_pos) {
  return ParseAnnotationGrammar(raw, marker_pos + 13);  // strlen("APIARY-SHARED")
}

// "APIARY-WAKE(<source>): <reason>" shares the grammar; only the marker
// (and what the tag names — a waker, not a sharing domain) differs.
SharedAnnotation ParseWakeAnnotation(const std::string& raw, size_t marker_pos) {
  return ParseAnnotationGrammar(raw, marker_pos + 11);  // strlen("APIARY-WAKE")
}

std::string ExpectedGuard(const std::string& path) {
  std::string guard;
  guard.reserve(path.size() + 1);
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    } else {
      guard.push_back('_');
    }
  }
  guard.push_back('_');
  return guard;
}

}  // namespace

std::string Finding::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << check << "] " << message;
  return os.str();
}

bool SourceFile::IsSuppressed(int line, const std::string& check) const {
  if (line < 1 || line > static_cast<int>(nolint.size())) {
    return false;
  }
  for (const auto& entry : nolint[line - 1]) {
    if (entry == "*" || entry == check) {
      return true;
    }
  }
  return false;
}

bool SourceFile::IsSharedAnnotated(int line) const {
  // The annotation blesses the declaration on its own line (trailing
  // comment) or on the line directly below it (comment-above style).
  for (int candidate : {line, line - 1}) {
    if (candidate >= 1 && candidate <= static_cast<int>(shared.size()) &&
        shared[candidate - 1] == SharedAnnotation::kOk) {
      return true;
    }
  }
  return false;
}

SourceFile LexSource(std::string path, const std::string& content) {
  SourceFile file;
  file.path = std::move(path);

  // Split into lines (keeping structure for both raw and code views).
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    lines.push_back(current);
  }
  file.raw_lines = lines;
  file.nolint.assign(lines.size(), {});
  file.shared.assign(lines.size(), SharedAnnotation::kNone);

  // Record APIARY-SHARED annotations from the raw text (they live inside
  // comments, which the code view erases).
  for (size_t i = 0; i < lines.size(); ++i) {
    size_t pos = lines[i].find("APIARY-SHARED");
    if (pos != std::string::npos) {
      file.shared[i] = ParseSharedAnnotation(lines[i], pos);
    }
  }

  // Record NOLINT markers from the raw text (they live inside comments,
  // which the code view erases). NOLINTNEXTLINE is matched first since
  // NOLINT is a prefix of it.
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& raw = lines[i];
    size_t pos = 0;
    while ((pos = raw.find("NOLINT", pos)) != std::string::npos) {
      if (raw.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
        auto checks = ParseNolintList(raw, pos + 14);
        if (i + 1 < file.nolint.size()) {
          auto& dst = file.nolint[i + 1];
          dst.insert(dst.end(), checks.begin(), checks.end());
        }
        pos += 14;
      } else {
        auto checks = ParseNolintList(raw, pos + 6);
        auto& dst = file.nolint[i];
        dst.insert(dst.end(), checks.begin(), checks.end());
        pos += 6;
      }
    }
  }

  // Build the code view: comments and string/char literals blanked.
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // Delimiter for raw string literals: )<delim>"
  file.code_lines.reserve(lines.size());
  for (const std::string& raw : lines) {
    std::string code;
    code.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            code.append(raw.size() - i, ' ');
            i = raw.size();
            break;
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            code.append(2, ' ');
            ++i;
          } else if (c == '"' && i >= 1 && raw[i - 1] == 'R') {
            // Raw string literal R"delim( ... )delim".
            size_t open = raw.find('(', i + 1);
            raw_delim = ")" + raw.substr(i + 1, open == std::string::npos
                                                    ? std::string::npos
                                                    : open - i - 1) + "\"";
            state = State::kRawString;
            code.push_back(' ');
          } else if (c == '"') {
            state = State::kString;
            code.push_back(' ');
          } else if (c == '\'' && !(i >= 1 && IsIdentChar(raw[i - 1]))) {
            // Skip digit separators like 1'000'000 (preceded by idents).
            state = State::kChar;
            code.push_back(' ');
          } else {
            code.push_back(c);
          }
          break;
        case State::kLineComment:
          code.push_back(' ');
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            code.append(2, ' ');
            ++i;
          } else {
            code.push_back(' ');
          }
          break;
        case State::kString:
          if (c == '\\') {
            code.append(i + 1 < raw.size() ? 2 : 1, ' ');
            ++i;
          } else if (c == '"') {
            state = State::kCode;
            code.push_back(' ');
          } else {
            code.push_back(' ');
          }
          break;
        case State::kChar:
          if (c == '\\') {
            code.append(i + 1 < raw.size() ? 2 : 1, ' ');
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
            code.push_back(' ');
          } else {
            code.push_back(' ');
          }
          break;
        case State::kRawString:
          if (raw.compare(i, raw_delim.size(), raw_delim) == 0) {
            code.append(raw_delim.size(), ' ');
            i += raw_delim.size() - 1;
            state = State::kCode;
          } else {
            code.push_back(' ');
          }
          break;
      }
    }
    // Line comments never span lines.
    if (state == State::kLineComment || state == State::kString || state == State::kChar) {
      state = State::kCode;
    }
    file.code_lines.push_back(std::move(code));
  }
  return file;
}

bool LoadSource(const std::string& absolute_path, const std::string& repo_relative_path,
                SourceFile* out) {
  std::ifstream in(absolute_path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = LexSource(repo_relative_path, buffer.str());
  return true;
}

LintConfig DefaultConfig() {
  LintConfig config;

  // Determinism: every run must replay byte-identically from its seed
  // (the chaos campaigns in bench/a9 and the determinism tests rely on it).
  config.banned_identifiers = {"std::random_device", "std::mt19937", "std::mt19937_64"};
  config.banned_calls = {"rand", "srand", "time", "clock", "getrandom"};
  config.banned_suffixes = {"_clock::now"};
  config.banned_containers = {"std::unordered_map", "std::unordered_set",
                              "std::unordered_multimap", "std::unordered_multiset"};
  config.determinism_exempt_prefixes = {"src/stats/", "src/sim/random."};
  config.randomness_home = "src/sim/random.h";

  // Layering: sim is the root; accel (untrusted logic) may reach only the
  // Monitor-facing surface (core) and the simulator substrate — never mem
  // or noc directly, mirroring the paper's Monitor-interposition guarantee.
  // baseline must not include services (it models the no-OS world).
  config.layering = {
      {"sim", {"sim"}},
      {"stats", {"stats", "sim"}},
      {"mem", {"mem", "sim", "stats"}},
      {"noc", {"noc", "sim", "stats"}},
      {"fpga", {"fpga", "mem", "noc", "sim", "stats"}},
      {"core", {"core", "fpga", "mem", "noc", "sim", "stats"}},
      {"services", {"services", "core", "fpga", "mem", "noc", "sim", "stats"}},
      // Orchestration sits above services (it drives the supervisor and load
      // balancer) but below applications: accel/baseline must not see it.
      {"orch", {"orch", "core", "fpga", "services", "sim", "stats"}},
      {"fault", {"fault", "core", "fpga", "mem", "noc", "sim", "stats"}},
      // Tenant policy sits above orchestration (it owns quotas that the
      // scheduler, services and NoC enforce) but must never reach into
      // accel: tenants are principals, not accelerator logic.
      {"tenant",
       {"tenant", "orch", "services", "fault", "core", "fpga", "mem", "noc", "sim", "stats"}},
      {"accel", {"accel", "core", "sim", "stats"}},
      {"baseline", {"baseline", "fpga", "mem", "noc", "sim", "stats"}},
      {"workload", {"workload", "accel", "core", "services", "fpga", "sim", "stats"}},
  };
  // The opcode ABI header is the one services/ surface accelerators may
  // see: it is pure wire constants (Section 4.3's stable interface), the
  // moral equivalent of a syscall-number header.
  config.layering_exempt_includes = {"src/services/opcodes.h"};

  config.opcode_def_files = {"src/services/opcodes.h", "src/accel/accel_opcodes.h"};

  // Only a fault writes a wire image in flight; the NI verifies exactly the
  // packets that writer marked.
  config.wire_writer = "CorruptWireBit";
  config.wire_writer_allowed_prefixes = {"src/fault/", "src/noc/packet.h"};

  // Hot path: only the pool/serialization layer may allocate packets or
  // materialize contiguous wire vectors (the legacy-alloc ablation lives
  // there too).
  // The external Ethernet fabric (frames to/from simulated client hosts) is
  // a different wire domain from the NoC: its frame buffers are vectors by
  // design and never ride the executed-cycle packet path.
  config.hot_path_exempt_prefixes = {"src/noc/packet_pool.", "src/core/message.",
                                     "src/sim/payload_buf.", "src/fpga/ethernet.",
                                     "src/services/transport."};
  // The corridor planner/reservation layer: launch and materialize run on
  // the executed-cycle path, so allocation is confined to Configure().
  config.express_hot_path_prefixes = {"src/noc/express"};
  // Router and NI counters fire per probe and per flit; they are plain
  // fields, rendered into a CounterSet only when someone asks.
  config.typed_counter_prefixes = {"src/noc/router.", "src/noc/network_interface."};
  // The per-cycle fabric keeps its live sets and request masks as bitsets
  // walked lowest bit first, which is already ascending tile/port order.
  config.fabric_sort_prefixes = {"src/noc/mesh.", "src/noc/router.",
                                 "src/noc/network_interface."};

  // src/sim/clocked.h rides along for quiescence hygiene: an ignored
  // NextActivity() result means a computed wake-up cycle was dropped on the
  // floor, the same leak shape as an orphaned capability.
  config.nodiscard_files = {"src/core/capability.h", "src/core/kernel.h",
                            "src/mem/segment_allocator.h", "src/sim/clocked.h"};
  config.nodiscard_types = {"CapRef", "std::optional<CapRef>", "std::optional<Segment>",
                            "Cycle"};

  // Global state: no path is exempt — the APIARY-SHARED annotation is the
  // only sanctioned way to keep process-global mutable state alive, so
  // every survivor carries its own audit trail.
  config.global_state_exempt_prefixes = {};

  // Domain confinement: these layers hold the per-simulator state that
  // hangs off one SimContext. A raw pointer or reference member crossing
  // between them is an edge that could tie one simulator's state to
  // another's unless it rides one of the registered channel types below.
  config.confined_layers = {"sim", "noc", "core"};
  // Sanctioned crossing points: the simulator substrate every block is
  // built on, the per-domain context, the NI injection surface, intrusive
  // packet refs, and the pool/arena handles SimContext hands out.
  config.confinement_channel_types = {"Simulator", "SimContext", "Clocked",
                                      "NetworkInterface", "PacketRef", "PacketPool",
                                      "PayloadArena", "Rng"};

  // Sync discipline: the only thread-affine state in simulator code is the
  // current-domain pointer in src/sim/thread_domain.{h,cc}. Each simulator
  // owns one SimContext and a process may run several simulators, so
  // ad-hoc mutexes and atomics elsewhere are how shared state sneaks back in.
  config.banned_sync_identifiers = {
      "std::mutex", "std::recursive_mutex", "std::timed_mutex",
      "std::recursive_timed_mutex", "std::shared_mutex", "std::shared_timed_mutex",
      "std::atomic", "std::atomic_flag", "std::atomic_bool", "std::atomic_int",
      "std::atomic_uint", "std::atomic_size_t", "std::atomic_uint64_t",
      "std::atomic_thread_fence", "std::atomic_signal_fence", "std::memory_order",
      "std::condition_variable", "std::condition_variable_any",
      "std::thread", "std::jthread", "std::async", "std::future", "std::promise",
      "std::lock_guard", "std::unique_lock", "std::scoped_lock", "std::shared_lock",
      "std::call_once", "std::once_flag", "std::counting_semaphore",
      "std::binary_semaphore", "std::latch", "std::barrier", "thread_local"};
  config.sync_allowed_prefixes = {"src/sim/thread_domain."};

  // Wake path: what counts as a visible wake integration. Firing or handing
  // out a wake handle proves input delivery ends quiescence. There is no
  // opt-out: every block parks.
  config.wake_evidence = {"RequestWake(", "WakeHint", ".Wake("};
  return config;
}

void CheckDeterminism(const SourceFile& file, const LintConfig& config,
                      std::vector<Finding>* findings) {
  for (const auto& prefix : config.determinism_exempt_prefixes) {
    if (StartsWith(file.path, prefix)) {
      return;
    }
  }
  const bool in_sim_state = StartsWith(file.path, "src/");
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    for (const auto& ident : config.banned_identifiers) {
      if (!FindIdentifier(line, ident).empty()) {
        findings->push_back({file.path, lineno, "apiary-determinism",
                             ident + " breaks seeded replay; draw randomness from " +
                                 config.randomness_home});
      }
    }
    for (const auto& call : config.banned_calls) {
      if (FindCall(line, call)) {
        findings->push_back({file.path, lineno, "apiary-determinism",
                             call + "() is nondeterministic across runs; use the seeded " +
                                 "Rng (" + config.randomness_home + ") or simulator time"});
      }
    }
    for (const auto& suffix : config.banned_suffixes) {
      size_t pos = line.find(suffix);
      if (pos != std::string::npos) {
        const size_t after = pos + suffix.size();
        if (after >= line.size() || !IsIdentChar(line[after])) {
          findings->push_back({file.path, lineno, "apiary-determinism",
                               "wall-clock reads (" + suffix + ") are nondeterministic; " +
                                   "use Simulator::now() cycles"});
        }
      }
    }
    if (in_sim_state) {
      for (const auto& container : config.banned_containers) {
        if (!FindIdentifier(line, container).empty()) {
          findings->push_back(
              {file.path, lineno, "apiary-determinism",
               container + " has seed-visible iteration order; use std::map/std::set, or "
                           "suppress with // NOLINT(apiary-determinism) if never iterated"});
        }
      }
    }
  }
}

void CheckLayering(const SourceFile& file, const LintConfig& config,
                   std::vector<Finding>* findings) {
  const std::string layer = SrcLayer(file.path);
  if (layer.empty()) {
    return;  // Layering governs src/ only; tests and bench see everything.
  }
  auto rule = config.layering.find(layer);
  for (size_t i = 0; i < file.raw_lines.size(); ++i) {
    const std::string target = ParseQuotedInclude(file.raw_lines[i]);
    if (target.empty() || !StartsWith(target, "src/")) {
      continue;
    }
    const int lineno = static_cast<int>(i) + 1;
    if (std::find(config.layering_exempt_includes.begin(),
                  config.layering_exempt_includes.end(),
                  target) != config.layering_exempt_includes.end()) {
      continue;
    }
    if (rule == config.layering.end()) {
      findings->push_back({file.path, lineno, "apiary-layering",
                           "src/" + layer + "/ is not a declared layer; add it to the "
                           "allowed-include DAG in tools/apiary_lint/lint.cc"});
      continue;
    }
    const std::string target_layer = SrcLayer(target);
    if (std::find(rule->second.begin(), rule->second.end(), target_layer) ==
        rule->second.end()) {
      findings->push_back({file.path, lineno, "apiary-layering",
                           "src/" + layer + "/ may not include " + target + " (allowed " +
                               "layers are listed in tools/apiary_lint/lint.cc; accel must "
                               "reach mem/noc through the Monitor, never directly)"});
    }
  }
}

void CheckIncludeGuard(const SourceFile& file, const LintConfig& /*config*/,
                       std::vector<Finding>* findings) {
  if (!EndsWith(file.path, ".h")) {
    return;
  }
  const std::string expected = ExpectedGuard(file.path);
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string trimmed = Trimmed(file.code_lines[i]);
    if (trimmed.empty()) {
      continue;
    }
    if (StartsWith(trimmed, "#pragma once")) {
      findings->push_back({file.path, static_cast<int>(i) + 1, "apiary-include-guard",
                           "use the " + expected + " include-guard convention, not "
                           "#pragma once"});
      return;
    }
    if (StartsWith(trimmed, "#ifndef")) {
      const std::string guard = Trimmed(trimmed.substr(7));
      if (guard != expected) {
        findings->push_back({file.path, static_cast<int>(i) + 1, "apiary-include-guard",
                             "include guard '" + guard + "' should be '" + expected + "'"});
        return;
      }
      // The guard define must follow immediately.
      for (size_t j = i + 1; j < file.code_lines.size(); ++j) {
        const std::string next = Trimmed(file.code_lines[j]);
        if (next.empty()) {
          continue;
        }
        if (next != "#define " + expected) {
          findings->push_back({file.path, static_cast<int>(j) + 1, "apiary-include-guard",
                               "expected '#define " + expected + "' right after #ifndef"});
        }
        return;
      }
      return;
    }
    // First significant line is neither a guard nor pragma once.
    findings->push_back({file.path, static_cast<int>(i) + 1, "apiary-include-guard",
                         "header has no include guard; expected #ifndef " + expected});
    return;
  }
}

void CheckDebugName(const SourceFile& file, const LintConfig& /*config*/,
                    std::vector<Finding>* findings) {
  // Join the code view so class heads and bodies spanning lines are easy to
  // scan; remember line starts for reporting.
  std::string text;
  std::vector<size_t> line_start;
  for (const auto& line : file.code_lines) {
    line_start.push_back(text.size());
    text += line;
    text.push_back('\n');
  }
  auto line_of = [&](size_t offset) {
    size_t lo = 0;
    size_t hi = line_start.size();
    while (lo + 1 < hi) {
      size_t mid = (lo + hi) / 2;
      if (line_start[mid] <= offset) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return static_cast<int>(lo) + 1;
  };

  size_t pos = 0;
  while ((pos = text.find("class ", pos)) != std::string::npos) {
    if (pos > 0 && IsIdentChar(text[pos - 1])) {
      pos += 6;
      continue;
    }
    const size_t head_start = pos;
    pos += 6;
    // Class head runs to the first '{' or ';' (forward declaration).
    size_t body_open = text.find_first_of("{;", head_start);
    if (body_open == std::string::npos || text[body_open] == ';') {
      continue;
    }
    const std::string head = text.substr(head_start, body_open - head_start);
    // Direct Clocked subclass: base list mentions Clocked after a ':'.
    size_t colon = head.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    const std::string bases = head.substr(colon + 1);
    if (FindIdentifier(bases, "Clocked").empty()) {
      continue;
    }
    // Walk the brace-matched class body looking for a DebugName override.
    int depth = 0;
    size_t body_end = body_open;
    for (size_t i = body_open; i < text.size(); ++i) {
      if (text[i] == '{') {
        ++depth;
      } else if (text[i] == '}') {
        --depth;
        if (depth == 0) {
          body_end = i;
          break;
        }
      }
    }
    const std::string body = text.substr(body_open, body_end - body_open);
    if (body.find("DebugName") == std::string::npos) {
      findings->push_back({file.path, line_of(head_start), "apiary-debug-name",
                           "Clocked subclass must override DebugName() so traces and "
                           "debug dumps can identify the block"});
    }
  }
}

void CheckNodiscard(const SourceFile& file, const LintConfig& config,
                    std::vector<Finding>* findings) {
  if (!MatchesAnySuffix(file.path, config.nodiscard_files)) {
    return;
  }
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    for (const auto& type : config.nodiscard_types) {
      for (size_t pos : FindIdentifier(line, type)) {
        // A minting declaration: type, whitespace, identifier, '('.
        size_t p = pos + type.size();
        while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) {
          ++p;
        }
        const size_t name_start = p;
        while (p < line.size() && IsIdentChar(line[p])) {
          ++p;
        }
        if (p == name_start || p >= line.size() || line[p] != '(') {
          continue;
        }
        const std::string name = line.substr(name_start, p - name_start);
        const bool marked =
            line.find("[[nodiscard]]") != std::string::npos ||
            (i > 0 && file.raw_lines[i - 1].find("[[nodiscard]]") != std::string::npos);
        if (!marked) {
          findings->push_back({file.path, lineno, "apiary-nodiscard",
                               name + "() mints a " + type + "; dropping the result leaks "
                               "or orphans the grant — declare it [[nodiscard]]"});
        }
      }
    }
  }
}

void CheckHotPath(const SourceFile& file, const LintConfig& config,
                  std::vector<Finding>* findings) {
  // Discipline applies to simulator code only; tests and bench hand-build
  // packets freely.
  if (!StartsWith(file.path, "src/")) {
    return;
  }
  for (const auto& prefix : config.hot_path_exempt_prefixes) {
    if (StartsWith(file.path, prefix)) {
      return;
    }
  }
  // The express corridor planner/reservation files additionally ban ALL
  // allocation outside the one-time Configure() sizing: TryLaunch, the
  // per-cycle conflict scan, and materialization run on the executed-cycle
  // path, and a grow-on-demand container there would turn the fast path
  // into a hidden allocator.
  bool express_file = false;
  for (const auto& prefix : config.express_hot_path_prefixes) {
    if (StartsWith(file.path, prefix)) {
      express_file = true;
      break;
    }
  }
  if (express_file) {
    bool in_setup = false;  // Inside a Configure() definition.
    for (size_t i = 0; i < file.code_lines.size(); ++i) {
      const std::string& line = file.code_lines[i];
      const int lineno = static_cast<int>(i) + 1;
      // Track the enclosing member function: out-of-line definitions all
      // carry the ExpressLane:: qualifier, so a qualifier sighting updates
      // whether we are inside the sanctioned sizing function.
      if (line.find("ExpressLane::") != std::string::npos) {
        in_setup = line.find("::Configure(") != std::string::npos;
      }
      if (in_setup) {
        continue;
      }
      static const char* const kAllocOps[] = {".assign(", ".resize(", ".reserve(",
                                              "std::make_unique", "std::make_shared"};
      std::string hit;
      for (const char* op : kAllocOps) {
        if (line.find(op) != std::string::npos) {
          hit = op;
          break;
        }
      }
      if (hit.empty() && !FindIdentifier(line, "new").empty()) {
        hit = "new";
      }
      if (!hit.empty()) {
        findings->push_back(
            {file.path, lineno, "apiary-hot-path",
             "express corridor state allocates outside Configure() (" + hit +
                 "): launch/conflict-scan/materialize run on the executed-cycle "
                 "path — size reservations once and recycle slots in place"});
      }
    }
  }
  bool typed_counters = false;
  for (const auto& prefix : config.typed_counter_prefixes) {
    if (StartsWith(file.path, prefix)) {
      typed_counters = true;
      break;
    }
  }
  bool fabric_file = false;
  for (const auto& prefix : config.fabric_sort_prefixes) {
    if (StartsWith(file.path, prefix)) {
      fabric_file = true;
      break;
    }
  }
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    if (fabric_file) {
      for (const char* sort : {"std::sort", "std::stable_sort"}) {
        if (!FindIdentifier(line, sort).empty()) {
          findings->push_back({file.path, lineno, "apiary-hot-path",
                               std::string(sort) + " on the per-cycle fabric re-sorts every "
                               "executed cycle; keep the set as bitset words and walk set bits "
                               "lowest first (countr_zero) for ascending order"});
        }
      }
    }
    // Literals are blanked in the code view (which keeps comments out), so
    // the opening quote is read from the raw line at the same column.
    constexpr std::string_view kCounterAdd = "counters_.Add(";
    const size_t add = typed_counters ? line.find(kCounterAdd) : std::string::npos;
    const size_t arg = add == std::string::npos
                           ? std::string::npos
                           : file.raw_lines[i].find_first_not_of(' ', add + kCounterAdd.size());
    if (arg != std::string::npos && file.raw_lines[i][arg] == '"') {
      findings->push_back({file.path, lineno, "apiary-hot-path",
                           "string-keyed counter on the per-flit path allocates a key and "
                           "walks a std::map per event; count in a typed uint64_t field "
                           "and render names in counters()"});
    }
    if (line.find("make_shared<NocPacket") != std::string::npos ||
        line.find("make_shared< NocPacket") != std::string::npos) {
      findings->push_back({file.path, lineno, "apiary-hot-path",
                           "std::make_shared<NocPacket> allocates a control block per "
                           "message; draw packets from PacketPool::Acquire()"});
    } else if ([&line] {
                 size_t pos = line.find("new NocPacket");
                 while (pos != std::string::npos) {
                   if (pos == 0 || !IsIdentChar(line[pos - 1])) {
                     return true;
                   }
                   pos = line.find("new NocPacket", pos + 1);
                 }
                 return false;
               }()) {
      findings->push_back({file.path, lineno, "apiary-hot-path",
                           "bare new NocPacket heap-allocates per message; draw packets "
                           "from PacketPool::Acquire()"});
    }
    if (line.find("std::vector<uint8_t>") != std::string::npos &&
        !FindIdentifier(line, "payload").empty()) {
      findings->push_back({file.path, lineno, "apiary-hot-path",
                           "message payloads ride in PayloadBuf end-to-end; a "
                           "std::vector<uint8_t> copy reintroduces per-message heap "
                           "allocation on the executed-cycle path"});
    }
  }
}

namespace {

// Splits a statement into identifier tokens (type names keep their '::'
// qualification; punctuation is dropped).
std::vector<std::string> StatementTokens(const std::string& stmt) {
  std::vector<std::string> tokens;
  std::string current;
  for (size_t i = 0; i < stmt.size(); ++i) {
    const char c = stmt[i];
    if (IsIdentChar(c) || (c == ':' && i + 1 < stmt.size() && stmt[i + 1] == ':') ||
        (c == ':' && !current.empty() && current.back() == ':')) {
      current.push_back(c);
    } else if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) {
    tokens.push_back(current);
  }
  return tokens;
}

bool HasToken(const std::vector<std::string>& tokens, const std::string& token) {
  return std::find(tokens.begin(), tokens.end(), token) != tokens.end();
}

// True when the declared object itself is const: a "const" token after the
// last '*' / '&' (pointer-to-const with a mutable pointer does not count).
bool DeclaredObjectIsConst(const std::string& stmt) {
  const size_t last_ptr = stmt.find_last_of("*&");
  size_t pos = 0;
  while ((pos = stmt.find("const", pos)) != std::string::npos) {
    const bool head_ok = pos == 0 || !IsIdentChar(stmt[pos - 1]);
    const bool tail_ok = pos + 5 >= stmt.size() || !IsIdentChar(stmt[pos + 5]);
    if (head_ok && tail_ok && (last_ptr == std::string::npos || pos > last_ptr)) {
      return true;
    }
    pos += 5;
  }
  return false;
}

// True when the statement looks like a function declaration/definition
// head rather than a variable: its first '(' comes before any '='.
bool LooksLikeFunctionDecl(const std::string& stmt) {
  const size_t paren = stmt.find('(');
  if (paren == std::string::npos) {
    return false;
  }
  const size_t equals = stmt.find('=');
  return equals == std::string::npos || paren < equals;
}

// Last declarator-ish identifier before '=', '[' or the end — the variable
// name, for the finding message.
std::string DeclaredName(const std::string& stmt) {
  size_t end = stmt.find_first_of("=[{");
  std::string head = end == std::string::npos ? stmt : stmt.substr(0, end);
  const auto tokens = StatementTokens(head);
  return tokens.empty() ? "<unnamed>" : tokens.back();
}

// Statement-head keywords that mean "not a variable declaration".
bool IsNonDeclarationStatement(const std::vector<std::string>& tokens) {
  static const char* kSkip[] = {
      "using", "typedef", "extern", "friend", "template", "static_assert",
      "struct", "class", "enum", "union", "namespace", "return", "operator",
      "delete", "case", "default", "goto", "throw", "co_return", "co_yield",
      "if", "else", "for", "while", "do", "switch", "break", "continue",
      "public", "private", "protected", "asm"};
  if (tokens.empty()) {
    return true;
  }
  for (const char* word : kSkip) {
    if (HasToken(tokens, word)) {
      return true;
    }
  }
  // A lone token ("g_anon" after an anonymous-struct body) has no type.
  return tokens.size() < 2;
}

}  // namespace

void CheckGlobalState(const SourceFile& file, const LintConfig& config,
                      std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/")) {
    return;
  }
  for (const auto& prefix : config.global_state_exempt_prefixes) {
    if (StartsWith(file.path, prefix)) {
      return;
    }
  }

  // Reports one global-state finding, honoring APIARY-SHARED annotations.
  auto report = [&](int lineno, const std::string& what) {
    if (file.IsSharedAnnotated(lineno)) {
      return;
    }
    for (int candidate : {lineno, lineno - 1}) {
      if (candidate >= 1 && candidate <= static_cast<int>(file.shared.size()) &&
          file.shared[candidate - 1] == SharedAnnotation::kMalformed) {
        findings->push_back(
            {file.path, candidate, "apiary-global-state",
             "malformed APIARY-SHARED annotation; the grammar is "
             "// APIARY-SHARED(<domain>): <reason>"});
        return;
      }
    }
    findings->push_back(
        {file.path, lineno, "apiary-global-state",
         what + " is process-global mutable state that every simulator in the "
                "process shares; make it domain-local (SimContext) or annotate the "
                "declaration with // APIARY-SHARED(<domain>): <reason>"});
  };

  // Evaluates one flushed statement. `other_depth` counts enclosing braces
  // that are not namespaces (class bodies, function bodies, initializers).
  auto evaluate = [&](const std::string& stmt_in, int stmt_line, int other_depth) {
    std::string stmt = Trimmed(stmt_in);
    // Access-specifier labels are not statement terminators in this
    // scanner; strip them so `public: static int x_;` still evaluates.
    for (bool stripped = true; stripped;) {
      stripped = false;
      for (const char* label : {"public", "private", "protected"}) {
        const size_t len = std::string(label).size();
        if (StartsWith(stmt, label) &&
            (stmt.size() == len || !IsIdentChar(stmt[len]))) {
          const size_t colon = stmt.find(':', len);
          if (colon != std::string::npos && Trimmed(stmt.substr(len, colon - len)).empty()) {
            stmt = Trimmed(stmt.substr(colon + 1));
            stripped = true;
          }
        }
      }
    }
    if (stmt.empty()) {
      return;
    }
    const auto tokens = StatementTokens(stmt);
    if (IsNonDeclarationStatement(tokens)) {
      return;
    }
    if (HasToken(tokens, "constexpr") || DeclaredObjectIsConst(stmt)) {
      return;
    }
    if (LooksLikeFunctionDecl(stmt)) {
      return;
    }
    if (other_depth == 0) {
      report(stmt_line, "namespace-scope global '" + DeclaredName(stmt) + "'");
    } else if (tokens[0] == "static" || (tokens[0] == "inline" && tokens[1] == "static")) {
      report(stmt_line, "function-local/class static '" + DeclaredName(stmt) +
                            "' (Meyers singletons included)");
    }
  };

  // Brace kinds: namespaces don't open a scope for this check; initializer
  // braces get the declaration evaluated at the '{' and add no scope.
  enum class Brace : uint8_t { kNamespace, kOther, kInit };
  std::vector<Brace> stack;
  int other_depth = 0;
  std::string stmt;
  int stmt_line = 0;
  int paren_depth = 0;
  bool in_preproc = false;

  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const int lineno = static_cast<int>(i) + 1;
    const std::string raw_trimmed = Trimmed(file.raw_lines[i]);
    if (in_preproc || (!raw_trimmed.empty() && raw_trimmed[0] == '#')) {
      in_preproc = !raw_trimmed.empty() && raw_trimmed.back() == '\\';
      continue;
    }
    const std::string& line = file.code_lines[i];
    for (char c : line) {
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')') {
        paren_depth = paren_depth > 0 ? paren_depth - 1 : 0;
      }
      if (paren_depth > 0) {
        if (Trimmed(stmt).empty() && c != ' ' && c != '\t') {
          stmt_line = lineno;
        }
        stmt.push_back(c);
        continue;
      }
      if (c == '{') {
        const std::string head = Trimmed(stmt);
        const auto tokens = StatementTokens(head);
        if (!tokens.empty() && tokens[0] == "namespace") {
          stack.push_back(Brace::kNamespace);
        } else if (head.empty() || head.back() == ')' || LooksLikeFunctionDecl(head) ||
                   IsNonDeclarationStatement(tokens)) {
          stack.push_back(Brace::kOther);
          ++other_depth;
        } else {
          // Brace-initialized declaration: `int g_x{0};`, `auto g = ...{`.
          evaluate(head, stmt_line == 0 ? lineno : stmt_line, other_depth);
          stack.push_back(Brace::kInit);
        }
        stmt.clear();
        stmt_line = 0;
      } else if (c == '}') {
        if (!stack.empty()) {
          if (stack.back() == Brace::kOther) {
            --other_depth;
          }
          stack.pop_back();
        }
        stmt.clear();
        stmt_line = 0;
      } else if (c == ';') {
        evaluate(stmt, stmt_line == 0 ? lineno : stmt_line, other_depth);
        stmt.clear();
        stmt_line = 0;
      } else {
        if (Trimmed(stmt).empty() && c != ' ' && c != '\t') {
          stmt_line = lineno;
        }
        stmt.push_back(c);
      }
    }
    stmt.push_back(' ');  // Statements spanning lines keep token boundaries.
  }
}

void CheckSyncDiscipline(const SourceFile& file, const LintConfig& config,
                         std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/")) {
    return;
  }
  for (const auto& prefix : config.sync_allowed_prefixes) {
    if (StartsWith(file.path, prefix)) {
      return;
    }
  }
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    for (const auto& ident : config.banned_sync_identifiers) {
      if (!FindIdentifier(line, ident).empty()) {
        findings->push_back(
            {file.path, lineno, "apiary-sync-discipline",
             ident + " is ad-hoc synchronization; thread-affine state lives only in " +
                 (config.sync_allowed_prefixes.empty()
                      ? std::string("the thread-domain home")
                      : config.sync_allowed_prefixes.front() + "*") +
                 ", because each simulator owns one SimContext and a process may "
                 "run several simulators"});
      }
    }
  }
}

void CheckWireWriter(const SourceFile& file, const LintConfig& config,
                     std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/") || config.wire_writer.empty()) {
    return;
  }
  for (const auto& prefix : config.wire_writer_allowed_prefixes) {
    if (StartsWith(file.path, prefix)) {
      return;
    }
  }
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    if (!FindIdentifier(file.code_lines[i], config.wire_writer).empty()) {
      findings->push_back({file.path, static_cast<int>(i) + 1, "apiary-wire-writer",
                           config.wire_writer + " models link corruption: only the fault "
                           "hooks in src/fault/ may write a wire image in flight, and the "
                           "ejecting NI re-hashes exactly the packets it marked"});
    }
  }
}

void CheckNolintReason(const SourceFile& file, const LintConfig& /*config*/,
                       std::vector<Finding>* findings) {
  for (size_t i = 0; i < file.raw_lines.size(); ++i) {
    const std::string& raw = file.raw_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    size_t pos = 0;
    while ((pos = raw.find("NOLINT", pos)) != std::string::npos) {
      const size_t marker_len = raw.compare(pos, 14, "NOLINTNEXTLINE") == 0 ? 14 : 6;
      size_t after = pos + marker_len;
      const auto checks = ParseNolintList(raw, after);
      bool names_apiary = false;
      for (const auto& check : checks) {
        if (StartsWith(check, "apiary-")) {
          names_apiary = true;
        }
      }
      if (names_apiary) {
        // Reason grammar: "(...)": <non-empty text>.
        size_t close = raw.find(')', after);
        size_t p = close == std::string::npos ? after : close + 1;
        while (p < raw.size() && (raw[p] == ' ' || raw[p] == '\t')) {
          ++p;
        }
        const bool has_reason =
            p < raw.size() && raw[p] == ':' && !Trimmed(raw.substr(p + 1)).empty();
        if (!has_reason) {
          findings->push_back(
              {file.path, lineno, "apiary-nolint-reason",
               "NOLINT(apiary-*) must carry a ': <reason>' suffix — the reason is "
               "the audit trail for why the invariant is waived here"});
        }
      }
      pos += marker_len;
    }
  }
}

void CheckDomainConfinement(const std::vector<SourceFile>& files, const LintConfig& config,
                            std::vector<Finding>* findings) {
  auto confined = [&](const std::string& layer) {
    return std::find(config.confined_layers.begin(), config.confined_layers.end(), layer) !=
           config.confined_layers.end();
  };
  auto is_channel = [&](const std::string& type) {
    return std::find(config.confinement_channel_types.begin(),
                     config.confinement_channel_types.end(),
                     type) != config.confinement_channel_types.end();
  };

  // Pass 1: symbol table — class/struct definition name -> owning layer.
  // Names defined in more than one layer are ambiguous and dropped.
  std::map<std::string, std::set<std::string>> defs;
  for (const auto& file : files) {
    const std::string layer = SrcLayer(file.path);
    if (layer.empty() || !confined(layer)) {
      continue;
    }
    for (const auto& line : file.code_lines) {
      for (const char* keyword : {"class ", "struct "}) {
        const size_t klen = std::string(keyword).size();
        size_t pos = 0;
        while ((pos = line.find(keyword, pos)) != std::string::npos) {
          const bool head_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
          // "enum class" defines a scoped enum, not a class.
          const bool after_enum = pos >= 5 && line.compare(pos - 5, 5, "enum ") == 0;
          if (!head_ok || after_enum) {
            pos += klen;
            continue;
          }
          size_t p = pos + klen;
          while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) {
            ++p;
          }
          const size_t name_start = p;
          while (p < line.size() && IsIdentChar(line[p])) {
            ++p;
          }
          const std::string name = line.substr(name_start, p - name_start);
          while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) {
            ++p;
          }
          if (line.compare(p, 5, "final") == 0) {
            p += 5;
            while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) {
              ++p;
            }
          }
          // Definition heads end the line or open a body/base list; anything
          // else (';' forward decl, '>' template param, '*' usage) is not one.
          const bool definition = !name.empty() &&
                                  (p >= line.size() || line[p] == '{' || line[p] == ':');
          if (definition) {
            defs[name].insert(layer);
          }
          pos += klen;
        }
      }
    }
  }
  std::map<std::string, std::string> type_layer;
  for (const auto& [name, layers] : defs) {
    if (layers.size() == 1 && !is_channel(name)) {
      type_layer[name] = *layers.begin();
    }
  }

  // Pass 2: flag raw pointer/reference *members* (trailing-underscore
  // declarator convention) whose pointee type lives in a different
  // confined layer than the declaring file.
  for (const auto& file : files) {
    const std::string layer = SrcLayer(file.path);
    if (layer.empty() || !confined(layer)) {
      continue;
    }
    for (size_t i = 0; i < file.code_lines.size(); ++i) {
      const std::string& line = file.code_lines[i];
      const int lineno = static_cast<int>(i) + 1;
      for (const auto& [type, owner] : type_layer) {
        if (owner == layer) {
          continue;
        }
        for (size_t pos : FindIdentifier(line, type)) {
          size_t p = pos + type.size();
          while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) {
            ++p;
          }
          bool raw_indirect = false;
          while (p < line.size() && (line[p] == '*' || line[p] == '&')) {
            raw_indirect = true;
            ++p;
          }
          if (!raw_indirect) {
            continue;
          }
          while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) {
            ++p;
          }
          if (line.compare(p, 5, "const") == 0 && (p + 5 >= line.size() ||
                                                   !IsIdentChar(line[p + 5]))) {
            p += 5;
            while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) {
              ++p;
            }
          }
          const size_t name_start = p;
          while (p < line.size() && IsIdentChar(line[p])) {
            ++p;
          }
          const std::string member = line.substr(name_start, p - name_start);
          if (member.size() < 2 || member.back() != '_') {
            continue;
          }
          while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) {
            ++p;
          }
          if (p < line.size() && line[p] != ';' && line[p] != '=' && line[p] != ',' &&
              line[p] != '{') {
            continue;
          }
          findings->push_back(
              {file.path, lineno, "apiary-domain-confinement",
               "member '" + member + "' holds a raw pointer/reference to " + type +
                   " (" + owner + "-owned) from src/" + layer + "/ — cross-domain "
                   "state must ride PacketRef, a capability handle, or a registered "
                   "channel type so each simulator's domain stays self-contained"});
        }
      }
    }
  }
}

namespace {

// `constexpr ... kOpName = <init>;` on one code line: fills the name and the
// initializer text. kOp must be followed by an uppercase letter, so
// `kOptimized` is not an opcode.
bool ParseOpcodeDefinition(const std::string& line, std::string* name, std::string* init) {
  const size_t constexpr_pos = line.find("constexpr");
  if (constexpr_pos == std::string::npos) {
    return false;
  }
  for (size_t pos = line.find("kOp", constexpr_pos); pos != std::string::npos;
       pos = line.find("kOp", pos + 3)) {
    if (IsIdentChar(line[pos - 1]) || pos + 3 >= line.size() ||
        std::isupper(static_cast<unsigned char>(line[pos + 3])) == 0) {
      continue;
    }
    size_t end = pos;
    while (end < line.size() && IsIdentChar(line[end])) {
      ++end;
    }
    size_t eq = end;
    while (eq < line.size() && line[eq] == ' ') {
      ++eq;
    }
    if (eq >= line.size() || line[eq] != '=' || (eq + 1 < line.size() && line[eq + 1] == '=')) {
      continue;
    }
    *name = line.substr(pos, end - pos);
    *init = Trimmed(line.substr(eq + 1, line.find(';', eq) - (eq + 1)));
    return true;
  }
  return false;
}

// Value of an initializer made of `+`-joined integer literals and already
// resolved constants (`kOpAppBase + 1`); false while a term is unknown.
bool EvalOpcodeInit(const std::string& init, const std::map<std::string, uint64_t>& known,
                    uint64_t* value) {
  uint64_t sum = 0;
  std::istringstream terms(init);
  std::string term;
  while (std::getline(terms, term, '+')) {
    term = Trimmed(term);
    if (term.empty()) {
      return false;
    }
    if (std::isdigit(static_cast<unsigned char>(term[0])) != 0) {
      size_t used = 0;
      sum += std::stoull(term, &used, 0);
      if (term.find_first_not_of("uUlL", used) != std::string::npos) {
        return false;
      }
    } else {
      const auto it = known.find(term);
      if (it == known.end()) {
        return false;
      }
      sum += it->second;
    }
  }
  *value = sum;
  return true;
}

}  // namespace

void CheckOpcodeCoverage(const std::vector<SourceFile>& files, const LintConfig& config,
                         std::vector<Finding>* findings) {
  struct OpcodeDef {
    std::string file;
    int line;
  };
  struct ParsedDef {
    std::string name;
    std::string init;
    OpcodeDef where;
    bool in_abi;  // Defined in one of config.opcode_def_files.
  };
  // Wire opcodes of the ABI headers: these need a handler and a test.
  std::map<std::string, OpcodeDef> defs;
  // Every kOp* definition under src/, *Base markers included, in corpus order.
  std::vector<ParsedDef> parsed;
  bool corpus_has_tests = false;
  for (const auto& file : files) {
    if (StartsWith(file.path, "tests/")) {
      corpus_has_tests = true;
    }
    if (!StartsWith(file.path, "src/")) {
      continue;
    }
    const bool is_def_file = MatchesAnySuffix(file.path, config.opcode_def_files);
    for (size_t i = 0; i < file.code_lines.size(); ++i) {
      std::string name;
      std::string init;
      if (!ParseOpcodeDefinition(file.code_lines[i], &name, &init)) {
        continue;
      }
      const OpcodeDef where{file.path, static_cast<int>(i) + 1};
      parsed.push_back({name, init, where, is_def_file});
      if (!is_def_file) {
        findings->push_back({where.file, where.line, "apiary-opcode-coverage",
                             name + " is defined outside the opcode ABI headers — move it "
                             "into src/services/opcodes.h so its value is checked against "
                             "every other opcode"});
      } else if (!EndsWith(name, "Base")) {
        // *Base constants are numbering-space markers, not wire opcodes.
        defs.emplace(name, where);
      }
    }
  }

  // Resolve values (a constant may name one defined later in the corpus),
  // then report every wire opcode whose value an earlier one already took;
  // the ABI headers' constants come first, so they own their values.
  std::stable_partition(parsed.begin(), parsed.end(),
                        [](const ParsedDef& def) { return def.in_abi; });
  std::map<std::string, uint64_t> values;
  for (bool progress = true; progress;) {
    progress = false;
    for (const auto& def : parsed) {
      uint64_t value = 0;
      if (values.count(def.name) == 0 && EvalOpcodeInit(def.init, values, &value)) {
        values[def.name] = value;
        progress = true;
      }
    }
  }
  std::map<uint64_t, const ParsedDef*> owner;
  for (const auto& def : parsed) {
    const auto value = values.find(def.name);
    if (EndsWith(def.name, "Base") || value == values.end()) {
      continue;
    }
    const auto [it, fresh] = owner.emplace(value->second, &def);
    if (!fresh) {
      char hex[16];
      std::snprintf(hex, sizeof(hex), "0x%04llx", static_cast<unsigned long long>(value->second));
      findings->push_back({def.where.file, def.where.line, "apiary-opcode-coverage",
                           def.name + " has value " + hex + ", already taken by " +
                               it->second->name + " (" + it->second->where.file + ":" +
                               std::to_string(it->second->where.line) +
                               ") — every wire opcode needs its own value"});
    }
  }
  if (defs.empty()) {
    return;
  }

  std::set<std::string> handled;
  std::set<std::string> tested;
  for (const auto& file : files) {
    const bool is_def_file = MatchesAnySuffix(file.path, config.opcode_def_files);
    const bool in_src = StartsWith(file.path, "src/") && !is_def_file;
    const bool in_tests = StartsWith(file.path, "tests/");
    if (!in_src && !in_tests) {
      continue;
    }
    for (const auto& line : file.code_lines) {
      if (line.find("kOp") == std::string::npos) {
        continue;
      }
      for (const auto& [name, def] : defs) {
        if (!FindIdentifier(line, name).empty()) {
          if (in_src) {
            handled.insert(name);
          } else {
            tested.insert(name);
          }
        }
      }
    }
  }

  for (const auto& [name, def] : defs) {
    if (handled.find(name) == handled.end()) {
      findings->push_back({def.file, def.line, "apiary-opcode-coverage",
                           name + " has no dispatching handler under src/ — every wire "
                           "opcode in the stable ABI must be handled (Section 4.3)"});
    }
    if (corpus_has_tests && tested.find(name) == tested.end()) {
      findings->push_back({def.file, def.line, "apiary-opcode-coverage",
                           name + " is never referenced under tests/ — every wire opcode "
                           "needs at least one test exercising it"});
    }
  }
}

void CheckWakePath(const std::vector<SourceFile>& files, const LintConfig& config,
                   std::vector<Finding>* findings) {
  // A wake often fires in the implementation file while the declaration
  // lives in the header (or vice versa), so evidence anywhere in the
  // .h/.cc pair clears both: map path-minus-extension -> evidence seen.
  std::map<std::string, bool> stem_evidence;
  auto stem_of = [](const std::string& path) {
    const size_t dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(0, dot);
  };
  for (const auto& file : files) {
    if (!StartsWith(file.path, "src/")) {
      continue;
    }
    bool& evidence = stem_evidence[stem_of(file.path)];
    for (const auto& line : file.code_lines) {
      if (evidence) {
        break;
      }
      for (const auto& pattern : config.wake_evidence) {
        if (line.find(pattern) != std::string::npos) {
          evidence = true;
          break;
        }
      }
    }
  }

  for (const auto& file : files) {
    if (!StartsWith(file.path, "src/")) {
      continue;
    }
    std::string text;
    std::vector<size_t> line_start;
    for (const auto& line : file.code_lines) {
      line_start.push_back(text.size());
      text += line;
      text.push_back('\n');
    }
    auto line_of = [&](size_t offset) {
      size_t lo = 0;
      size_t hi = line_start.size();
      while (lo + 1 < hi) {
        const size_t mid = (lo + hi) / 2;
        if (line_start[mid] <= offset) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      return static_cast<int>(lo) + 1;
    };

    size_t pos = 0;
    while ((pos = text.find("NextActivity", pos)) != std::string::npos) {
      const size_t token = pos;
      pos += 12;  // strlen("NextActivity")
      // Identifier boundary before ('::' qualification is a definition head,
      // '->'/'.' is a call) and an open paren after.
      if (token > 0 && IsIdentChar(text[token - 1])) {
        continue;
      }
      size_t p = pos;
      while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) {
        ++p;
      }
      if (p >= text.size() || text[p] != '(') {
        continue;
      }
      // Skip the parameter list, then require a definition: only identifier
      // characters and whitespace ("const override" etc.) may sit between
      // the close paren and the '{'. Anything else — an operator, a second
      // ')' — is a call site in an expression, and a ';' is a declaration.
      int parens = 0;
      while (p < text.size()) {
        if (text[p] == '(') {
          ++parens;
        } else if (text[p] == ')') {
          if (--parens == 0) {
            ++p;
            break;
          }
        }
        ++p;
      }
      bool is_definition = false;
      while (p < text.size()) {
        const char c = text[p];
        if (c == '{') {
          is_definition = true;
          break;
        }
        if (!IsIdentChar(c) && c != ' ' && c != '\t' && c != '\n' && c != '[' && c != ']') {
          break;  // ';' (declaration) or an expression operator.
        }
        ++p;
      }
      if (!is_definition) {
        continue;
      }
      const size_t body_open = p;
      int depth = 0;
      size_t body_end = body_open;
      for (size_t i = body_open; i < text.size(); ++i) {
        if (text[i] == '{') {
          ++depth;
        } else if (text[i] == '}') {
          if (--depth == 0) {
            body_end = i;
            break;
          }
        }
      }
      if (FindIdentifier(text.substr(body_open, body_end - body_open), "kNoActivity")
              .empty()) {
        continue;  // The declaration never goes fully idle; parking is bounded.
      }

      // Blessing: an APIARY-WAKE annotation on the definition line or in the
      // contiguous // comment block directly above it.
      const int def_line = line_of(token);
      bool blessed = false;
      bool malformed = false;
      for (int candidate = def_line; candidate >= 1; --candidate) {
        const std::string& raw = file.raw_lines[static_cast<size_t>(candidate) - 1];
        if (candidate != def_line && !StartsWith(Trimmed(raw), "//")) {
          break;
        }
        const size_t marker = raw.find("APIARY-WAKE");
        if (marker == std::string::npos) {
          continue;
        }
        if (ParseWakeAnnotation(raw, marker) == SharedAnnotation::kOk) {
          blessed = true;
        } else {
          malformed = true;
        }
        break;
      }
      if (malformed) {
        findings->push_back({file.path, def_line, "apiary-wake-path",
                             "malformed APIARY-WAKE annotation; the grammar is "
                             "// APIARY-WAKE(<source>): <reason>"});
        continue;
      }
      if (blessed || stem_evidence[stem_of(file.path)]) {
        continue;
      }
      findings->push_back(
          {file.path, def_line, "apiary-wake-path",
           "NextActivity can return kNoActivity (idle until external input) but no "
           "wake path is visible in this file pair — whoever delivers input to a "
           "parked block must fire RequestWake()/WakeHint; if the waker lives "
           "elsewhere, annotate the definition with "
           "// APIARY-WAKE(<source>): <reason>"});
    }
  }
}

std::vector<Finding> RunAllChecks(const std::vector<SourceFile>& files,
                                  const LintConfig& config) {
  std::vector<Finding> raw;
  for (const auto& file : files) {
    CheckDeterminism(file, config, &raw);
    CheckLayering(file, config, &raw);
    CheckIncludeGuard(file, config, &raw);
    CheckDebugName(file, config, &raw);
    CheckNodiscard(file, config, &raw);
    CheckHotPath(file, config, &raw);
    CheckGlobalState(file, config, &raw);
    CheckSyncDiscipline(file, config, &raw);
    CheckWireWriter(file, config, &raw);
    CheckNolintReason(file, config, &raw);
  }
  CheckOpcodeCoverage(files, config, &raw);
  CheckDomainConfinement(files, config, &raw);
  CheckWakePath(files, config, &raw);

  std::map<std::string, const SourceFile*> by_path;
  for (const auto& file : files) {
    by_path[file.path] = &file;
  }
  std::vector<Finding> kept;
  for (auto& finding : raw) {
    auto it = by_path.find(finding.file);
    if (it != by_path.end() && it->second->IsSuppressed(finding.line, finding.check)) {
      continue;
    }
    kept.push_back(std::move(finding));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.check < b.check;
  });
  return kept;
}

}  // namespace lint
}  // namespace apiary
