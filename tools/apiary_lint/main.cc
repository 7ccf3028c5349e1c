// apiary_lint CLI.
//
// Usage: apiary_lint [--repo-root <dir>] [--json <file>] <path>...
//
// Each <path> (a file or directory, relative to the repo root unless
// absolute) is scanned for C++ sources; all checks run over the combined
// corpus. --json additionally writes the findings as a JSON array (one
// object per finding: file/line/check/message) for CI problem matchers
// and artifacts. Exit status: 0 clean, 1 findings, 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "tools/apiary_lint/lint.h"

namespace fs = std::filesystem;

namespace {

// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool WriteJson(const std::string& path, const std::vector<apiary::lint::Finding>& findings,
               size_t file_count) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << "{\n  \"files_scanned\": " << file_count << ",\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"check\": \"" << JsonEscape(f.check) << "\", \"message\": \""
        << JsonEscape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out.good();
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

// Directories that are never part of the linted corpus.
bool IsSkippedDir(const std::string& name) {
  return name == ".git" || name == "testdata" || name.rfind("build", 0) == 0 ||
         name == "cmake-build-debug" || name == ".cache";
}

void Collect(const fs::path& root, const fs::path& repo_root,
             std::vector<apiary::lint::SourceFile>* files, int* errors) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    if (!IsSourceFile(root)) {
      return;
    }
    const fs::path rel = fs::relative(root, repo_root, ec);
    apiary::lint::SourceFile file;
    if (!apiary::lint::LoadSource(root.string(), rel.generic_string(), &file)) {
      std::cerr << "apiary_lint: cannot read " << root << "\n";
      ++*errors;
      return;
    }
    files->push_back(std::move(file));
    return;
  }
  if (!fs::is_directory(root, ec)) {
    std::cerr << "apiary_lint: no such file or directory: " << root << "\n";
    ++*errors;
    return;
  }
  // Deterministic order: recurse with sorted directory listings.
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    entries.push_back(entry.path());
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& entry : entries) {
    if (fs::is_directory(entry, ec)) {
      if (!IsSkippedDir(entry.filename().string())) {
        Collect(entry, repo_root, files, errors);
      }
    } else if (IsSourceFile(entry)) {
      Collect(entry, repo_root, files, errors);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  fs::path repo_root = fs::current_path();
  std::string json_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repo-root") {
      if (i + 1 >= argc) {
        std::cerr << "apiary_lint: --repo-root needs a directory\n";
        return 2;
      }
      repo_root = argv[++i];
    } else if (arg.rfind("--repo-root=", 0) == 0) {
      repo_root = arg.substr(std::strlen("--repo-root="));
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "apiary_lint: --json needs an output file\n";
        return 2;
      }
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: apiary_lint [--repo-root <dir>] [--json <file>] <path>...\n"
                   "checks: apiary-determinism apiary-layering apiary-opcode-coverage\n"
                   "        apiary-include-guard apiary-debug-name apiary-nodiscard\n"
                   "        apiary-hot-path apiary-global-state apiary-domain-confinement\n"
                   "        apiary-sync-discipline apiary-wire-writer apiary-wake-path\n"
                   "        apiary-nolint-reason\n"
                   "suppress with // NOLINT(apiary-<check>): <reason> or "
                   "NOLINTNEXTLINE(...): <reason>\n"
                   "keep deliberate globals with // APIARY-SHARED(<domain>): <reason>\n"
                   "name an external waker with // APIARY-WAKE(<source>): <reason>\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "apiary_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: apiary_lint [--repo-root <dir>] [--json <file>] <path>...\n";
    return 2;
  }

  std::error_code ec;
  repo_root = fs::absolute(repo_root, ec);
  int errors = 0;
  std::vector<apiary::lint::SourceFile> files;
  for (const auto& path : paths) {
    fs::path p(path);
    if (p.is_relative()) {
      p = repo_root / p;
    }
    Collect(p, repo_root, &files, &errors);
  }
  if (errors > 0) {
    return 2;
  }

  const auto findings =
      apiary::lint::RunAllChecks(files, apiary::lint::DefaultConfig());
  for (const auto& finding : findings) {
    std::cout << finding.ToString() << "\n";
  }
  if (!json_path.empty() && !WriteJson(json_path, findings, files.size())) {
    std::cerr << "apiary_lint: cannot write " << json_path << "\n";
    return 2;
  }
  if (!findings.empty()) {
    std::cout << "apiary_lint: " << findings.size() << " finding(s) in " << files.size()
              << " file(s)\n";
    return 1;
  }
  std::cout << "apiary_lint: clean (" << files.size() << " files)\n";
  return 0;
}
