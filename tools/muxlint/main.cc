// muxlint — determinism, convention, and architecture linter for the
// muxwise tree.
//
// The simulator's core claim (src/sim/simulator.h) is that every
// experiment is bit-reproducible; a stray wall-clock read, unseeded
// RNG, or pointer-keyed iteration anywhere in src/ silently breaks
// that. On top of the line-scoped rules, project-aware passes enforce
// the module layering DAG and ban mutable namespace-scope state.
// This binary enforces all of it statically and runs as a ctest over
// src/ and tests/.
//
// Usage: muxlint [--json] [--sarif] [--out=FILE] [--sarif-out=FILE]
//                [--baseline=FILE] [--write-baseline=FILE]
//                [--list-rules] PATH...
// Exits 1 when non-baselined findings exist (suppressions via
// `// muxlint: allow(<rule>)` do not count), 2 on IO errors.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "muxlint/muxlint.h"

namespace {

bool WriteOrFail(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "muxlint: cannot write " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace muxwise::muxlint;

  bool json = false;
  bool sarif = false;
  bool list_rules = false;
  std::string out_path;
  std::string sarif_out_path;
  std::string baseline_path;
  std::string write_baseline_path;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--sarif-out=", 0) == 0) {
      sarif_out_path = arg.substr(12);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = arg.substr(17);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: muxlint [--json] [--sarif] [--out=FILE] "
                   "[--sarif-out=FILE] [--baseline=FILE] "
                   "[--write-baseline=FILE] [--list-rules] PATH...\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "muxlint: unknown flag " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }

  if (list_rules) {
    for (const RuleInfo& rule : Rules()) {
      std::cout << rule.name << " [" << rule.tier << "]: " << rule.summary
                << "\n";
    }
    return 0;
  }
  if (roots.empty()) {
    std::cerr << "muxlint: no paths given (try --help)\n";
    return 2;
  }

  LintReport report;
  bool io_ok = LintTree(roots, report);

  // --write-baseline captures the PRE-baseline findings (the point is
  // to regenerate the grandfather list); --baseline then filters what
  // the gate sees.
  if (!write_baseline_path.empty()) {
    if (!WriteOrFail(write_baseline_path, FormatBaseline(report))) return 2;
  }
  if (!baseline_path.empty()) {
    std::vector<BaselineEntry> entries;
    if (!LoadBaseline(baseline_path, entries, report.errors)) io_ok = false;
    ApplyBaseline(entries, report);
  }

  const std::string rendered = sarif  ? FormatSarif(report)
                               : json ? FormatJson(report)
                                      : FormatText(report);
  if (out_path.empty()) {
    std::cout << rendered;
  } else if (!WriteOrFail(out_path, rendered)) {
    return 2;
  }
  if (!sarif_out_path.empty() &&
      !WriteOrFail(sarif_out_path, FormatSarif(report))) {
    return 2;
  }
  if (!io_ok) {
    std::cerr << "muxlint: some paths were missing or unreadable\n";
    return 2;
  }
  return report.findings.empty() ? 0 : 1;
}
