#ifndef MUXWISE_TOOLS_MUXLINT_MUXLINT_H_
#define MUXWISE_TOOLS_MUXLINT_MUXLINT_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace muxwise::muxlint {

/** One determinism- or convention-breaking pattern found in a file. */
struct Finding {
  std::string file;
  int line = 0;          // 1-based.
  std::string rule;      // Rule name, e.g. "wall-clock".
  std::string message;   // Why the pattern is a problem.
  std::string excerpt;   // The offending source line, trimmed.
};

/** Aggregate result of linting one or more files. */
struct LintReport {
  std::vector<Finding> findings;
  std::size_t suppressed = 0;     // Findings silenced by allow() pragmas.
  std::map<std::string, std::size_t> suppressed_by_rule;
  std::size_t baselined = 0;      // Findings grandfathered by a baseline.
  std::size_t files_scanned = 0;
  // Traversal/read failures (missing root, unreadable file, directory
  // iteration error). Non-empty errors mean coverage was incomplete, so
  // callers must not treat an empty findings list as a clean bill.
  std::vector<std::string> errors;
};

/** Static description of one lint rule (see Rules()). */
struct RuleInfo {
  std::string name;
  std::string summary;
  // "line": regex over one comment-stripped line. "file": whole-file
  // convention. "project": cross-cutting architectural pass (include
  // layering, global state).
  std::string tier;
};

/** Every rule muxlint knows, for --list-rules and the docs. */
std::vector<RuleInfo> Rules();

/**
 * Lints one file's `content` (as if read from `path`; the path selects
 * path-scoped exemptions such as raw RNG use inside src/sim/rng) and
 * appends findings to `report`.
 *
 * A finding on a line carrying `// muxlint: allow(<rule>)` (or
 * `allow(all)`) is counted in `report.suppressed` (and per rule in
 * `suppressed_by_rule`) instead; the file-scoped rule `include-guard`
 * is suppressed by an allow() comment anywhere in the file. Pragmas are
 * recognised only inside comments — pragma-shaped text in a string
 * literal is inert. An allowance that silences nothing on its line is
 * itself a finding (`stale-allow`).
 */
void LintContent(const std::string& path, const std::string& content,
                 LintReport& report);

/** Reads and lints one file on disk. Returns false if unreadable. */
bool LintFile(const std::string& path, LintReport& report);

/**
 * Lints every .h/.hpp/.cc/.cpp file under each root (files are
 * accepted too), in sorted path order so output is deterministic.
 * Directories named `build` or `.git` are skipped at any depth.
 * Returns false if any root was missing, a file was unreadable, or
 * directory traversal failed part-way; the specific failures are
 * recorded in `report.errors`.
 */
bool LintTree(const std::vector<std::string>& roots, LintReport& report);

/**
 * One grandfathered finding: `rule` plus a path suffix. A finding is
 * baselined when its rule matches and its file path ends with `path`
 * (suffix match, so baselines written repo-relative apply to absolute
 * ctest invocations too).
 */
struct BaselineEntry {
  std::string rule;
  std::string path;
};

/**
 * Parses a baseline file: one `rule path` pair per line, `#` comments
 * and blank lines ignored. Returns false (and records into `errors`)
 * if the file cannot be read.
 */
bool LoadBaseline(const std::string& path, std::vector<BaselineEntry>& entries,
                  std::vector<std::string>& errors);

/**
 * Removes findings matched by `entries` from the report, counting them
 * in `report.baselined`. The gate therefore fails only on findings
 * that are neither suppressed in-source nor grandfathered.
 */
void ApplyBaseline(const std::vector<BaselineEntry>& entries,
                   LintReport& report);

/**
 * Renders the report's current findings as baseline-file lines
 * (`rule path`, sorted, deduplicated, paths normalised repo-relative).
 */
std::string FormatBaseline(const LintReport& report);

/** Renders findings as "file:line: [rule] message" lines. */
std::string FormatText(const LintReport& report);

/** Renders the full report as a machine-readable JSON document. */
std::string FormatJson(const LintReport& report);

/** Renders the report as a SARIF 2.1.0 log (one run, one result per finding). */
std::string FormatSarif(const LintReport& report);

}  // namespace muxwise::muxlint

#endif  // MUXWISE_TOOLS_MUXLINT_MUXLINT_H_
