#include "lint/driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "lint/classes.hpp"
#include "util/json.hpp"

namespace colex::lint {

namespace {

namespace fs = std::filesystem;

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh" || ext == ".hxx";
}

/// Expands files/directories into a sorted, deduplicated file list.
std::vector<std::string> collect_files(const std::vector<std::string>& paths,
                                       std::vector<std::string>& errors) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    const fs::path path(p);
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           it != end && !ec; it.increment(ec)) {
        const fs::path& entry = it->path();
        const std::string name = entry.filename().string();
        if (it->is_directory() && (name == "build" || name.rfind("build-", 0) == 0 ||
                                   (!name.empty() && name[0] == '.'))) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && lintable_extension(entry)) {
          files.push_back(entry.generic_string());
        }
      }
      if (ec) errors.push_back(p + ": " + ec.message());
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(path.generic_string());
    } else {
      errors.push_back(p + ": not a file or directory");
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

bool load_sources(const std::vector<std::string>& paths,
                  std::vector<SourceFile>& out,
                  std::vector<std::string>& errors) {
  const std::vector<std::string> files = collect_files(paths, errors);
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      errors.push_back(file + ": cannot open");
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    out.push_back(make_source_file(file, buf.str()));
  }
  if (out.empty() && errors.empty()) {
    errors.push_back("no lintable files found");
  }
  return errors.empty();
}

struct SplitFindings {
  std::vector<Finding> reported;
  std::vector<Finding> suppressed;
};

SplitFindings apply_suppressions(const std::vector<SourceFile>& files,
                                 std::vector<Finding> all) {
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : files) by_path[f.path] = &f;
  SplitFindings split;
  for (Finding& finding : all) {
    const auto it = by_path.find(finding.file);
    if (it != by_path.end() &&
        it->second->suppressed(finding.rule, finding.line)) {
      split.suppressed.push_back(std::move(finding));
    } else {
      split.reported.push_back(std::move(finding));
    }
  }
  return split;
}

void json_findings(std::ostream& os, const std::vector<Finding>& findings) {
  os << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i == 0 ? "" : ",") << "\n    {\"rule\":\"" << f.rule
       << "\",\"pass\":\"" << f.pass << "\",\"file\":";
    util::json::write_string(os, f.file);
    os << ",\"line\":" << f.line << ",\"message\":";
    util::json::write_string(os, f.message);
    os << "}";
  }
  os << (findings.empty() ? "]" : "\n  ]");
}

}  // namespace

ScanOutcome scan_paths(const std::vector<std::string>& paths,
                       std::size_t workers) {
  ScanOutcome outcome;
  std::vector<SourceFile> files;
  load_sources(paths, files, outcome.errors);
  outcome.files_scanned = files.size();
  if (files.empty()) return outcome;
  const ProjectIndex project = build_project_index(files);
  SplitFindings split =
      apply_suppressions(files, run_rules(files, project, workers));
  outcome.findings = std::move(split.reported);
  outcome.suppressed = std::move(split.suppressed);
  return outcome;
}

ScanOutcome scan_paths(const std::vector<std::string>& paths) {
  return scan_paths(paths, 1);
}

SelfTestOutcome run_self_test(const std::vector<std::string>& paths) {
  SelfTestOutcome result;
  std::vector<SourceFile> files;
  std::vector<std::string> errors;
  load_sources(paths, files, errors);
  for (const std::string& e : errors) result.problems.push_back(e);
  if (files.empty()) {
    result.problems.push_back("self-test: no fixture files");
    return result;
  }
  const ProjectIndex project = build_project_index(files);
  SplitFindings split = apply_suppressions(files, run_rules(files, project));

  // (file, line, rule) -> count, for both expectation kinds.
  using Key = std::pair<std::string, std::pair<int, std::string>>;
  auto keyed = [](const std::vector<Finding>& fs) {
    std::map<Key, int> m;
    for (const Finding& f : fs) ++m[{f.file, {f.line, f.rule}}];
    return m;
  };
  std::map<Key, int> reported = keyed(split.reported);
  std::map<Key, int> suppressed = keyed(split.suppressed);

  auto check = [&result](const char* kind, std::map<Key, int>& actual,
                         const std::string& file, int line,
                         const std::string& rule) {
    ++result.expectations;
    result.rules_exercised.insert(rule);
    const Key key{file, {line, rule}};
    auto it = actual.find(key);
    if (it == actual.end() || it->second == 0) {
      result.problems.push_back(file + ":" + std::to_string(line) +
                                ": expected " + kind + " " + rule +
                                " finding was not produced");
      return;
    }
    --it->second;
  };

  for (const SourceFile& f : files) {
    for (const auto& [line, rules] : f.expect) {
      for (const std::string& rule : rules) {
        check("reported", reported, f.path, line, rule);
      }
    }
    for (const auto& [line, rules] : f.expect_suppressed) {
      for (const std::string& rule : rules) {
        check("suppressed", suppressed, f.path, line, rule);
      }
    }
  }
  for (const auto& [key, count] : reported) {
    for (int k = 0; k < count; ++k) {
      result.problems.push_back(key.first + ":" +
                                std::to_string(key.second.first) +
                                ": unexpected " + key.second.second +
                                " finding (no expect marker)");
    }
  }
  for (const auto& [key, count] : suppressed) {
    for (int k = 0; k < count; ++k) {
      result.problems.push_back(
          key.first + ":" + std::to_string(key.second.first) +
          ": suppressed " + key.second.second +
          " finding lacks an expect-suppressed marker");
    }
  }
  result.ok = result.problems.empty() && result.expectations > 0;
  return result;
}

void print_human(std::ostream& os, const ScanOutcome& outcome) {
  for (const std::string& e : outcome.errors) {
    os << "colex-lint: error: " << e << "\n";
  }
  for (const Finding& f : outcome.findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  }
  os << "colex-lint: " << outcome.files_scanned << " files, "
     << outcome.findings.size() << " finding(s), "
     << outcome.suppressed.size() << " suppressed\n";
}

void print_json(std::ostream& os, const ScanOutcome& outcome) {
  // "tool"/"version" are kept for v1 consumers; "schema" names the v2
  // shape (per-finding "pass" field).
  os << "{\n  \"tool\": \"colex-lint\",\n  \"version\": 1,\n"
     << "  \"schema\": \"colex-lint-v2\",\n"
     << "  \"files_scanned\": " << outcome.files_scanned << ",\n"
     << "  \"findings\": ";
  json_findings(os, outcome.findings);
  os << ",\n  \"suppressed\": ";
  json_findings(os, outcome.suppressed);
  os << ",\n  \"errors\": [";
  for (std::size_t i = 0; i < outcome.errors.size(); ++i) {
    os << (i == 0 ? "" : ", ");
    util::json::write_string(os, outcome.errors[i]);
  }
  os << "]\n}\n";
}

int exit_code(const ScanOutcome& outcome) {
  if (!outcome.errors.empty()) return 2;
  return outcome.findings.empty() ? 0 : 1;
}

}  // namespace colex::lint
