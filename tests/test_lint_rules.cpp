// Tests for colex-lint (tools/lint): the lexer, the suppression markers,
// each rule against the planted fixtures under tests/lint_fixtures/, and
// the repo-tree gate itself (src/tools/bench must scan clean).
//
// COLEX_LINT_FIXTURE_DIR and COLEX_LINT_SOURCE_DIR are injected by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/classes.hpp"
#include "lint/driver.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"

namespace lint = colex::lint;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True if `findings` holds exactly one finding of `rule` at
/// `file_suffix:line`.
bool has_one(const std::vector<lint::Finding>& findings,
             const std::string& rule, const std::string& file_suffix,
             int line) {
  int count = 0;
  for (const lint::Finding& f : findings) {
    if (f.rule == rule && f.line == line && ends_with(f.file, file_suffix)) {
      ++count;
    }
  }
  return count == 1;
}

lint::ScanOutcome scan_fixtures() {
  return lint::scan_paths({COLEX_LINT_FIXTURE_DIR});
}

}  // namespace

// --- fixture self-test ---------------------------------------------------

TEST(LintSelfTest, EveryPlantedExpectationMatches) {
  const lint::SelfTestOutcome result =
      lint::run_self_test({COLEX_LINT_FIXTURE_DIR});
  for (const std::string& p : result.problems) {
    ADD_FAILURE() << "self-test problem: " << p;
  }
  EXPECT_TRUE(result.ok);
  // One positive + one suppressed case per rule, plus the extra D001 and
  // M003 positives and the second positive each O/T rule plants.
  EXPECT_EQ(result.expectations, 38u);
  EXPECT_EQ(result.rules_exercised.size(), 15u);  // all rules in the catalog
  std::set<std::string> ids;
  for (const lint::RuleInfo& rule : lint::rule_catalog()) ids.insert(rule.id);
  EXPECT_EQ(result.rules_exercised, ids);
}

// --- exact rule ids and line numbers over the fixtures -------------------

TEST(LintFixtures, ReportedFindingsHaveExactRuleIdsAndLines) {
  const lint::ScanOutcome outcome = scan_fixtures();
  ASSERT_TRUE(outcome.errors.empty());
  EXPECT_TRUE(has_one(outcome.findings, "D001", "d001_banned_random.cpp", 11));
  EXPECT_TRUE(has_one(outcome.findings, "D001", "d001_banned_random.cpp", 16));
  EXPECT_TRUE(
      has_one(outcome.findings, "D002", "d002_unordered_iteration.cpp", 12));
  EXPECT_TRUE(has_one(outcome.findings, "D003", "d003_static_local.cpp", 4));
  EXPECT_TRUE(has_one(outcome.findings, "C001", "c001_clone_members.cpp", 8));
  EXPECT_TRUE(has_one(outcome.findings, "H001", "h001_missing_guard.hpp", 1));
  EXPECT_TRUE(
      has_one(outcome.findings, "H002", "h002_using_namespace.hpp", 8));
  EXPECT_TRUE(
      has_one(outcome.findings, "M001", "src/co/m001_recv_content.cpp", 20));
  EXPECT_TRUE(
      has_one(outcome.findings, "M002", "src/co/m002_network_state.cpp", 15));
  EXPECT_TRUE(has_one(outcome.findings, "M003", "src/co/m003_payload.cpp", 4));
  EXPECT_TRUE(
      has_one(outcome.findings, "M003", "src/co/m003_payload.cpp", 15));
  // Taint pass (O-rules) fixtures under src/runtime/.
  EXPECT_TRUE(has_one(outcome.findings, "O001",
                      "src/runtime/o001_taint_branch.cpp", 17));
  EXPECT_TRUE(has_one(outcome.findings, "O001",
                      "src/runtime/o001_taint_branch.cpp", 23));
  EXPECT_TRUE(has_one(outcome.findings, "O002",
                      "src/runtime/o002_taint_loop.cpp", 16));
  EXPECT_TRUE(has_one(outcome.findings, "O002",
                      "src/runtime/o002_taint_loop.cpp", 23));
  EXPECT_TRUE(has_one(outcome.findings, "O003",
                      "src/runtime/o003_taint_send.cpp", 12));
  EXPECT_TRUE(has_one(outcome.findings, "O003",
                      "src/runtime/o003_taint_send.cpp", 16));
  // Concurrency pass (T-rules) fixtures.
  EXPECT_TRUE(
      has_one(outcome.findings, "T001", "t001_memory_order.cpp", 14));
  EXPECT_TRUE(
      has_one(outcome.findings, "T001", "t001_memory_order.cpp", 27));
  EXPECT_TRUE(
      has_one(outcome.findings, "T002", "src/coro/t002_blocking.cpp", 17));
  EXPECT_TRUE(
      has_one(outcome.findings, "T002", "src/coro/t002_blocking.cpp", 21));
  EXPECT_TRUE(has_one(outcome.findings, "T003", "t003_seqlock.cpp", 14));
  EXPECT_TRUE(has_one(outcome.findings, "T003", "t003_seqlock.cpp", 27));
  EXPECT_EQ(outcome.findings.size(), 23u);
  EXPECT_EQ(lint::exit_code(outcome), 1);
}

TEST(LintFixtures, FindingsCarryTheirProducingPass) {
  const lint::ScanOutcome outcome = scan_fixtures();
  for (const lint::Finding& f : outcome.findings) {
    const char letter = f.rule[0];
    if (letter == 'O') {
      EXPECT_EQ(f.pass, "taint") << f.rule;
    } else if (letter == 'T') {
      EXPECT_EQ(f.pass, "concurrency") << f.rule;
    } else {
      EXPECT_EQ(f.pass, "lexical") << f.rule;
    }
  }
}

TEST(LintFixtures, SuppressedFindingsHaveExactRuleIdsAndLines) {
  const lint::ScanOutcome outcome = scan_fixtures();
  EXPECT_TRUE(
      has_one(outcome.suppressed, "D001", "d001_banned_random.cpp", 20));
  EXPECT_TRUE(
      has_one(outcome.suppressed, "D002", "d002_unordered_iteration.cpp", 19));
  EXPECT_TRUE(has_one(outcome.suppressed, "D003", "d003_static_local.cpp", 14));
  EXPECT_TRUE(
      has_one(outcome.suppressed, "C001", "c001_clone_members.cpp", 22));
  EXPECT_TRUE(
      has_one(outcome.suppressed, "H001", "h001_allowed_generated.hpp", 1));
  EXPECT_TRUE(
      has_one(outcome.suppressed, "H002", "h002_using_namespace.hpp", 11));
  EXPECT_TRUE(
      has_one(outcome.suppressed, "M001", "src/co/m001_recv_content.cpp", 25));
  EXPECT_TRUE(
      has_one(outcome.suppressed, "M002", "src/co/m002_network_state.cpp", 19));
  EXPECT_TRUE(
      has_one(outcome.suppressed, "M003", "src/co/m003_payload.cpp", 16));
  EXPECT_TRUE(has_one(outcome.suppressed, "O001",
                      "src/runtime/o001_taint_branch.cpp", 30));
  EXPECT_TRUE(has_one(outcome.suppressed, "O002",
                      "src/runtime/o002_taint_loop.cpp", 30));
  EXPECT_TRUE(has_one(outcome.suppressed, "O003",
                      "src/runtime/o003_taint_send.cpp", 21));
  EXPECT_TRUE(
      has_one(outcome.suppressed, "T001", "t001_memory_order.cpp", 38));
  EXPECT_TRUE(
      has_one(outcome.suppressed, "T002", "src/coro/t002_blocking.cpp", 25));
  EXPECT_TRUE(has_one(outcome.suppressed, "T003", "t003_seqlock.cpp", 44));
  EXPECT_EQ(outcome.suppressed.size(), 15u);
}

// --- parallel scan determinism -------------------------------------------

TEST(LintParallel, FindingOrderIsIdenticalForAnyWorkerCount) {
  const lint::ScanOutcome one = lint::scan_paths({COLEX_LINT_FIXTURE_DIR}, 1);
  for (const std::size_t workers : {2u, 4u, 7u}) {
    const lint::ScanOutcome many =
        lint::scan_paths({COLEX_LINT_FIXTURE_DIR}, workers);
    ASSERT_EQ(many.findings.size(), one.findings.size()) << workers;
    for (std::size_t i = 0; i < one.findings.size(); ++i) {
      EXPECT_EQ(many.findings[i].rule, one.findings[i].rule);
      EXPECT_EQ(many.findings[i].file, one.findings[i].file);
      EXPECT_EQ(many.findings[i].line, one.findings[i].line);
      EXPECT_EQ(many.findings[i].message, one.findings[i].message);
      EXPECT_EQ(many.findings[i].pass, one.findings[i].pass);
    }
    EXPECT_EQ(many.suppressed.size(), one.suppressed.size());
  }
}

// --- the real tree gates clean -------------------------------------------

TEST(LintTree, SrcToolsBenchScanClean) {
  const lint::ScanOutcome outcome =
      lint::scan_paths({std::string(COLEX_LINT_SOURCE_DIR) + "/src",
                        std::string(COLEX_LINT_SOURCE_DIR) + "/tools",
                        std::string(COLEX_LINT_SOURCE_DIR) + "/bench"});
  EXPECT_TRUE(outcome.errors.empty());
  for (const lint::Finding& f : outcome.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
  EXPECT_EQ(lint::exit_code(outcome), 0);
  // The two justified suppressions: Network::clone() deliberately does not
  // copy send_observer_ (forks are exploration states, not traced runs),
  // and the executor's wake handshake locks park_mutex_ with an empty
  // critical section (never held across a park).
  ASSERT_EQ(outcome.suppressed.size(), 2u);  // sorted by (file, line, rule)
  EXPECT_TRUE(
      has_one(outcome.suppressed, "T002", "src/coro/executor.cpp", 46));
  EXPECT_EQ(outcome.suppressed[1].rule, "C001");
  EXPECT_TRUE(ends_with(outcome.suppressed[1].file, "src/sim/network.hpp"));
}

// --- lexer ---------------------------------------------------------------

TEST(LintLexer, CommentsAndStringsDoNotLeakTokens) {
  const lint::LexResult lexed = lint::lex(
      "// rand() in a comment\n"
      "/* mt19937 in a block\n   comment */\n"
      "const char* s = \"random_device\";\n"
      "const char* r = R\"(time(nullptr))\";\n"
      "char c = 'x';\n");
  for (const lint::Token& t : lexed.tokens) {
    if (t.kind != lint::Tok::identifier) continue;
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "mt19937");
    EXPECT_NE(t.text, "random_device");
    EXPECT_NE(t.text, "time");
  }
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].line, 1);
  EXPECT_EQ(lexed.comments[1].line, 2);
  EXPECT_EQ(lexed.comments[1].end_line, 3);
}

TEST(LintLexer, LineCommentContinuesAcrossBackslashNewline) {
  // A backslash at the end of a `//` line splices the next physical line
  // into the comment (phase-2 line splicing), so `rand()` on the spliced
  // line must not lex as code — and the comment's extent must cover both
  // lines so a marker inside it anchors correctly.
  const lint::LexResult lexed = lint::lex(
      "// spliced comment \\\n"
      "rand(); still the same comment\n"
      "int live = 1;\n");
  for (const lint::Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
  }
  ASSERT_EQ(lexed.comments.size(), 1u);
  EXPECT_EQ(lexed.comments[0].line, 1);
  EXPECT_EQ(lexed.comments[0].end_line, 2);
  EXPECT_NE(lexed.comments[0].text.find("still the same comment"),
            std::string::npos);
  // The code after the spliced comment still lexes, on the right line.
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens[0].text, "int");
  EXPECT_EQ(lexed.tokens[0].line, 3);

  // CRLF endings: the backslash still precedes the (logical) newline.
  const lint::LexResult crlf = lint::lex("// one \\\r\ntwo\r\nint x;\r\n");
  ASSERT_EQ(crlf.comments.size(), 1u);
  EXPECT_EQ(crlf.comments[0].end_line, 2);
}

TEST(LintLexer, TokensCarryOneBasedLineNumbers) {
  const lint::LexResult lexed = lint::lex("int a;\n\nint b;\n");
  ASSERT_EQ(lexed.tokens.size(), 6u);
  EXPECT_EQ(lexed.tokens[0].line, 1);  // int
  EXPECT_EQ(lexed.tokens[3].line, 3);  // int (second)
}

// --- suppression markers -------------------------------------------------

TEST(LintSuppression, AllowCoversSameAndNextLine) {
  const lint::SourceFile f = lint::make_source_file(
      "x.cpp",
      "int f() {\n"
      "  // colex-lint: allow(D003) reason\n"
      "  static int s = 0;\n"
      "  return s;\n"
      "}\n");
  EXPECT_TRUE(f.suppressed("D003", 3));   // line below the marker
  EXPECT_TRUE(f.suppressed("D003", 2));   // the marker line itself
  EXPECT_FALSE(f.suppressed("D003", 4));  // two lines below
  EXPECT_FALSE(f.suppressed("D001", 3));  // a different rule
}

TEST(LintSuppression, WrappedJustificationAnchorsAtLastCommentLine) {
  const lint::SourceFile f = lint::make_source_file(
      "x.cpp",
      "// colex-lint: allow(C001) the justification wraps onto a\n"
      "// second comment line; the marker anchors at the last one.\n"
      "int target() { return 0; }\n");
  EXPECT_TRUE(f.suppressed("C001", 3));
}

TEST(LintSuppression, AllowFileCoversEveryLine) {
  const lint::SourceFile f = lint::make_source_file(
      "x.cpp", "// colex-lint: allow-file(D002) fixture\nint x = 0;\n");
  EXPECT_TRUE(f.suppressed("D002", 1));
  EXPECT_TRUE(f.suppressed("D002", 999));
  EXPECT_FALSE(f.suppressed("D001", 1));
}

// --- rules over in-memory sources ----------------------------------------

TEST(LintRules, PathScopingActivatesModelRulesOnlyUnderModelDirs) {
  const std::string body =
      "struct AutomatonBase {};\n"
      "struct Node : AutomatonBase {\n"
      "  void react() { total_sent(); }\n"
      "};\n";
  for (const auto& [path, expect_m002] :
       std::vector<std::pair<std::string, bool>>{
           {"src/co/node.cpp", true},
           {"src/colib/node.cpp", true},
           {"src/lb/node.cpp", false}}) {
    std::vector<lint::SourceFile> files;
    files.push_back(lint::make_source_file(path, body));
    const lint::ProjectIndex project = lint::build_project_index(files);
    const std::vector<lint::Finding> findings =
        lint::run_rules(files, project);
    EXPECT_EQ(has_one(findings, "M002", path, 3), expect_m002) << path;
  }
}

TEST(LintRules, CloneMembersAggregateAcrossHeaderAndSource) {
  // Members in the header, clone() out of line in the .cpp — the record is
  // aggregated project-wide by class name.
  std::vector<lint::SourceFile> files;
  files.push_back(lint::make_source_file(
      "src/x/split.hpp",
      "#pragma once\n"
      "struct Split {\n"
      "  Split* clone() const;\n"
      "  int kept_ = 0;\n"
      "  int dropped_ = 0;\n"
      "};\n"));
  files.push_back(lint::make_source_file(
      "src/x/split.cpp",
      "#include \"split.hpp\"\n"
      "Split* Split::clone() const {\n"
      "  auto* copy = new Split();\n"
      "  copy->kept_ = kept_;\n"
      "  return copy;\n"
      "}\n"));
  const lint::ProjectIndex project = lint::build_project_index(files);
  const std::vector<lint::Finding> findings = lint::run_rules(files, project);
  ASSERT_TRUE(has_one(findings, "C001", "src/x/split.cpp", 2));
  for (const lint::Finding& f : findings) {
    if (f.rule != "C001") continue;
    EXPECT_NE(f.message.find("dropped_"), std::string::npos);
    EXPECT_EQ(f.message.find("kept_"), std::string::npos);
  }
}

TEST(LintRules, CloneViaThisAndImplicitCopyIsComplete) {
  std::vector<lint::SourceFile> files;
  files.push_back(lint::make_source_file(
      "src/x/whole.hpp",
      "#pragma once\n"
      "struct Whole {\n"
      "  Whole* clone() const { return new Whole(*this); }\n"
      "  int a_ = 0;\n"
      "  int b_ = 0;\n"
      "};\n"));
  const lint::ProjectIndex project = lint::build_project_index(files);
  for (const lint::Finding& f : lint::run_rules(files, project)) {
    EXPECT_NE(f.rule, "C001") << f.message;
  }
}

// --- output and exit contract --------------------------------------------

TEST(LintDriver, ExitContractMirrorsColexFuzz) {
  lint::ScanOutcome clean;
  clean.files_scanned = 1;
  EXPECT_EQ(lint::exit_code(clean), 0);

  lint::ScanOutcome dirty;
  dirty.findings.push_back(lint::Finding{"D001", "x.cpp", 1, "m"});
  EXPECT_EQ(lint::exit_code(dirty), 1);

  lint::ScanOutcome broken;
  broken.errors.push_back("missing: cannot open");
  EXPECT_EQ(lint::exit_code(broken), 2);

  const lint::ScanOutcome missing = lint::scan_paths({"/nonexistent-colex"});
  EXPECT_EQ(lint::exit_code(missing), 2);
}

TEST(LintDriver, JsonOutputEscapesAndListsFindings) {
  lint::ScanOutcome outcome;
  outcome.files_scanned = 2;
  outcome.findings.push_back(
      lint::Finding{"D001", "a\"b.cpp", 7, "line one\nline two"});
  std::ostringstream os;
  lint::print_json(os, outcome);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"tool\": \"colex-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"D001\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b.cpp"), std::string::npos);
  EXPECT_NE(json.find("line one\\nline two"), std::string::npos);
  // v2 additions are additive: schema marker plus a per-finding pass field,
  // with the v1 "tool"/"version" keys untouched.
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"colex-lint-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\":\"lexical\""), std::string::npos);
}

TEST(LintDriver, JsonTagsFindingsWithTheirPass) {
  lint::ScanOutcome outcome;
  outcome.files_scanned = 1;
  outcome.findings.push_back(
      lint::Finding{"O001", "x.cpp", 3, "m", "taint"});
  outcome.findings.push_back(
      lint::Finding{"T002", "y.cpp", 9, "m", "concurrency"});
  std::ostringstream os;
  lint::print_json(os, outcome);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"rule\":\"O001\",\"pass\":\"taint\""),
            std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"T002\",\"pass\":\"concurrency\""),
            std::string::npos);
}

TEST(LintDriver, RuleCatalogIsStableAndComplete) {
  const std::vector<lint::RuleInfo> catalog = lint::rule_catalog();
  ASSERT_EQ(catalog.size(), 15u);
  std::set<std::string> ids;
  for (const lint::RuleInfo& rule : catalog) {
    ASSERT_FALSE(rule.id.empty());
    EXPECT_TRUE(rule.id[0] == 'D' || rule.id[0] == 'M' || rule.id[0] == 'C' ||
                rule.id[0] == 'H' || rule.id[0] == 'O' || rule.id[0] == 'T')
        << rule.id;
    EXPECT_FALSE(rule.summary.empty());
    EXPECT_TRUE(rule.pass == "lexical" || rule.pass == "taint" ||
                rule.pass == "concurrency")
        << rule.id << " pass=" << rule.pass;
    ids.insert(rule.id);
  }
  EXPECT_EQ(ids.size(), catalog.size()) << "duplicate rule ids";
}
