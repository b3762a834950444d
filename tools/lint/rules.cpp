#include "lint/rules.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "lint/callgraph.hpp"
#include "lint/concurrency.hpp"
#include "lint/symbols.hpp"
#include "lint/taint.hpp"
#include "sim/parallel.hpp"

namespace colex::lint {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

/// True for files the M-rules treat as content-oblivious model code. The
/// check is on the relative path, so fixtures mirror it with a
/// `src/co/...` subdirectory.
bool in_model_dirs(const std::string& path) {
  return path_contains(path, "src/co/") || path_contains(path, "src/colib/");
}

void add(std::vector<Finding>& out, const char* rule, const SourceFile& f,
         int line, std::string message) {
  out.push_back(Finding{rule, f.path, line, std::move(message)});
}

/// Index of the token matching `open` ('(' -> ')', '<' -> '>'), or kNone.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          char open_ch, char close_ch) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (toks[j].kind != Tok::punct) continue;
    if (toks[j].text[0] == open_ch) ++depth;
    else if (toks[j].text[0] == close_ch) {
      --depth;
      if (depth == 0) return j;
    }
  }
  return kNone;
}

// --- D001: banned nondeterminism sources --------------------------------

const std::set<std::string>& banned_random_idents() {
  static const std::set<std::string> kBanned = {
      "rand",          "srand",         "rand_r",
      "drand48",       "lrand48",       "random",
      "random_device", "mt19937",       "mt19937_64",
      "minstd_rand",   "minstd_rand0",  "default_random_engine",
      "ranlux24",      "ranlux48",      "knuth_b",
      "getpid",        "gettimeofday",
  };
  return kBanned;
}

void rule_d001(const SourceFile& f, std::vector<Finding>& out) {
  const auto& toks = f.tokens;
  // `#include <random>` mentions a banned *header name*, not a use site.
  std::set<int> include_lines;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text == "#" && toks[i + 1].text == "include") {
      include_lines.insert(toks[i].line);
    }
  }
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::identifier) continue;
    if (include_lines.count(toks[i].line) != 0) continue;
    const std::string& id = toks[i].text;
    if (banned_random_idents().count(id) != 0) {
      add(out, "D001", f, toks[i].line,
          "nondeterministic source '" + id +
              "': all randomness must flow through the seeded generators in "
              "util/rng.hpp");
      continue;
    }
    // `time(nullptr)` / `time(NULL)` / `time(0)` — wall-clock seeding.
    if (id == "time" && i + 3 < toks.size() && toks[i + 1].text == "(" &&
        toks[i + 3].text == ")" &&
        (toks[i + 2].text == "nullptr" || toks[i + 2].text == "NULL" ||
         toks[i + 2].text == "0")) {
      add(out, "D001", f, toks[i].line,
          "wall-clock seed 'time(" + toks[i + 2].text +
              ")': runs must be reproducible from an explicit seed");
    }
  }
}

// --- D002: iteration over unordered containers --------------------------

bool is_unordered_type(const std::string& id) {
  return id == "unordered_map" || id == "unordered_set" ||
         id == "unordered_multimap" || id == "unordered_multiset";
}

void rule_d002(const SourceFile& f, std::vector<Finding>& out) {
  const auto& toks = f.tokens;
  // Pass 1: names declared with an unordered type (members, locals, params).
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::identifier || !is_unordered_type(toks[i].text))
      continue;
    if (toks[i + 1].text != "<") continue;
    const std::size_t close = match_forward(toks, i + 1, '<', '>');
    if (close == kNone) continue;
    std::size_t j = close + 1;
    while (j < toks.size() && toks[j].kind == Tok::punct &&
           (toks[j].text == "&" || toks[j].text == "*")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Tok::identifier) {
      unordered_vars.insert(toks[j].text);
    }
  }
  if (unordered_vars.empty()) return;

  auto flag = [&](std::size_t i, const std::string& var) {
    add(out, "D002", f, toks[i].line,
        "iteration over unordered container '" + var +
            "': the visit order is unspecified and can leak into "
            "trace/metrics/repro output — iterate a sorted snapshot or use "
            "an ordered container");
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression names an unordered variable.
    if (toks[i].kind == Tok::identifier && toks[i].text == "for" &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      const std::size_t close = match_forward(toks, i + 1, '(', ')');
      if (close == kNone) continue;
      std::size_t colon = kNone;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (toks[j].kind != Tok::punct) continue;
        if (toks[j].text == "(") ++depth;
        else if (toks[j].text == ")") --depth;
        else if (toks[j].text == ":" && depth == 1 &&
                 toks[j - 1].text != ":" && toks[j + 1].text != ":") {
          colon = j;
          break;
        }
      }
      if (colon == kNone) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == Tok::identifier &&
            unordered_vars.count(toks[j].text) != 0) {
          flag(i, toks[j].text);
          break;
        }
      }
      continue;
    }
    // Explicit iterator loops: u.begin() / u.cbegin().
    if (toks[i].kind == Tok::identifier &&
        unordered_vars.count(toks[i].text) != 0 && i + 3 < toks.size() &&
        toks[i + 1].text == "." &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin") &&
        toks[i + 3].text == "(") {
      flag(i, toks[i].text);
    }
  }
}

// --- D003: mutable function-local statics -------------------------------

void rule_d003(const SourceFile& f, const FileIndex& index,
               std::vector<Finding>& out) {
  for (const int line : index.mutable_static_local_lines) {
    add(out, "D003", f, line,
        "mutable function-local 'static': hidden state survives across "
        "runs and clones, breaking run-to-run determinism and snapshot "
        "exploration — make it a member, a parameter, or const");
  }
}

// --- M-rules: shared extent machinery -----------------------------------

/// Token ranges of "automaton code" in this file: bodies of classes that
/// derive from an Automaton type, plus out-of-line member functions of such
/// classes (`X::f` definitions in a .cpp).
std::vector<std::pair<std::size_t, std::size_t>> automaton_extents(
    const FileIndex& index, const ProjectIndex& project) {
  std::vector<std::pair<std::size_t, std::size_t>> extents;
  for (const ClassDef& cls : index.classes) {
    if (project.automaton_classes.count(cls.name) != 0 &&
        cls.body_end > cls.body_begin) {
      extents.emplace_back(cls.body_begin, cls.body_end);
    }
  }
  for (const FunctionDef& fn : index.functions) {
    if (!fn.owner.empty() &&
        project.automaton_classes.count(fn.owner) != 0 &&
        fn.body_end > fn.body_begin) {
      extents.emplace_back(fn.sig_begin, fn.body_end);
    }
  }
  // Inline member functions sit inside their class-body extent; merge
  // overlaps so each token is scanned (and flagged) at most once.
  std::sort(extents.begin(), extents.end());
  std::vector<std::pair<std::size_t, std::size_t>> merged;
  for (const auto& e : extents) {
    if (!merged.empty() && e.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, e.second);
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

void rule_m001(const SourceFile& f, const FileIndex& index,
               const ProjectIndex& project, std::vector<Finding>& out) {
  if (!in_model_dirs(f.path)) return;
  const auto& toks = f.tokens;
  for (const auto& [begin, end] : automaton_extents(index, project)) {
    for (std::size_t i = begin; i < end; ++i) {
      if (toks[i].kind != Tok::identifier || toks[i].text != "recv") continue;
      if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
      const std::size_t close = match_forward(toks, i + 1, '(', ')');
      if (close == kNone || close + 1 >= toks.size()) continue;
      const Token& after = toks[close + 1];
      bool content_read = false;
      if (after.kind == Tok::punct && after.text == "." &&
          close + 2 < toks.size() && toks[close + 2].text != "has_value") {
        content_read = true;  // recv(p).value() / recv(p).payload ...
      }
      if (after.kind == Tok::punct && after.text == "-" &&
          close + 2 < toks.size() && toks[close + 2].text == ">") {
        content_read = true;  // recv(p)->field
      }
      // *ctx.recv(p) — leading dereference of the optional's payload.
      if (i >= 3 && toks[i - 1].text == "." &&
          toks[i - 2].kind == Tok::identifier && toks[i - 3].text == "*") {
        content_read = true;
      }
      if (content_read) {
        add(out, "M001", f, toks[i].line,
            "automaton reads message *content* from recv(): in the fully "
            "defective model a pulse carries no payload — only its presence "
            "and arrival port may be used (recv_pulse/has_value)");
      }
    }
  }
}

const std::set<std::string>& network_global_idents() {
  static const std::set<std::string> kBanned = {
      "automaton",      "automaton_as",   "set_automaton",
      "inbox_size",     "node_crashed",   "pending_channels",
      "channel_pending", "channel_source", "channel_target",
      "in_transit",     "in_flight",      "total_sent",
      "total_delivered", "total_consumed", "Network",
  };
  return kBanned;
}

void rule_m002(const SourceFile& f, const FileIndex& index,
               const ProjectIndex& project, std::vector<Finding>& out) {
  if (!in_model_dirs(f.path)) return;
  const auto& toks = f.tokens;
  for (const auto& [begin, end] : automaton_extents(index, project)) {
    for (std::size_t i = begin; i < end; ++i) {
      if (toks[i].kind != Tok::identifier) continue;
      if (network_global_idents().count(toks[i].text) == 0) continue;
      add(out, "M002", f, toks[i].line,
          "automaton code touches global network state ('" + toks[i].text +
              "'): a node may depend only on its own port identity and "
              "pulse counts (paper §2) — route everything through Context");
    }
  }
}

void rule_m003(const SourceFile& f, const FileIndex& index,
               std::vector<Finding>& out) {
  // (a) The Pulse payload must stay empty, everywhere.
  for (const ClassDef& cls : index.classes) {
    if (cls.name == "Pulse" && cls.body_end > cls.body_begin) {
      add(out, "M003", f, cls.line,
          "'Pulse' must stay an empty struct: any member smuggles content "
          "through the fully defective channel (paper §2)");
    }
  }
  // (b) Content-carrying payload instantiations inside model code.
  if (!in_model_dirs(f.path)) return;
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Tok::identifier) continue;
    const std::string& id = toks[i].text;
    if (id != "Network" && id != "Context" && id != "Automaton") continue;
    if (toks[i + 1].text != "<") continue;
    std::size_t j = i + 2;
    while (j + 1 < toks.size() && toks[j].kind == Tok::identifier &&
           toks[j + 1].text == ":" && j + 2 < toks.size() &&
           toks[j + 2].text == ":") {
      j += 3;  // skip namespace qualifiers (sim::Pulse)
    }
    if (j >= toks.size() || toks[j].kind != Tok::identifier) continue;
    const std::string& payload = toks[j].text;
    if (payload == "Pulse" || payload == "P") continue;
    add(out, "M003", f, toks[i].line,
        "content-carrying payload '" + payload + "' in " + id +
            "<>: src/co and src/colib are content-oblivious — only "
            "Network<Pulse> instantiations belong here");
  }
}

// --- C001: clone completeness -------------------------------------------

struct CloneRecord {
  // Members aggregated from every definition of the class (header).
  std::map<std::string, std::pair<std::string, int>> members;  // -> file,line
  // Every clone() definition: anchor + mentioned token texts.
  struct Def {
    std::string file;
    int line = 0;
    std::set<std::string> mentions;
    bool has_this = false;
  };
  std::vector<Def> clone_defs;
  bool has_user_copy_ctor = false;
  bool copy_ctor_defaulted = false;
  std::set<std::string> copy_mentions;
};

bool signature_is_copy_ctor(const std::vector<Token>& toks,
                            const FunctionDef& fn) {
  // Look for `const <Owner> &` between the name and the body.
  for (std::size_t j = fn.sig_begin; j + 2 < fn.body_begin; ++j) {
    if (toks[j].text == "const" && toks[j + 1].text == fn.owner &&
        toks[j + 2].text == "&") {
      return true;
    }
  }
  return false;
}

void scan_defaulted_copy(const std::vector<Token>& toks, const ClassDef& cls,
                         CloneRecord& rec) {
  for (std::size_t j = cls.body_begin; j + 4 < cls.body_end; ++j) {
    if (toks[j].text != cls.name || toks[j + 1].text != "(" ||
        toks[j + 2].text != "const" || toks[j + 3].text != cls.name ||
        toks[j + 4].text != "&") {
      continue;
    }
    const std::size_t close = match_forward(toks, j + 1, '(', ')');
    if (close == kNone || close + 2 >= cls.body_end) continue;
    if (toks[close + 1].text == "=" && toks[close + 2].text == "default") {
      rec.copy_ctor_defaulted = true;
    }
  }
}

void rule_c001(const std::vector<SourceFile>& files,
               const ProjectIndex& project, std::vector<Finding>& out) {
  std::map<std::string, CloneRecord> records;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const auto& toks = files[fi].tokens;
    const FileIndex& index = project.files[fi];
    for (const ClassDef& cls : index.classes) {
      if (cls.name.empty()) continue;
      CloneRecord& rec = records[cls.name];
      for (const std::string& m : cls.members) {
        rec.members.emplace(m,
                            std::make_pair(files[fi].path,
                                           cls.member_lines.at(m)));
      }
      scan_defaulted_copy(toks, cls, rec);
    }
    for (const FunctionDef& fn : index.functions) {
      if (fn.owner.empty() || fn.name.empty()) continue;
      if (fn.name == "clone") {
        CloneRecord::Def def;
        def.file = files[fi].path;
        def.line = fn.line;
        for (std::size_t j = fn.sig_begin; j < fn.body_end; ++j) {
          def.mentions.insert(toks[j].text);
          if (toks[j].text == "this") def.has_this = true;
        }
        records[fn.owner].clone_defs.push_back(std::move(def));
      } else if (fn.name == fn.owner &&
                 signature_is_copy_ctor(toks, fn)) {
        CloneRecord& rec = records[fn.owner];
        rec.has_user_copy_ctor = true;
        for (std::size_t j = fn.sig_begin; j < fn.body_end; ++j) {
          rec.copy_mentions.insert(toks[j].text);
        }
      }
    }
  }

  for (const auto& [name, rec] : records) {
    if (rec.clone_defs.empty() || rec.members.empty()) continue;
    std::set<std::string> mentions = rec.copy_mentions;
    bool any_this = false;
    for (const auto& def : rec.clone_defs) {
      mentions.insert(def.mentions.begin(), def.mentions.end());
      any_this = any_this || def.has_this;
    }
    // `return make_unique<X>(*this)` with the implicit (or defaulted) copy
    // constructor copies every member by construction.
    if (any_this && (!rec.has_user_copy_ctor || rec.copy_ctor_defaulted)) {
      continue;
    }
    std::string missing;
    for (const auto& member : rec.members) {
      if (mentions.count(member.first) != 0) continue;
      if (!missing.empty()) missing += ", ";
      missing += member.first;
    }
    if (missing.empty()) continue;
    const auto& def = rec.clone_defs.front();
    out.push_back(Finding{
        "C001", def.file, def.line,
        "clone() of '" + name + "' never mentions data member(s): " +
            missing +
            " — a forgotten member silently desynchronizes snapshot "
            "exploration forks; copy it or allow(C001) with a reason"});
  }
}

// --- H-rules: hygiene ---------------------------------------------------

void rule_h001(const SourceFile& f, std::vector<Finding>& out) {
  if (!f.is_header) return;
  const auto& toks = f.tokens;
  const std::size_t limit = std::min<std::size_t>(toks.size(), 100);
  bool guarded = false;
  for (std::size_t i = 0; i + 2 < limit; ++i) {
    if (toks[i].text != "#") continue;
    if (toks[i + 1].text == "pragma" && toks[i + 2].text == "once") {
      guarded = true;
      break;
    }
    if (toks[i + 1].text == "ifndef") {
      guarded = true;  // classic guard; trust the matching #define
      break;
    }
  }
  if (!guarded) {
    add(out, "H001", f, 1,
        "header has no include guard: add '#pragma once' as the first "
        "non-comment line");
  }
}

void rule_h002(const SourceFile& f, std::vector<Finding>& out) {
  if (!f.is_header) return;
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text == "using" && toks[i + 1].text == "namespace") {
      add(out, "H002", f, toks[i].line,
          "'using namespace' in a header leaks into every includer — "
          "qualify names or move the directive into a .cpp");
    }
  }
}

}  // namespace

std::vector<RuleInfo> rule_catalog() {
  return {
      {"D001", "lexical",
       "banned nondeterminism source (std::rand, random_device, "
       "mt19937, wall-clock seeding) outside util/rng.hpp"},
      {"D002", "lexical",
       "iteration over an unordered container (order can leak into "
       "trace/metrics/repro output)"},
      {"D003", "lexical",
       "mutable function-local static (hidden cross-run, "
       "cross-clone state)"},
      {"M001", "lexical",
       "automaton reads pulse content from recv() (model allows "
       "only presence + port)"},
      {"M002", "lexical",
       "automaton touches global network state (neighbor state, "
       "channel contents, totals)"},
      {"M003", "lexical",
       "non-empty Pulse payload, or content-carrying "
       "Network/Context/Automaton instantiation in src/co|src/colib"},
      {"C001", "lexical",
       "Automaton clone()/copy path never mentions a declared data "
       "member"},
      {"H001", "lexical", "header without include guard / #pragma once"},
      {"H002", "lexical", "'using namespace' in a header"},
      {"O001", "taint",
       "payload-derived value (recv content, wire decoder, tainted-returning "
       "call) flows into an if/switch condition outside src/net|src/obs"},
      {"O002", "taint",
       "payload-derived value flows into a for/while loop bound outside "
       "src/net|src/obs"},
      {"O003", "taint",
       "payload-derived value flows into a send-family call (content-"
       "dependent send count) outside src/net|src/obs"},
      {"T001", "concurrency",
       "unpaired atomic memory order on a class member: release store with "
       "no acquire/seq_cst load anywhere, or acquire load with no "
       "release/seq_cst store"},
      {"T002", "concurrency",
       "blocking call (mutex lock, condvar wait, sleep, join, socket "
       "send_all/recv_byte) reachable on the call graph from a coroutine "
       "body through src/coro"},
      {"T003", "concurrency",
       "seqlock writer stores payload atomics without the odd/even version "
       "bracket (obs/flight protocol shape)"},
  };
}

std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const ProjectIndex& project,
                               std::size_t workers) {
  // Single-threaded prologue: the cross-file joins every interprocedural
  // rule reads from.
  const SymbolTable symbols = build_symbol_table(files, project);
  const CallGraph graph = build_call_graph(files, project, symbols);
  const TaintContext taint = build_taint_context(files, project, symbols);

  // Per-file fan-out over the sim/parallel.hpp pool: each task writes only
  // its own file's slot, so the merged result is worker-count oblivious.
  std::vector<std::vector<Finding>> slots(files.size());
  sim::parallel_for(files.size(), workers, [&](std::size_t fi) {
    const SourceFile& f = files[fi];
    const FileIndex& index = project.files[fi];
    std::vector<Finding>& slot = slots[fi];
    rule_d001(f, slot);
    rule_d002(f, slot);
    rule_d003(f, index, slot);
    rule_m001(f, index, project, slot);
    rule_m002(f, index, project, slot);
    rule_m003(f, index, slot);
    rule_h001(f, slot);
    rule_h002(f, slot);
    run_taint_rules_on_file(f, index, taint, slot);
  });
  std::vector<Finding> out;
  for (std::vector<Finding>& slot : slots) {
    out.insert(out.end(), std::make_move_iterator(slot.begin()),
               std::make_move_iterator(slot.end()));
  }

  // Sequential epilogue: rules that aggregate across the whole project.
  rule_c001(files, project, out);
  run_concurrency_rules(files, project, symbols, graph, out);

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const ProjectIndex& project) {
  return run_rules(files, project, 1);
}

}  // namespace colex::lint
