#include "lint/concurrency.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace colex::lint {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

void add(std::vector<Finding>& out, const char* rule, const std::string& file,
         int line, std::string message) {
  out.push_back(Finding{rule, file, line, std::move(message), "concurrency"});
}

// --- atomic member registry (shared by T001 / T003) ----------------------

struct AtomicMember {
  std::string cls;
  std::string name;
  std::string file;
  std::string dir;  // directory of the declaring file
  int line = 0;
};

/// True when token `t` of file `fi` lies inside any function body — used to
/// keep function-local atomics (e.g. the parallel_for cursor) out of the
/// member registry: a local's synchronization story is visible in one
/// function and T001's project-wide pairing would only produce noise there.
bool inside_function(const FileIndex& index, std::size_t t) {
  for (const FunctionDef& fn : index.functions) {
    if (t >= fn.body_begin && t < fn.body_end) return true;
  }
  return false;
}

/// True when token `t` lies inside a class body strictly nested within
/// `cls`. Nested-struct members belong to the inner class — FlightRing's
/// Slot atomics are Slot's seqlock, not part of FlightRing's own state —
/// and the inner class's own iteration records them.
bool inside_nested_class(const FileIndex& index, const ClassDef& cls,
                         std::size_t t) {
  for (const ClassDef& inner : index.classes) {
    if (&inner == &cls) continue;
    if (inner.body_begin > cls.body_begin && inner.body_end <= cls.body_end &&
        t >= inner.body_begin && t < inner.body_end) {
      return true;
    }
  }
  return false;
}

std::vector<AtomicMember> collect_atomic_members(
    const std::vector<SourceFile>& files, const ProjectIndex& project) {
  std::vector<AtomicMember> members;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const auto& toks = files[fi].tokens;
    const FileIndex& index = project.files[fi];
    for (const ClassDef& cls : index.classes) {
      if (cls.name.empty() || cls.body_end <= cls.body_begin) continue;
      for (std::size_t i = cls.body_begin;
           i + 1 < cls.body_end && i + 1 < toks.size(); ++i) {
        if (toks[i].kind != Tok::identifier || toks[i].text != "atomic")
          continue;
        if (toks[i + 1].text != "<") continue;
        if (inside_function(index, i)) continue;
        if (inside_nested_class(index, cls, i)) continue;
        const std::size_t close = match_forward_tok(toks, i + 1, '<', '>');
        if (close == kNone || close >= cls.body_end) continue;
        std::size_t j = close + 1;
        while (j < cls.body_end && toks[j].kind == Tok::punct &&
               (toks[j].text == "*" || toks[j].text == "&")) {
          ++j;
        }
        if (j + 1 >= cls.body_end || toks[j].kind != Tok::identifier) continue;
        const Token& next = toks[j + 1];
        if (next.kind != Tok::punct ||
            (next.text != ";" && next.text != "=" && next.text != "{" &&
             next.text != "," && next.text != "[")) {
          continue;
        }
        members.push_back(AtomicMember{cls.name, toks[j].text, files[fi].path,
                                       dir_of(files[fi].path),
                                       toks[j].line});
      }
    }
  }
  return members;
}

// --- T001: unpaired memory orders ----------------------------------------

enum class Order { relaxed, consume, acquire, release, acq_rel, seq_cst };

bool order_acquires(Order o) {
  return o == Order::acquire || o == Order::consume || o == Order::acq_rel ||
         o == Order::seq_cst;
}
bool order_releases(Order o) {
  return o == Order::release || o == Order::acq_rel || o == Order::seq_cst;
}

/// Memory orders named inside a call's parens; empty means the seq_cst
/// default. Accepts both `std::memory_order_release` and
/// `std::memory_order::release` spellings.
std::vector<Order> orders_in_call(const std::vector<Token>& toks,
                                  std::size_t open, std::size_t close) {
  static const std::map<std::string, Order> kNames = {
      {"relaxed", Order::relaxed}, {"consume", Order::consume},
      {"acquire", Order::acquire}, {"release", Order::release},
      {"acq_rel", Order::acq_rel}, {"seq_cst", Order::seq_cst},
  };
  std::vector<Order> out;
  for (std::size_t j = open + 1; j < close && j < toks.size(); ++j) {
    if (toks[j].kind != Tok::identifier) continue;
    const std::string& id = toks[j].text;
    const std::string prefix = "memory_order_";
    if (id.rfind(prefix, 0) == 0) {
      const auto it = kNames.find(id.substr(prefix.size()));
      if (it != kNames.end()) out.push_back(it->second);
    } else if (id == "memory_order" && j + 3 < close &&
               toks[j + 1].text == ":" && toks[j + 2].text == ":") {
      const auto it = kNames.find(toks[j + 3].text);
      if (it != kNames.end()) out.push_back(it->second);
    }
  }
  return out;
}

struct MemberOrderUses {
  struct Site {
    std::string file;
    int line = 0;
  };
  std::vector<Site> release_stores;  // plain store(..., release)
  std::vector<Site> acquire_loads;   // plain load(acquire|consume)
  bool any_sync_store = false;  // store/RMW with release|acq_rel|seq_cst
  bool any_sync_load = false;   // load/RMW with acquire|consume|...|seq_cst
};

bool is_rmw_name(const std::string& s) {
  return s == "exchange" || s == "fetch_add" || s == "fetch_sub" ||
         s == "fetch_and" || s == "fetch_or" || s == "fetch_xor" ||
         s == "compare_exchange_weak" || s == "compare_exchange_strong";
}

void rule_t001(const std::vector<SourceFile>& files,
               const std::vector<AtomicMember>& members,
               std::vector<Finding>& out) {
  std::set<std::string> names;
  for (const AtomicMember& m : members) names.insert(m.name);
  if (names.empty()) return;

  std::map<std::string, MemberOrderUses> uses;
  for (const SourceFile& f : files) {
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].kind != Tok::identifier || names.count(toks[i].text) == 0)
        continue;
      if (toks[i + 1].text != "." || toks[i + 2].kind != Tok::identifier ||
          toks[i + 3].text != "(") {
        continue;
      }
      const std::string& op = toks[i + 2].text;
      const bool is_store = op == "store";
      const bool is_load = op == "load";
      const bool is_rmw = is_rmw_name(op);
      if (!is_store && !is_load && !is_rmw) continue;
      const std::size_t close = match_forward_tok(toks, i + 3, '(', ')');
      if (close == kNone) continue;
      std::vector<Order> orders = orders_in_call(toks, i + 3, close);
      if (orders.empty()) orders.push_back(Order::seq_cst);
      MemberOrderUses& u = uses[toks[i].text];
      for (const Order o : orders) {
        if (is_store || is_rmw) u.any_sync_store |= order_releases(o);
        if (is_load || is_rmw) u.any_sync_load |= order_acquires(o);
        if (is_store && o == Order::release) {
          u.release_stores.push_back({f.path, toks[i].line});
        }
        if (is_load && (o == Order::acquire || o == Order::consume)) {
          u.acquire_loads.push_back({f.path, toks[i].line});
        }
      }
    }
  }

  for (const auto& [name, u] : uses) {
    if (!u.any_sync_load) {
      for (const auto& site : u.release_stores) {
        add(out, "T001", site.file, site.line,
            "release store to atomic member '" + name +
                "' is never observed by an acquire/seq_cst load anywhere in "
                "the tree: nothing synchronizes-with it, so the data it "
                "publishes may be read unordered");
      }
    }
    if (!u.any_sync_store) {
      for (const auto& site : u.acquire_loads) {
        add(out, "T001", site.file, site.line,
            "acquire load of atomic member '" + name +
                "' has no release/seq_cst store to pair with anywhere in "
                "the tree: the acquire cannot order anything and the guarded "
                "data may be stale");
      }
    }
  }
}

// --- T002: blocking calls reachable from coroutine bodies ----------------

bool body_contains(const std::vector<Token>& toks, const FunctionDef& fn,
                   const char* word) {
  for (std::size_t i = fn.body_begin; i < fn.body_end && i < toks.size();
       ++i) {
    if (toks[i].kind == Tok::identifier && toks[i].text == word) return true;
  }
  return false;
}

/// Human-readable symbol name for diagnostics: `Owner::name` / `name` /
/// `<lambda>`.
std::string symbol_label(const FunctionSymbol& sym) {
  if (sym.name.empty()) return "<lambda>";
  if (sym.owner.empty() || sym.owner == sym.name) return sym.name;
  return sym.owner + "::" + sym.name;
}

void rule_t002(const std::vector<SourceFile>& files,
               const ProjectIndex& project, const SymbolTable& symbols,
               const CallGraph& graph, std::vector<Finding>& out) {
  // Roots: every function whose body uses a coroutine keyword — the
  // transcriptions in src/runtime/blocking_algs.hpp, the fault layer's and
  // the automaton host's node bodies in src/coro (and any fixture mirror),
  // wherever they live.
  std::vector<std::size_t> roots;
  for (std::size_t s = 0; s < symbols.symbols.size(); ++s) {
    const FunctionSymbol& sym = symbols.symbols[s];
    const FunctionDef& fn = project.files[sym.file].functions[sym.fn];
    const auto& toks = files[sym.file].tokens;
    if (body_contains(toks, fn, "co_await") ||
        body_contains(toks, fn, "co_yield") ||
        body_contains(toks, fn, "co_return")) {
      roots.push_back(s);
    }
  }
  if (roots.empty()) return;

  // Expansion is confined to functions defined under src/coro: that is the
  // executor the coroutine bodies actually run on. The blocking transports
  // share the same call-site names (io.send -> src/net's EndpointIo::send,
  // whose wait() blocks by design), so an unconfined name-resolved BFS
  // would condemn them all.
  std::vector<std::size_t> origin;
  const std::vector<bool> reached = reachable_from(
      graph, symbols, roots,
      [&files](const FunctionSymbol& sym) {
        return files[sym.file].path.find("src/coro/") != std::string::npos;
      },
      &origin);

  static const std::set<std::string> kGuardSinks = {
      "lock_guard", "unique_lock", "scoped_lock"};
  static const std::set<std::string> kMemberSinks = {
      "lock", "wait", "wait_for", "wait_until", "join"};
  static const std::set<std::string> kFreeSinks = {
      "sleep_for", "sleep_until", "send_all", "recv_byte"};

  std::set<std::pair<std::string, int>> seen;  // (file, line) dedup
  for (std::size_t s = 0; s < symbols.symbols.size(); ++s) {
    if (!reached[s]) continue;
    const FunctionSymbol& sym = symbols.symbols[s];
    const FunctionDef& fn = project.files[sym.file].functions[sym.fn];
    const SourceFile& f = files[sym.file];
    const auto& toks = f.tokens;
    const std::string root_label = symbol_label(symbols.symbols[origin[s]]);
    for (std::size_t i = fn.body_begin; i < fn.body_end && i < toks.size();
         ++i) {
      if (toks[i].kind != Tok::identifier) continue;
      const std::string& id = toks[i].text;
      std::string sink;
      if (kGuardSinks.count(id) != 0) {
        sink = "std::" + id;
      } else if (kMemberSinks.count(id) != 0 && i > 0 && i + 1 < toks.size() &&
                 toks[i + 1].text == "(" &&
                 (toks[i - 1].text == "." || toks[i - 1].text == ">")) {
        sink = "." + id + "()";
      } else if (kFreeSinks.count(id) != 0 && i + 1 < toks.size() &&
                 toks[i + 1].text == "(") {
        sink = id + "()";
      } else {
        continue;
      }
      if (!seen.insert({f.path, toks[i].line}).second) continue;
      add(out, "T002", f.path, toks[i].line,
          "blocking call " + sink + " in '" + symbol_label(sym) +
              "' is reachable from coroutine '" + root_label +
              "': a worker thread that blocks here stalls every parked node "
              "it should be resuming — use the executor's nonblocking "
              "wake/park protocol instead");
    }
  }
}

// --- T003: seqlock writer protocol shape ---------------------------------

void rule_t003(const std::vector<SourceFile>& files,
               const ProjectIndex& project,
               const std::vector<AtomicMember>& members,
               std::vector<Finding>& out) {
  // Seqlock classes: those declaring an atomic member whose name contains
  // "version". Its other atomic members are the payload the odd/even
  // version protocol must bracket.
  struct Seqlock {
    std::string version;
    std::set<std::string> payload;
    std::string dir;
  };
  std::map<std::string, Seqlock> locks;  // class -> shape
  for (const AtomicMember& m : members) {
    if (m.name.find("version") != std::string::npos) {
      locks[m.cls].version = m.name;
      locks[m.cls].dir = m.dir;
    }
  }
  if (locks.empty()) return;
  for (const AtomicMember& m : members) {
    const auto it = locks.find(m.cls);
    if (it != locks.end() && m.name != it->second.version) {
      it->second.payload.insert(m.name);
    }
  }

  for (const auto& [cls, lock] : locks) {
    if (lock.payload.empty()) continue;
    // Writers live next to the class (flight.hpp declares, flight.cpp
    // writes); confining the scan to the declaring directory keeps
    // generically-named payload members (`seq`, `what`) from matching
    // unrelated code across the tree.
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      if (dir_of(files[fi].path) != lock.dir) continue;
      const auto& toks = files[fi].tokens;
      for (const FunctionDef& fn : project.files[fi].functions) {
        if (fn.body_end <= fn.body_begin) continue;
        std::vector<std::size_t> vstores, pstores;
        for (std::size_t i = fn.body_begin;
             i + 3 < fn.body_end && i + 3 < toks.size(); ++i) {
          if (toks[i].kind != Tok::identifier) continue;
          if (toks[i + 1].text != "." || toks[i + 2].text != "store" ||
              toks[i + 3].text != "(") {
            continue;
          }
          if (toks[i].text == lock.version) vstores.push_back(i);
          else if (lock.payload.count(toks[i].text) != 0) pstores.push_back(i);
        }
        if (pstores.empty()) continue;
        if (vstores.size() < 2) {
          add(out, "T003", files[fi].path, toks[pstores.front()].line,
              "seqlock payload of '" + cls + "' is stored without the "
              "odd/even '" + lock.version + "' bracket: readers validate "
              "version-before == version-after, so an unbracketed write can "
              "be observed torn");
        } else if (vstores.front() > pstores.front() ||
                   vstores.back() < pstores.back()) {
          add(out, "T003", files[fi].path, fn.line,
              "seqlock writer for '" + cls + "' does not bracket every "
              "payload store between its '" + lock.version + "' stores: the "
              "odd/even protocol requires version++ before the first payload "
              "store and version++ after the last");
        }
      }
    }
  }
}

}  // namespace

void run_concurrency_rules(const std::vector<SourceFile>& files,
                           const ProjectIndex& project,
                           const SymbolTable& symbols, const CallGraph& graph,
                           std::vector<Finding>& out) {
  const std::vector<AtomicMember> members =
      collect_atomic_members(files, project);
  rule_t001(files, members, out);
  rule_t002(files, project, symbols, graph, out);
  rule_t003(files, project, members, out);
}

}  // namespace colex::lint
