// Shared output helpers for the experiment harness. Every bench binary
// regenerates one experiment from DESIGN.md's index and prints a banner,
// the paper's claim, and a result table, so `for b in build/bench/*; do $b;
// done` produces a full, self-describing reproduction report.
//
// Besides the human-readable report, each bench writes a machine-readable
// BENCH_<ID>.json next to its working directory (JsonReport below): wall
// times, schedules/s, leaves, pulse counts. These files are the repo's perf
// trajectory — commit them so regressions are diffable (EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace colex::bench {

inline void banner(const std::string& experiment, const std::string& claim) {
  std::cout << "\n" << std::string(78, '=') << "\n";
  std::cout << experiment << "\n";
  std::cout << "paper claim: " << claim << "\n";
  std::cout << std::string(78, '=') << "\n\n";
}

inline void verdict(bool ok, const std::string& text) {
  std::cout << "\n[" << (ok ? "REPRODUCED" : "MISMATCH") << "] " << text
            << "\n";
}

/// Wall-clock stopwatch for bench timing (steady clock, seconds).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal JSON value (objects keep insertion order; no external deps).
class Json {
 public:
  Json() = default;

  static Json object() {
    Json j;
    j.kind_ = Kind::object;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::array;
    return j;
  }
  static Json of(bool v) {
    Json j;
    j.kind_ = Kind::boolean;
    j.scalar_ = v ? "true" : "false";
    return j;
  }
  static Json of(double v) {
    Json j;
    j.kind_ = Kind::number;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    j.scalar_ = buf;
    return j;
  }
  static Json of(std::uint64_t v) {
    Json j;
    j.kind_ = Kind::number;
    j.scalar_ = std::to_string(v);
    return j;
  }
  static Json of(std::int64_t v) {
    Json j;
    j.kind_ = Kind::number;
    j.scalar_ = std::to_string(v);
    return j;
  }
  static Json of(int v) { return of(static_cast<std::int64_t>(v)); }
  static Json of(const std::string& v) {
    Json j;
    j.kind_ = Kind::string;
    j.scalar_ = v;
    return j;
  }
  static Json of(const char* v) { return of(std::string(v)); }

  /// Pre-serialized JSON spliced in verbatim (single line, no re-indent).
  /// This is how an obs::Registry snapshot — already JSON text — lands
  /// inside a report without bench_common depending on the obs layer.
  static Json raw(std::string json_text) {
    Json j;
    j.kind_ = Kind::raw;
    j.scalar_ = std::move(json_text);
    return j;
  }

  /// Object member (insertion-ordered; an existing key is overwritten).
  template <typename T>
  Json& set(const std::string& key, T&& value) {
    return set_json(key, wrap(std::forward<T>(value)));
  }
  Json& set_json(const std::string& key, Json value) {
    for (auto& [k, v] : members_) {
      if (k == key) {
        v = std::move(value);
        return *this;
      }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
  }

  /// Array element.
  template <typename T>
  Json& push(T&& value) {
    elements_.push_back(wrap(std::forward<T>(value)));
    return *this;
  }

  void dump(std::ostream& os, int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string inner(static_cast<std::size_t>(indent) + 2, ' ');
    switch (kind_) {
      case Kind::null:
        os << "null";
        break;
      case Kind::boolean:
      case Kind::number:
      case Kind::raw:
        os << scalar_;
        break;
      case Kind::string:
        util::json::write_string(os, scalar_);
        break;
      case Kind::object: {
        if (members_.empty()) {
          os << "{}";
          break;
        }
        os << "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          os << inner;
          util::json::write_string(os, members_[i].first);
          os << ": ";
          members_[i].second.dump(os, indent + 2);
          os << (i + 1 < members_.size() ? ",\n" : "\n");
        }
        os << pad << "}";
        break;
      }
      case Kind::array: {
        if (elements_.empty()) {
          os << "[]";
          break;
        }
        os << "[\n";
        for (std::size_t i = 0; i < elements_.size(); ++i) {
          os << inner;
          elements_[i].dump(os, indent + 2);
          os << (i + 1 < elements_.size() ? ",\n" : "\n");
        }
        os << pad << "]";
        break;
      }
    }
  }

 private:
  enum class Kind { null, boolean, number, string, object, array, raw };

  template <typename T>
  static Json wrap(T&& value) {
    if constexpr (std::is_same_v<std::decay_t<T>, Json>) {
      return std::forward<T>(value);
    } else {
      return Json::of(std::forward<T>(value));
    }
  }

  Kind kind_ = Kind::null;
  std::string scalar_;
  std::vector<std::pair<std::string, Json>> members_;  // object
  std::vector<Json> elements_;                         // array
};

/// The machine a measurement ran on: nproc, compiler and build type.
inline Json environment() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef COLEX_BUILD_TYPE
  const std::string build_type = COLEX_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  Json env = Json::object();
  env.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .set("compiler", compiler)
      .set("build_type", build_type);
  return env;
}

/// Collects one bench's machine-readable results and writes BENCH_<ID>.json
/// into the current working directory on finish().
class JsonReport {
 public:
  JsonReport(const std::string& id, const std::string& description)
      : id_(id), root_(Json::object()) {
    root_.set("bench", id).set("description", description);
  }

  Json& root() { return root_; }

  /// Directs the artifact into `dir` instead of the current working
  /// directory. An explicit directory (the `--json <dir>` flag) wins over
  /// the COLEX_BENCH_JSON_DIR environment variable, which wins over cwd.
  void set_output_dir(std::string dir) { output_dir_ = std::move(dir); }

  /// Embeds a pre-serialized metrics snapshot (an obs::Registry::to_json()
  /// string) under the report's "metrics" key.
  void embed_metrics(const std::string& metrics_json) {
    root_.set_json("metrics", Json::raw(metrics_json));
  }

  /// Appends one measurement row to the report's "results" array.
  void add_result(Json row) {
    if (!has_results_) {
      root_.set_json("results", Json::array());
      has_results_ = true;
    }
    results_.push_back(std::move(row));
  }

  /// Writes BENCH_<ID>.json; returns the path written. Call once, last.
  std::string finish(double total_wall_seconds) {
    root_.set("wall_seconds", total_wall_seconds);
    if (has_results_) {
      Json arr = Json::array();
      for (auto& r : results_) arr.push(std::move(r));
      root_.set_json("results", std::move(arr));
    }
    std::string dir = output_dir_;
    if (dir.empty()) {
      if (const char* env = std::getenv("COLEX_BENCH_JSON_DIR")) dir = env;
    }
    std::string path = "BENCH_" + id_ + ".json";
    if (!dir.empty()) path = dir + "/" + path;
    std::ofstream out(path);
    root_.dump(out);
    out << "\n";
    std::cout << "\n[json] wrote " << path << "\n";
    return path;
  }

 private:
  std::string id_;
  std::string output_dir_;
  Json root_;
  bool has_results_ = false;
  std::vector<Json> results_;
};

/// Applies the shared bench flags to a report: `--json <dir>` redirects the
/// BENCH_<ID>.json artifact. Unrecognized arguments are left for the bench's
/// own parsing (e.g. --smoke).
inline void apply_json_flag(JsonReport& report, int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      report.set_output_dir(argv[i + 1]);
      return;
    }
  }
}

}  // namespace colex::bench
