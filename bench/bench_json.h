// Tiny JSON emitter for the bench binaries: each figure/ablation writes a
// machine-readable BENCH_<name>.json next to its stdout table so sweeps can
// be diffed across commits without re-parsing the human-formatted output.
//
// Shape:
//   {
//     "name": "fig1b_map_latency",
//     "config": { "ops_per_thread": 1000, ... },
//     "series": { "verified_us_per_op": [[1, 2.53], [2, 3.10], ...], ... },
//     "obs": { "counters": {...}, "histograms": {...}, "spans": {...} }
//   }
// Series rows are (x, y) pairs — typically (core count, median latency).
// The "obs" section is the process-global ObsRegistry snapshot at write()
// time, so every bench run ships its kernel/app counters alongside the
// measured series.
#ifndef VNROS_BENCH_BENCH_JSON_H_
#define VNROS_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/registry.h"

namespace vnros {

class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void config(const std::string& key, double value) { config_num(key, format_double(value)); }
  void config(const std::string& key, unsigned long long value) {
    config_num(key, std::to_string(value));
  }
  void config(const std::string& key, unsigned long value) {
    config_num(key, std::to_string(value));
  }
  void config(const std::string& key, unsigned value) { config_num(key, std::to_string(value)); }
  void config(const std::string& key, int value) { config_num(key, std::to_string(value)); }
  void config(const std::string& key, bool value) { config_num(key, value ? "true" : "false"); }
  void config(const std::string& key, const std::string& value) {
    config_num(key, "\"" + escape(value) + "\"");
  }
  void config(const std::string& key, const char* value) { config(key, std::string(value)); }

  // Appends an (x, y) point to `series` (created on first use, insertion
  // order preserved).
  void row(const std::string& series, double x, double y) {
    for (auto& [s, rows] : series_) {
      if (s == series) {
        rows.emplace_back(x, y);
        return;
      }
    }
    series_.push_back({series, {{x, y}}});
  }

  // Writes BENCH_<name>.json in the working directory.
  void write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\n  \"name\": \"" << escape(name_) << "\",\n  \"config\": {";
    for (size_t i = 0; i < config_.size(); ++i) {
      out << (i ? ",\n    " : "\n    ") << "\"" << escape(config_[i].first)
          << "\": " << config_[i].second;
    }
    out << (config_.empty() ? "" : "\n  ") << "},\n  \"series\": {";
    for (size_t s = 0; s < series_.size(); ++s) {
      out << (s ? ",\n    " : "\n    ") << "\"" << escape(series_[s].first) << "\": [";
      const auto& rows = series_[s].second;
      for (size_t r = 0; r < rows.size(); ++r) {
        out << (r ? ", " : "") << "[" << format_double(rows[r].first) << ", "
            << format_double(rows[r].second) << "]";
      }
      out << "]";
    }
    out << (series_.empty() ? "" : "\n  ") << "},\n  \"obs\": " << ObsRegistry::global().json()
        << "\n}\n";
    std::printf("# wrote %s\n", path.c_str());
  }

 private:
  void config_num(const std::string& key, std::string json_value) {
    for (auto& [k, v] : config_) {
      if (k == key) {
        v = std::move(json_value);
        return;
      }
    }
    config_.emplace_back(key, std::move(json_value));
  }

  static std::string format_double(double v) {
    std::ostringstream oss;
    oss << v;
    std::string s = oss.str();
    // JSON has no inf/nan: clamp to null-ish sentinel.
    if (s.find("inf") != std::string::npos || s.find("nan") != std::string::npos) {
      return "null";
    }
    return s;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>> series_;
};

}  // namespace vnros

#endif  // VNROS_BENCH_BENCH_JSON_H_
