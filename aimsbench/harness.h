#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "obs/tracer.h"

/// \file harness.h
/// \brief Measurement plumbing of the AIMS benchmark, kept outside the
/// program under test: latency distributions, request span trees built
/// from bench-side spans plus the server's own traces, per-layer self
/// time, and the result line the benchmark prints last.

namespace aimsbench {

using Clock = std::chrono::steady_clock;

/// Process-wide time origin every span is expressed against.
inline Clock::time_point Origin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

inline int64_t NsSinceOrigin(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - Origin())
      .count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// \brief A bag of samples; quantiles by aims::Percentile.
class Dist {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Dist& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  double Sum() const {
    double s = 0.0;
    for (double v : values_) s += v;
    return s;
  }
  /// Quantile q in [0,1]; 0 for an empty bag.
  double Quantile(double q) const { return aims::Percentile(values_, 100.0 * q); }

 private:
  std::vector<double> values_;
};

inline double Median(std::vector<double> v) {
  return aims::Percentile(std::move(v), 50.0);
}

/// \brief Appends to \p rates one rate per window: [0, wall_s] is cut into
/// equal windows of about \p window_s seconds, and each window's rate is
/// the amount done in it ÷ its length. \p done holds (seconds since the
/// start, amount) per completed operation.
inline void WindowRates(const std::vector<std::pair<double, double>>& done,
                        double wall_s, double window_s,
                        std::vector<double>* rates) {
  const size_t n = std::max<size_t>(1, static_cast<size_t>(wall_s / window_s));
  const double len = wall_s / static_cast<double>(n);
  std::vector<double> amount(n, 0.0);
  for (const auto& [t, a] : done) {
    amount[std::min(n - 1, static_cast<size_t>(std::max(0.0, t) / len))] += a;
  }
  for (double a : amount) rates->push_back(a / len);
}

/// \brief One interval of a request, bench-side or server-side, in
/// nanoseconds since Origin(). parent is an index into the same tree (-1
/// for the root).
struct Span {
  std::string name;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief The span tree of one bench request. Bench spans nest through an
/// open stack; server traces are grafted under a bench span, with their
/// span names prefixed by the trace's root span ("ingest/wal_sync"), so
/// one tree covers the request from the client's call to the deepest
/// server stage.
class RequestTree {
 public:
  int Begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NsSinceOrigin(Clock::now());
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = NsSinceOrigin(Clock::now());
    open_.erase(std::find(open_.begin(), open_.end(), index));
  }
  /// Grafts \p trace under span \p parent.
  void Attach(const aims::obs::Trace& trace, int parent) {
    const auto& tspans = trace.spans();
    if (tspans.empty()) return;
    const int64_t epoch = NsSinceOrigin(trace.epoch());
    const std::string prefix = tspans.front().name + "/";
    std::map<uint64_t, int> by_id;
    for (const aims::obs::TraceSpan& ts : tspans) {
      Span s;
      s.name = prefix + ts.name;
      auto it = by_id.find(ts.parent_id);
      s.parent = it == by_id.end() ? parent : it->second;
      s.start_ns = epoch + static_cast<int64_t>(ts.start_ms * 1e6);
      s.end_ns = epoch + static_cast<int64_t>(std::max(ts.end_ms, ts.start_ms) * 1e6);
      spans_.push_back(std::move(s));
      by_id[ts.id] = static_cast<int>(spans_.size()) - 1;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief Per-layer time over many requests: for each span name, the
/// per-request sum of its durations (total) and of its self time (its
/// duration minus the part its child spans cover).
class LayerTimes {
 public:
  void Add(const RequestTree& tree) {
    const std::vector<Span>& spans = tree.spans();
    std::vector<std::vector<int>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        children[static_cast<size_t>(spans[i].parent)].push_back(
            static_cast<int>(i));
      }
    }
    std::map<std::string, std::pair<double, double>> per_request;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::vector<std::pair<int64_t, int64_t>> cover;
      for (int c : children[i]) {
        const Span& k = spans[static_cast<size_t>(c)];
        int64_t lo = std::max(k.start_ns, s.start_ns);
        int64_t hi = std::min(k.end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0;
      int64_t reach = s.start_ns;
      for (const auto& [lo, hi] : cover) {
        int64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
      const double total_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      auto& slot = per_request[s.name];
      slot.first += total_ms;
      slot.second += total_ms - static_cast<double>(covered) / 1e6;
    }
    for (const auto& [name, times] : per_request) {
      total_[name].Add(times.first);
      self_[name].Add(times.second);
    }
  }
  void Merge(const LayerTimes& other) {
    for (const auto& [name, d] : other.total_) total_[name].Merge(d);
    for (const auto& [name, d] : other.self_) self_[name].Merge(d);
  }
  /// Empty distributions for names never seen.
  const Dist& Total(const std::string& name) const { return Find(total_, name); }
  const Dist& Self(const std::string& name) const { return Find(self_, name); }

  /// Human-readable breakdown, one line per span name.
  void Print(FILE* out) const {
    std::fprintf(out, "  %-38s %7s %10s %10s %10s %10s\n", "span", "n",
                 "total_p50", "total_p99", "self_p50", "self_p99");
    for (const auto& [name, d] : total_) {
      const Dist& self = self_.at(name);
      std::fprintf(out, "  %-38s %7zu %10.4f %10.4f %10.4f %10.4f\n",
                   name.c_str(), d.count(), d.Quantile(0.5), d.Quantile(0.99),
                   self.Quantile(0.5), self.Quantile(0.99));
    }
  }

 private:
  static const Dist& Find(const std::map<std::string, Dist>& m,
                          const std::string& name) {
    static const Dist kEmpty;
    auto it = m.find(name);
    return it == m.end() ? kEmpty : it->second;
  }
  std::map<std::string, Dist> total_;
  std::map<std::string, Dist> self_;
};

/// \brief Named metrics in insertion order, printed as the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  template <typename F>
  void ForEach(F f) const {
    for (const auto& m : metrics_) f(m.name, m.value, m.unit);
  }
  void PrintLines(FILE* out) const {
    for (const auto& m : metrics_) {
      std::fprintf(out, "  %-40s %.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[512];
      double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(), v,
                    metrics_[i].unit.c_str());
      s += buf;
    }
    return s + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace aimsbench
