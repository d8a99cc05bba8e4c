// Shared pieces of the benchmark driver: seeded randomness, sample
// statistics, the in-memory span recorder, and the metric sheet that becomes
// the final JSON line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- time ----------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Wall milliseconds of one call of `f`.
template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

// --- randomness ----------------------------------------------------------------

/// splitmix64: a small, fully specified generator, so a seed gives the same
/// stream on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Derive an independent stream seed from the workload seed and a purpose tag.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed * 0x100000001B3ull + tag);
  return r.next();
}

// --- statistics ----------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t k = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- spans ---------------------------------------------------------------------

/// One timed call into a layer: what was called, for which request, when.
struct Span {
  const char* name;
  std::uint64_t request;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder. Off unless enabled; each thread appends to its
/// own buffer and the buffers are merged once, after the threads join.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }

  /// Per-thread buffer; merge() folds it into the shared list.
  struct Buffer {
    std::vector<Span> spans;
  };

  void merge(Buffer& b) {
    std::lock_guard<std::mutex> lk(m_);
    spans_.insert(spans_.end(), b.spans.begin(), b.spans.end());
    b.spans.clear();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(m_);
    return spans_.size();
  }

 private:
  bool on_ = false;
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// Runs `f` and, when tracing is on, records it as a span in `buf`.
template <class F>
decltype(auto) traced(const Tracer& tr, Tracer::Buffer& buf, const char* name,
                      std::uint64_t request, F&& f) {
  if (!tr.on()) return f();
  struct Rec {
    Tracer::Buffer& buf;
    const char* name;
    std::uint64_t request;
    Clock::time_point t0 = Clock::now();
    ~Rec() { buf.spans.push_back(Span{name, request, t0, Clock::now()}); }
  } rec{buf, name, request};
  return f();
}

// --- metrics -------------------------------------------------------------------

/// Ordered metric sheet: name -> (value, unit).
class Sheet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    m_[name] = {value, unit};
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  all() const {
    return m_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// A number as JSON: finite values with all their digits, anything else 0.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
