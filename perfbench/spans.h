// In-memory span recorder for the traced benchmark run.
//
// A span covers one call from the benchmark into a library layer: its name,
// start and end (steady-clock ns), the span that was open when it started
// (its parent), and the request id it served (0 = set-up). Spans stay in
// memory while the workload runs and are written out, one JSON object per
// line, when the driver exits. When the recorder is disabled a Scope costs
// one branch and records nothing. Every call into a layer is made from the
// driver's main thread, so the recorder takes no locks.
#ifndef GCGT_PERFBENCH_SPANS_H_
#define GCGT_PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& Get() {
    static SpanRecorder recorder;
    return recorder;
  }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, closes and records on destruction.
  class Scope {
   public:
    Scope(const char* name, uint64_t request = 0) {
      SpanRecorder& rec = Get();
      if (!rec.enabled_) return;
      active_ = true;
      span_.name = name;
      span_.request = request;
      span_.parent = rec.open_.empty() ? 0 : rec.open_.back();
      span_.id = ++rec.next_id_;
      rec.open_.push_back(span_.id);
      span_.start_ns = NowNs();
    }
    ~Scope() {
      if (!active_) return;
      span_.end_ns = NowNs();
      SpanRecorder& rec = Get();
      rec.open_.pop_back();
      rec.spans_.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Span span_;
    bool active_ = false;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part of its
  /// interval that its child spans cover.
  std::map<std::string, std::pair<uint64_t, double>> SelfTimes() const {
    std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, std::pair<uint64_t, double>> out;  // count, self s
    for (const Span& s : spans_) {
      int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t lo = s.start_ns, hi = s.start_ns;
        for (auto [b, e] : iv) {
          b = std::clamp(b, s.start_ns, s.end_ns);
          e = std::clamp(e, s.start_ns, s.end_ns);
          if (b > hi) {
            covered += hi - lo;
            lo = b;
            hi = e;
          } else {
            hi = std::max(hi, e);
          }
        }
        covered += hi - lo;
      }
      auto& slot = out[s.name];
      slot.first += 1;
      slot.second += (s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return out;
  }

  /// Writes every span as one JSON line. Returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  SpanRecorder() = default;

  bool enabled_ = false;
  uint64_t next_id_ = 0;
  std::vector<uint64_t> open_;  // ids of the open spans, innermost last
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // GCGT_PERFBENCH_SPANS_H_
