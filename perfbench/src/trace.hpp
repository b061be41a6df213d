#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// In-memory spans for the traced run. Spans are recorded from the
/// benchmark's own files around calls into each layer's public functions
/// (no timer lives inside the library). A span has a name, start and end,
/// the span that caused it, and a request id shared by all spans of one
/// request. Each thread records into its own Tracer; the run merges them
/// and writes the spans out when it ends.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< a string literal
  std::uint64_t request = 0;
  std::int64_t parent = -1;  ///< index into the same tracer, -1 for roots
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Heap allocations the recording thread made inside the span.
  std::uint64_t allocs = 0;
};

class Tracer {
 public:
  /// Opens a span and returns its id (index). A disabled tracer records
  /// nothing and returns -1.
  std::int64_t begin(const char* name, std::uint64_t request,
                     std::int64_t parent = -1);
  void end(std::int64_t id);

  /// Records an already measured interval (e.g. a push timed from its due
  /// time, which precedes the call).
  std::int64_t record(const char* name, std::uint64_t request,
                      std::int64_t start_ns, std::int64_t end_ns,
                      std::int64_t parent = -1);

  bool enabled = false;
  std::vector<Span> spans;
};

/// Scoped span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t request,
            std::int64_t parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, request, parent)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Self time of every span [ns]: its duration minus the part of its
/// interval that its child spans cover. Indexed like `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per request, the summed self time [us] of the spans named `name`
/// (one value per request that has such a span).
std::vector<double> self_us_per_request(const std::vector<Span>& spans,
                                        const std::vector<std::int64_t>& self,
                                        const std::string& name);

/// Per request, the summed allocation count of the spans named `name`.
std::vector<double> allocs_per_request(const std::vector<Span>& spans,
                                       const std::string& name);

/// Appends `from` to `into`, rebasing parent indices.
void merge_spans(std::vector<Span>& into, const std::vector<Span>& from);

/// Writes spans as CSV (name,request,parent,start_ns,end_ns,allocs).
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
