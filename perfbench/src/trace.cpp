#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "alloc_count.hpp"

namespace perfbench {

std::int64_t Tracer::begin(const char* name, std::uint64_t request,
                           std::int64_t parent) {
  if (!enabled) return -1;
  // Stored first, so the vector's own growth is not charged to the span.
  spans.push_back(Span{name, request, parent, 0, 0, 0});
  Span& span = spans.back();
  span.allocs = thread_allocs();
  span.start_ns = now_ns();
  return static_cast<std::int64_t>(spans.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  Span& span = spans[static_cast<std::size_t>(id)];
  span.end_ns = t;
  span.allocs = thread_allocs() - span.allocs;
}

std::int64_t Tracer::record(const char* name, std::uint64_t request,
                            std::int64_t start_ns, std::int64_t end_ns,
                            std::int64_t parent) {
  if (!enabled) return -1;
  spans.push_back(Span{name, request, parent, start_ns, end_ns, 0});
  return static_cast<std::int64_t>(spans.size()) - 1;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].push_back(
          {span.start_ns, span.end_ns});
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = -1;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

namespace {

std::vector<double> sum_per_request(
    const std::vector<Span>& spans, const std::string& name,
    const std::vector<double>& value_of_span) {
  std::map<std::uint64_t, double> per_request;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) per_request[spans[i].request] += value_of_span[i];
  }
  std::vector<double> out;
  out.reserve(per_request.size());
  for (const auto& [request, value] : per_request) out.push_back(value);
  return out;
}

}  // namespace

std::vector<double> self_us_per_request(const std::vector<Span>& spans,
                                        const std::vector<std::int64_t>& self,
                                        const std::string& name) {
  std::vector<double> us(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    us[i] = 1e-3 * static_cast<double>(self[i]);
  }
  return sum_per_request(spans, name, us);
}

std::vector<double> allocs_per_request(const std::vector<Span>& spans,
                                       const std::string& name) {
  std::vector<double> allocs(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    allocs[i] = static_cast<double>(spans[i].allocs);
  }
  return sum_per_request(spans, name, allocs);
}

void merge_spans(std::vector<Span>& into, const std::vector<Span>& from) {
  const auto base = static_cast<std::int64_t>(into.size());
  for (Span span : from) {
    if (span.parent >= 0) span.parent += base;
    into.push_back(span);
  }
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,request,parent,start_ns,end_ns,allocs\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%llu,%lld,%lld,%lld,%llu\n", s.name,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
