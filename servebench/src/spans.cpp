#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace servebench {

std::int64_t SpanLog::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                          std::int64_t parent, std::uint64_t request) {
  spans_.push_back(Span{name, start_ns, std::max(start_ns, end_ns), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::absorb(SpanLog&& other) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span& span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
  other.spans_.clear();
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t p = 0; p < spans.size(); ++p) {
    const Span& parent = spans[p];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (std::size_t c : children[p]) {
      const std::uint64_t lo = std::max(spans[c].start_ns, parent.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, parent.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0, reach = parent.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[p] = parent.end_ns - parent.start_ns - covered;
  }
  return self;
}

std::vector<double> durations_us(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    }
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::uint64_t>& self_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"request\":%llu,\"self_ns\":%llu}\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(self_ns[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
