// The benchmark's own spans, recorded around calls into each layer: name,
// start, end, parent and request id. Kept in memory by the thread that
// records them and written out when the run ends.
#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  const char* name = "";     ///< static string, "<layer>.<call>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index in the same log; -1 = root
  std::uint64_t request = 0; ///< request id; 0 for layer-walk calls
};

class SpanLog {
 public:
  /// Records one span and returns its index (a parent for later spans).
  std::int64_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                   std::int64_t parent = -1, std::uint64_t request = 0);
  /// Moves `other`'s spans to the end of this log, keeping parent links.
  void absorb(SpanLog&& other);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

/// Durations in microseconds of every span called `name`.
std::vector<double> durations_us(const std::vector<Span>& spans, const char* name);

/// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Writes one JSON object per span (with its self time) to `path`.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::uint64_t>& self_ns);

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
