#include "harness/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace perfbench {

SpanLog::SpanLog(std::size_t reserve)
    : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(reserve);
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::size_t SpanLog::begin(const char* name, std::int64_t parent,
                           std::uint32_t run, std::uint32_t period) {
  spans_.push_back(Span{name, 0, 0, parent, run, period});
  const std::size_t index = spans_.size() - 1;
  spans_[index].start_ns = now_ns();
  return index;
}

void SpanLog::end(std::size_t index) { spans_[index].end_ns = now_ns(); }

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<std::int64_t> self = self_times(spans_);
  bool ok = std::fprintf(out, "run,period,name,start_ns,end_ns,parent,self_ns\n") > 0;
  for (std::size_t i = 0; ok && i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    ok = std::fprintf(out, "%u,%u,%s,%lld,%lld,%lld,%lld\n", s.run, s.period,
                      s.name, static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns),
                      static_cast<long long>(s.parent),
                      static_cast<long long>(self[i])) > 0;
  }
  return std::fclose(out) == 0 && ok;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    EUCON_REQUIRE(p < spans.size(), "span parent index out of range");
    const std::int64_t lo = std::max(s.start_ns, spans[p].start_ns);
    const std::int64_t hi = std::min(s.end_ns, spans[p].end_ns);
    if (lo < hi) children[p].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;  // end of the merged cover so far
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
