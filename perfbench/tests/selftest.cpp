// Self-tests of the benchmark's own arithmetic: span self times and the
// tail-percentile rule. Exit status 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "harness/spans.h"
#include "harness/stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

perfbench::Span span(std::int64_t start, std::int64_t end, std::int64_t parent) {
  perfbench::Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void nested_self_times() {
  // root [0,100] has children A [10,40], B [50,60] and C [55,70] (B and C
  // overlap) and D [90,120] (sticks out of the root); A has a grandchild
  // [15,25] that must not be subtracted from the root.
  const std::vector<perfbench::Span> spans = {
      span(0, 100, -1),   // 0 root
      span(10, 40, 0),    // 1 A
      span(15, 25, 1),    // 2 grandchild of the root
      span(50, 60, 0),    // 3 B
      span(55, 70, 0),    // 4 C
      span(90, 120, 0),   // 5 D
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  // Root: 100 - (30 + 20 + 10) = 40, covering [10,40], [50,70], [90,100].
  expect(self[0] == 40, "root self time subtracts the union of its children");
  expect(self[1] == 20, "a child's self time subtracts its own child");
  expect(self[2] == 10, "a leaf's self time is its duration");
  expect(self[3] == 10 && self[4] == 15, "overlapping siblings keep their durations");
  expect(self[5] == 30, "a child sticking out of its parent keeps its duration");
}

void period_gap() {
  // One period with five back-to-back layer calls and 4 ns of loop
  // bookkeeping between them: the gap is the period's self time.
  std::vector<perfbench::Span> spans = {span(0, 104, -1)};
  std::int64_t t = 0;
  for (int i = 0; i < 5; ++i) {
    spans.push_back(span(t, t + 20, 0));
    t += 20 + 1;
  }
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  expect(self[0] == 4, "period self time is the time outside every layer");
  std::int64_t layers = 0;
  for (std::size_t i = 1; i < spans.size(); ++i) layers += self[i];
  expect(layers + self[0] == 104, "layer self times plus the gap add up to the period");
}

void bad_parent_is_rejected() {
  const std::vector<perfbench::Span> spans = {span(0, 10, 3)};
  bool threw = false;
  try {
    perfbench::self_times(spans);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "an out-of-range parent index is rejected");
}

void span_log_records_in_order() {
  perfbench::SpanLog log;
  const std::size_t p = log.begin("period", -1, 7, 3);
  const std::size_t c = log.begin("child", static_cast<std::int64_t>(p), 7, 3);
  log.end(c);
  log.end(p);
  const auto& s = log.spans();
  expect(s.size() == 2 && s[1].parent == 0 && s[1].run == 7 && s[1].period == 3,
         "span ids and parents are recorded");
  expect(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns,
         "a child span nests inside its parent");
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

void percentile_rule() {
  expect(std::abs(perfbench::median({3.0, 1.0, 2.0}) - 2.0) < 1e-12, "median of three");
  expect(std::abs(perfbench::percentile({1.0, 2.0, 3.0, 4.0}, 0.5) - 2.5) < 1e-12,
         "percentiles interpolate between order statistics");
  // 1000 distinct samples: p99 lies between the 990th and 991st, with ten
  // samples beyond it.
  const auto p99 = perfbench::tail_percentile(ramp(1000), 0.99);
  expect(p99.has_value() && *p99 > 990.0 && *p99 < 991.0, "p99 of 1000 samples is reported");
  expect(!perfbench::tail_percentile(ramp(500), 0.99).has_value(),
         "p99 of 500 samples is refused (five beyond it)");
  expect(!perfbench::tail_percentile(ramp(900), 0.99).has_value(),
         "p99 of 900 samples is refused (nine beyond it)");
  // Ties at the top: 995 ones and five twos put only five samples beyond.
  std::vector<double> ties(995, 1.0);
  ties.insert(ties.end(), 5, 2.0);
  expect(!perfbench::tail_percentile(ties, 0.99).has_value(),
         "samples equal to the percentile do not count as beyond it");
  expect(perfbench::tail_percentile(ramp(100), 0.5).has_value(),
         "the median of 100 samples has enough beyond it");
  bool threw = false;
  try {
    perfbench::percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "the percentile of no samples is an error");
}

}  // namespace

int main() {
  nested_self_times();
  period_gap();
  bad_parent_is_rejected();
  span_log_records_in_order();
  percentile_rule();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
