// Self-tests of the benchmark's own arithmetic: the tail-percentile
// helper and span self time on nested spans. Exit 0 when all pass.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(near(nodebench::percentile(v, 50.0), 500.0), "p50 of 1..1000");
  check(near(nodebench::percentile(v, 99.0), 990.0), "p99 of 1..1000");
  check(near(nodebench::percentile(v, 100.0), 1000.0), "p100 of 1..1000");

  // 1000 samples support p99: exactly 10 samples lie above rank 990.
  nodebench::Tail t = nodebench::tail_percentile(v, 99.0);
  check(near(t.pct, 99.0) && near(t.value, 990.0), "p99 supported at n=1000");

  // 500 samples: p99 would leave 5 above it; p98 leaves 10.
  std::vector<double> w;
  for (int i = 1; i <= 500; ++i) w.push_back(i);
  t = nodebench::tail_percentile(w, 99.0);
  check(near(t.pct, 98.0) && near(t.value, 490.0), "p98 fallback at n=500");

  // Whatever n, the reported rank leaves at least 10 samples above it.
  for (std::size_t n = 11; n <= 2000; n += 7) {
    std::vector<double> x;
    for (std::size_t i = 1; i <= n; ++i) x.push_back(static_cast<double>(i));
    t = nodebench::tail_percentile(x, 99.0);
    const double above = static_cast<double>(n) - t.value;
    if (t.pct > 50.0 && above < 10.0) {
      check(false, "tail percentile leaves fewer than 10 samples above");
      break;
    }
    // Below the wanted percentile, one rank higher would leave only 9.
    if (t.pct > 50.0 && t.pct < 99.0 && above != 10.0) {
      check(false, "tail percentile is not the highest supported");
      break;
    }
  }

  // Too few samples: fall back to the median.
  std::vector<double> few = {3, 1, 2};
  t = nodebench::tail_percentile(few, 99.0);
  check(near(t.pct, 50.0) && near(t.value, 2.0), "median fallback at n=3");
}

void test_self_time() {
  using nodebench::trace::Name;
  using nodebench::trace::Span;
  // run [0,100) > { nf [10,60) > { crypto [20,30), crypto [40,55) },
  //                 egress [70,90) > { free [75,80) } }
  std::vector<Span> spans = {
      {0, 100, -1, 1, Name::kSimRun},  {10, 60, 0, 1, Name::kNfIpsec},
      {20, 30, 1, 1, Name::kGcmCrypt}, {40, 55, 1, 1, Name::kGcmCrypt},
      {70, 90, 0, 1, Name::kEgress},   {75, 80, 4, 1, Name::kEgressFree},
  };
  const std::vector<std::int64_t> self = nodebench::trace::self_times(spans);
  check(self[0] == 100 - 50 - 20, "self time of the root");
  check(self[1] == 50 - 10 - 15, "self time of a span with two children");
  check(self[2] == 10 && self[3] == 15, "self time of leaves");
  check(self[4] == 20 - 5 && self[5] == 5, "self time of a nested pair");
  std::int64_t sum = 0;
  for (std::int64_t s : self) sum += s;
  check(sum == 100, "self times of one tree add up to the root's duration");
  check(nodebench::trace::nesting_errors(spans) == 0, "well-nested spans");

  spans.push_back({95, 120, 0, 1, Name::kEgress});  // outlives its parent
  spans.push_back({5, 6, 9, 1, Name::kEgress});     // parent after child
  check(nodebench::trace::nesting_errors(spans) == 2,
        "spans that escape their parent are counted");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
