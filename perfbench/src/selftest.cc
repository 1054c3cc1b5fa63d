// Self-tests of the benchmark's own arithmetic (bench_math.h): the tail
// percentile rule, the order-independent pair checksum, and the failure
// ratio's denominator. Exits non-zero on the first failed check.
//
//   perfbench_selftest        (or: python3 perfbench/run.py --self-test)

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

std::vector<double> Ramp(size_t n) {
  // n, n-1, ..., 1: unsorted on purpose.
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestTail() {
  using perfbench::TailOf;
  // 100 samples 1..100: rank 89 (value 90) leaves exactly 10 beyond it.
  const perfbench::Tail t100 = TailOf(Ramp(100));
  CHECK(t100.qualified);
  CHECK(t100.value == 90.0);
  CHECK(t100.percentile == 90.0);
  CHECK(t100.samples == 100);
  // 1000 samples: value 990 at p99.
  const perfbench::Tail t1000 = TailOf(Ramp(1000));
  CHECK(t1000.value == 990.0);
  CHECK(t1000.percentile == 99.0);
  // The smallest qualifying set: 11 samples, tail = the minimum.
  const perfbench::Tail t11 = TailOf(Ramp(11));
  CHECK(t11.qualified);
  CHECK(t11.value == 1.0);
  // Ten samples or fewer: nothing has ten beyond it; report the maximum.
  const perfbench::Tail t10 = TailOf(Ramp(10));
  CHECK(!t10.qualified);
  CHECK(t10.value == 10.0);
  CHECK(TailOf({}).samples == 0);
  // Exactly ten samples lie strictly above the tail value (distinct values).
  const std::vector<double> v = Ramp(57);
  const perfbench::Tail t57 = TailOf(v);
  size_t beyond = 0;
  for (const double x : v) beyond += x > t57.value;
  CHECK(beyond == perfbench::kTailBeyond);

  CHECK(perfbench::Median({3, 1, 2}) == 2.0);
  CHECK(perfbench::Median({4, 1, 3, 2}) == 2.5);
  CHECK(perfbench::Median({}) == 0.0);
}

void TestChecksum() {
  using perfbench::PairChecksum;
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {
      {1, 2}, {2, 1}, {7, 7}, {0, 0xffffffffu}, {123456, 654321}};
  PairChecksum forward;
  for (const auto& [a, b] : pairs) forward.Add(a, b);
  PairChecksum backward;
  for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
    backward.Add(it->first, it->second);
  }
  CHECK(forward == backward);  // order-independent
  CHECK(forward.count == pairs.size());

  // (a, b) and (b, a) are different pairs.
  PairChecksum ab;
  ab.Add(1, 2);
  PairChecksum ba;
  ba.Add(2, 1);
  CHECK(ab != ba);

  // A duplicated pair is visible (an XOR fold would cancel it).
  PairChecksum twice;
  twice.Add(5, 6);
  twice.Add(5, 6);
  PairChecksum none;
  CHECK(twice != none);
  CHECK(twice.sum != 0 || twice.count == 2);

  // A missing pair and a substituted pair are both detected.
  PairChecksum missing;
  for (size_t i = 1; i < pairs.size(); ++i) {
    missing.Add(pairs[i].first, pairs[i].second);
  }
  CHECK(missing != forward);
  PairChecksum substituted = missing;
  substituted.Add(9, 9);
  CHECK(substituted.count == forward.count);
  CHECK(substituted != forward);

  // Remove undoes Add in any order: a delta stream folds to its pair set.
  PairChecksum deltas;
  deltas.Add(1, 1);
  deltas.Add(2, 2);
  deltas.Remove(1, 1);
  deltas.Add(3, 3);
  PairChecksum state;
  state.Add(3, 3);
  state.Add(2, 2);
  CHECK(deltas == state);
}

void TestFailedRatio() {
  perfbench::OpCounts ops;
  CHECK(ops.FailedRatio() == 0.0);  // nothing attempted: no division by 0
  ops.Record(true);
  ops.Record(true);
  ops.Record(false);
  ops.Record(true);
  // A failure counts once in the denominator, not once more as a failure.
  CHECK(ops.attempted == 4);
  CHECK(ops.failed == 1);
  CHECK(ops.FailedRatio() == 0.25);
  perfbench::OpCounts more;
  more.Record(false);
  ops.Merge(more);
  CHECK(ops.attempted == 5);
  CHECK(ops.failed == 2);
  CHECK(ops.FailedRatio() == 0.4);
}

}  // namespace

int main() {
  TestTail();
  TestChecksum();
  TestFailedRatio();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::puts("perfbench_selftest: all checks passed");
  return 0;
}
