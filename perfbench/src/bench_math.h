// Arithmetic of the engine benchmark, kept free of engine dependencies so
// perfbench_selftest can check it in isolation: latency percentiles with the
// tail rule, the order-independent pair checksum, and the failure ratio.

#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it.
inline constexpr size_t kTailBeyond = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty list.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The tail latency of a sample set: the highest sample that still has at
/// least kTailBeyond samples strictly after it in sorted order, i.e. the
/// sample of sorted rank n - kTailBeyond - 1 (0-based). `percentile` is
/// the share of samples at or below that rank, in percent, so a report can
/// say which percentile it used. With kTailBeyond samples or fewer no
/// percentile qualifies: the maximum is returned and `qualified` is false.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  bool qualified = false;
};

inline Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= kTailBeyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  const size_t rank = n - kTailBeyond - 1;
  tail.value = values[rank];
  tail.percentile = 100.0 * static_cast<double>(rank + 1) / n;
  tail.qualified = true;
  return tail;
}

/// Completed operations of one phase: completion time (seconds since the
/// window's origin) and latency of each.
struct Series {
  std::vector<double> done_s;
  std::vector<double> ms;

  void Add(double done, double latency_ms) {
    done_s.push_back(done);
    ms.push_back(latency_ms);
  }
};

/// Throughput and latency of a Series over the measured interval
/// [from, to], reported as the median over equal sub-windows, so a short
/// stall (another process taking the CPU for a moment) moves one
/// sub-window, not the result. There are as many sub-windows as keep at
/// least `min_per_sub` operations each, at most `max_sub`, at least one.
/// Operations completing before `from` (warm-up) are not measured.
struct SeriesSummary {
  double per_s = 0;  // operations x units_per_op per second
  double p50_ms = 0;
  Tail tail;         // median tail value / percentile over sub-windows
  size_t subwindows = 0;
};

/// Appends the operations of `in` that completed in [from, to] to `out`,
/// shifted so the interval starts at `*span`, and advances `*span` by its
/// length: measured intervals of consecutive runs laid end to end.
inline void AppendMeasured(const Series& in, double from, double to,
                           Series* out, double* span) {
  for (size_t i = 0; i < in.done_s.size(); ++i) {
    if (in.done_s[i] >= from && in.done_s[i] <= to) {
      out->Add(*span + (in.done_s[i] - from), in.ms[i]);
    }
  }
  *span += std::max(0.0, to - from);
}

inline SeriesSummary Summarize(const Series& series, double from, double to,
                               double units_per_op, size_t max_sub = 5,
                               size_t min_per_sub = 50) {
  SeriesSummary out;
  if (!(to > from)) return out;
  size_t measured = 0;
  for (const double done : series.done_s) measured += done >= from;
  const size_t k =
      std::max<size_t>(1, std::min(max_sub, measured / min_per_sub));
  const double width = (to - from) / static_cast<double>(k);
  std::vector<std::vector<double>> ms(k);
  for (size_t i = 0; i < series.done_s.size(); ++i) {
    const double done = series.done_s[i];
    if (done < from) continue;
    const size_t j = std::min(k - 1, static_cast<size_t>((done - from) / width));
    ms[j].push_back(series.ms[i]);
  }
  std::vector<double> per_s;
  std::vector<double> p50;
  std::vector<double> tail;
  std::vector<double> percentile;
  bool qualified = true;
  for (const std::vector<double>& sub : ms) {
    per_s.push_back(static_cast<double>(sub.size()) * units_per_op / width);
    p50.push_back(Median(sub));
    const Tail t = TailOf(sub);
    tail.push_back(t.value);
    percentile.push_back(t.percentile);
    qualified = qualified && t.qualified;
  }
  out.per_s = Median(per_s);
  out.p50_ms = Median(p50);
  out.tail.value = Median(tail);
  out.tail.percentile = Median(percentile);
  out.tail.samples = measured;
  out.tail.qualified = qualified;
  out.subwindows = k;
  return out;
}

/// splitmix64 finalizer: a bijective 64-bit mix, so distinct pairs map to
/// distinct words before they are summed.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-independent fingerprint of a multiset of (a, b) id pairs: the
/// pair count plus the wrapping sum of each pair's mixed 64-bit key. The
/// sum commutes, so results emitted in any order (parallel joins, shard
/// gathers) fold to the same value, and Remove undoes Add exactly, which
/// lets a continuous join's delta stream be folded into the state of its
/// current pair set. Unlike an XOR fold, a pair reported twice does not
/// cancel out.
struct PairChecksum {
  uint64_t count = 0;
  uint64_t sum = 0;

  static uint64_t Key(uint32_t a, uint32_t b) {
    return Mix64((static_cast<uint64_t>(a) << 32) | b);
  }
  void Add(uint32_t a, uint32_t b) {
    ++count;
    sum += Key(a, b);
  }
  void Remove(uint32_t a, uint32_t b) {
    --count;
    sum -= Key(a, b);
  }
  bool operator==(const PairChecksum& other) const {
    return count == other.count && sum == other.sum;
  }
  bool operator!=(const PairChecksum& other) const { return !(*this == other); }
};

/// Operation outcome counts. Every attempted operation is counted once in
/// `attempted`, whether it succeeded, failed or was refused; a failure is
/// counted in `failed` only (never added to the denominator a second time).
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  /// failed / attempted; 0 when nothing was attempted.
  double FailedRatio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
