// Ablation: TOUCH thread scaling. The paper runs single-threaded (one
// BlueGene core per subset); this extension runs the assignment and the
// local joins as morsels over every runner and measures how far that
// carries on a multicore host. Speedup saturates when the single-threaded
// tree build (Amdahl) dominates.

#include <string>

#include "bench_common.h"

namespace touch::bench {
namespace {

void RegisterAll() {
  const size_t size_a = Scaled(100'000);
  const size_t size_b = 4 * size_a;
  const SyntheticOptions opt = DensityMatchedOptions(size_a, 1'600'000);
  constexpr float kEpsilon = 10.0f;

  for (const int threads : {1, 2, 4, 8}) {
    const std::string bench_name =
        "ablation_threads/gaussian/threads:" + std::to_string(threads);
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [=](benchmark::State& state) {
          const Dataset& a =
              CachedDataset(Distribution::kGaussian, size_a, 41, opt);
          const Dataset& b =
              CachedDataset(Distribution::kGaussian, size_b, 42, opt);
          AlgorithmConfig config;
          config.touch.threads = threads;
          RunDistanceJoin(state, "touch", a, b, kEpsilon, config);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1)
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace touch::bench

int main(int argc, char** argv) {
  touch::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
