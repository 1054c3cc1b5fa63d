// Engine benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--inject-fault]
//
// Workloads: cold-neuro, warm-serve, sharded-serve, continuous-churn (see
// perfbench/README.md). Prints one line per metric (name, value, unit) and
// notes prefixed with '#', then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any result disagrees with its reference or a stationarity
// guard trips, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Report;

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "cold-neuro|warm-serve|sharded-serve|continuous-churn "
               "--seed N --seconds S --trace 0|1 [--inject-fault]\n",
               error);
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--inject-fault") {
      options.inject_fault = true;
    } else if (arg == "--workload" && has_value) {
      if (!perfbench::ParseKind(argv[++i], &options.kind)) {
        return Usage("unknown workload");
      }
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage(("unexpected argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              perfbench::KindName(options.kind),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Report report;
  perfbench::Measurement measurement;
  const int instances = options.trace ? 1 : perfbench::kInstances;
  perfbench::RunOptions instance_options = options;
  instance_options.seconds = options.seconds / instances;
  for (int k = 0; k < instances; ++k) {
    const uint64_t seed = perfbench::InstanceSeed(options.seed, k);
    const perfbench::WorkloadData data =
        perfbench::MakeWorkload(options.kind, seed);
    char line[200];
    std::snprintf(line, sizeof(line), "instance %d: data seed %llu", k,
                  static_cast<unsigned long long>(seed));
    report.notes.push_back(line);
    for (size_t i = 0; i < data.datasets.size(); ++i) {
      std::snprintf(line, sizeof(line), "dataset %s: %zu boxes",
                    data.names[i].c_str(), data.datasets[i].size());
      report.notes.push_back(line);
    }
    for (size_t s = 0; s < data.shapes.size(); ++s) {
      const perfbench::Shape& shape = data.shapes[s];
      std::snprintf(line, sizeof(line),
                    "shape %zu: %s x %s eps %g, reference %llu pairs", s,
                    data.names[shape.a].c_str(), data.names[shape.b].c_str(),
                    shape.epsilon,
                    static_cast<unsigned long long>(data.reference[s].count));
      report.notes.push_back(line);
    }
    perfbench::RunWorkload(instance_options, data, &report, &measurement);
  }
  if (!options.trace) perfbench::EndToEndMetrics(measurement, &report);

  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& defect : report.defects) {
    std::printf("# DEFECT %s\n", defect.c_str());
  }
  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = report.ops.failed == 0 && report.defects.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.ops.attempted);
  json += ", \"failed\": " + std::to_string(report.ops.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(metrics[i].name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
