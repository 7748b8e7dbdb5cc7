// The benchmark's three workloads. Each builds its inputs from the seed,
// times its phase through the program's public entry points (db, service,
// net), checks every answer against the navigational reference engine
// after the timed phase, and reports its metrics. See README.md for what
// each workload exercises and why.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Config {
  uint64_t seed = 1;
  int seconds = 1;
  bool trace = false;
  /// Scratch directory for images and write-ahead logs (created by the
  /// workload, removed by main.cc after the run).
  std::string work_dir;
  /// When the process started: setup_s is measured from here.
  Clock::time_point process_start;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Throws std::runtime_error when the workload cannot be set up or run.
Outcome RunSuiteWsj(const Config& config);
Outcome RunWireAdhocSwb(const Config& config);
Outcome RunLiveIngestWsj(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
