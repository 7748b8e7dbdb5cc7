// perfbench: runs one workload and prints its result as one JSON line.
//
//   perfbench --workload <suite_wsj|wire_adhoc_swb|live_ingest_wsj>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-file <path>]
//
// The last line of standard output is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 without a result line if the workload cannot run.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <suite_wsj|wire_adhoc_swb|"
               "live_ingest_wsj> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--trace-file <path>]\n");
  return 2;
}

void PrintResult(const perfbench::Outcome& out, bool trace) {
  const auto& metrics = trace ? out.per_layer : out.end_to_end;
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace") ||
      !args.count("work-dir")) {
    return Usage();
  }
  perfbench::Config config;
  config.process_start = kProcessStart;
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::atoi(args["seconds"].c_str());
  config.trace = args["trace"] == "1";
  config.work_dir = args["work-dir"];
  if (config.seconds < 1) return Usage();
  if (config.trace) perfbench::EnableTracing();

  const std::string& workload = args["workload"];
  perfbench::Outcome (*run)(const perfbench::Config&) = nullptr;
  if (workload == "suite_wsj") run = perfbench::RunSuiteWsj;
  if (workload == "wire_adhoc_swb") run = perfbench::RunWireAdhocSwb;
  if (workload == "live_ingest_wsj") run = perfbench::RunLiveIngestWsj;
  if (run == nullptr) return Usage();

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  perfbench::Outcome out;
  int code = 0;
  try {
    out = run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    code = 1;
  }
  std::filesystem::remove_all(config.work_dir, ec);
  if (code != 0) return code;
  if (config.trace && args.count("trace-file")) {
    if (perfbench::WriteTrace(args["trace-file"]) < 0) {
      std::fprintf(stderr, "cannot write %s\n", args["trace-file"].c_str());
      return 1;
    }
  }
  PrintResult(out, config.trace);
  return 0;
}
