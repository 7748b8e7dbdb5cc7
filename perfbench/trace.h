// Spans recorded by the benchmark around its calls into the program's
// public functions: one span per call, with a name "<layer>.<function>",
// start, end, parent span and request id. Spans stay in memory and are
// written out when the run ends, with a per-layer summary of span counts
// and self time (a span's duration minus its child spans').
//
// Off unless the run passes --trace 1; a disabled Span costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Turns span recording on for the rest of the process.
void EnableTracing();
bool TracingEnabled();

/// Tags the calling thread's subsequent spans with a request id (0: none).
void SetRequestId(uint64_t id);

/// Writes every recorded span to `path` (JSON lines) followed by the
/// per-layer summary, and prints the summary to stderr. Returns the number
/// of spans written, or -1 if the file cannot be written.
int64_t WriteTrace(const std::string& path);

/// RAII span. `name` must be a string literal ("db.Query").
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
