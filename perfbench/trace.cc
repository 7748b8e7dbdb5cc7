#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

struct Record {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  Clock::time_point start;
  Clock::time_point end;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<Record>* g_records = new std::vector<Record>();  // never freed
const Clock::time_point g_epoch = Clock::now();

thread_local uint64_t t_current = 0;
thread_local uint64_t t_request = 0;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

void EnableTracing() { g_enabled.store(true); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetRequestId(uint64_t id) { t_request = id; }

Span::Span(const char* name) : name_(name) {
  if (!TracingEnabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  t_current = parent_;
  std::lock_guard<std::mutex> lock(g_mu);
  g_records->push_back(Record{name_, id_, parent_, t_request, start_, end});
}

int64_t WriteTrace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  const std::vector<Record>& records = *g_records;
  // Self time: children of one span run on its thread, nested and
  // disjoint, so their durations add up to the covered part.
  std::unordered_map<uint64_t, Clock::duration> child_time;
  for (const Record& r : records) {
    if (r.parent != 0) child_time[r.parent] += r.end - r.start;
  }
  struct LayerSum {
    uint64_t count = 0;
    double self_us = 0.0;
  };
  std::map<std::string, LayerSum> layers;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  for (const Record& r : records) {
    const auto it = child_time.find(r.id);
    const Clock::duration self =
        (r.end - r.start) - (it == child_time.end() ? Clock::duration{0}
                                                     : it->second);
    const std::string name = r.name;
    LayerSum& sum = layers[name.substr(0, name.find('.'))];
    ++sum.count;
    sum.self_us += Micros(self);
    std::fprintf(f,
                 "{\"span\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request), r.name,
                 Micros(r.start - g_epoch), Micros(r.end - g_epoch));
  }
  std::fprintf(stderr, "trace: %zu spans -> %s\n", records.size(),
               path.c_str());
  std::fprintf(stderr, "trace: %-10s %10s %14s\n", "layer", "spans",
               "self_ms");
  for (const auto& [layer, sum] : layers) {
    std::fprintf(f,
                 "{\"layer\": \"%s\", \"spans\": %llu, \"self_ms\": %.3f}\n",
                 layer.c_str(), static_cast<unsigned long long>(sum.count),
                 sum.self_us / 1e3);
    std::fprintf(stderr, "trace: %-10s %10llu %14.3f\n", layer.c_str(),
                 static_cast<unsigned long long>(sum.count),
                 sum.self_us / 1e3);
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? static_cast<int64_t>(records.size()) : -1;
}

}  // namespace perfbench
