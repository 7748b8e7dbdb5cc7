#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <functional>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "bench_util/suite.h"
#include "check.h"
#include "common/rng.h"
#include "db/database.h"
#include "gen/generator.h"
#include "lpath/eval_nav.h"
#include "lpath/parser.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "plan/compile.h"
#include "plan/sql_gen.h"
#include "service/query_service.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "storage/snapshot.h"

namespace perfbench {

using lpath::Corpus;
using lpath::Hit;
using lpath::QueryResult;
using lpath::Result;
using lpath::SnapshotPtr;
using lpath::Status;

namespace {

// --- Sizes and rates (README.md explains each choice) -----------------------

constexpr int kSuiteSentences = 32000;
constexpr int kSwbSentences = 2000;
constexpr int kLiveBaseSentences = 8000;
/// Trees per Ingest call, in live_ingest_wsj and in the ingest probe.
constexpr int kBatchTrees = 32;
/// live_ingest_wsj: suite queries run after each ingested batch.
constexpr int kQueriesPerBatch = 1;
/// The volatile ingest probe that gives the ingest figures of traced runs
/// of the read-only workloads: a 16-batch warm-up, then 4 timed cycles of 64
/// batches (2048 trees per cycle, below the compaction threshold), so the
/// timing is dominated by the O(delta) append work rather than by the
/// fixed per-publication cost.
constexpr int kProbeWarmupBatches = 16;
constexpr int kProbeCycles = 4;
constexpr int kProbeBatchesPerCycle = 64;
/// Ad-hoc pool: more distinct texts than the default plan cache holds.
constexpr int kPoolSize = 512;
constexpr double kZipfExponent = 1.0;
/// Offered rate of wire_adhoc_swb's open-loop arrivals.
constexpr double kOfferedRate = 150.0;
/// Texts the per-layer network probe sends over the wire.
constexpr size_t kNetProbeTexts = 64;

// --- Small helpers ----------------------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

[[noreturn]] void Fail(const std::string& what, const Status& status) {
  throw std::runtime_error(what + ": " + status.ToString());
}
void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what, status);
}
template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(result).value();
}

/// Nearest-rank percentile of `v` (p in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ull + stream;
  return lpath::SplitMix64(&state);
}

int Threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(std::min(n, 4u));
}

enum class Profile { kWsj, kSwb };

Corpus Generate(Profile profile, int sentences, uint64_t seed) {
  Span span(profile == Profile::kWsj ? "gen.GenerateWsj" : "gen.GenerateSwb");
  return Must(profile == Profile::kWsj
                  ? lpath::gen::GenerateWsj(sentences, seed)
                  : lpath::gen::GenerateSwb(sentences, seed),
              "generate corpus");
}

/// The seed of ingest batch `k` (live workload and ingest probe alike).
uint64_t BatchSeed(uint64_t seed, int k) {
  return SubSeed(seed, 1000 + static_cast<uint64_t>(k));
}

std::vector<std::string> SuiteTexts() {
  std::vector<std::string> texts;
  for (const auto& q : lpath::bench::The23Queries()) texts.push_back(q.lpath);
  return texts;
}

/// Sorted reference answers of `texts` on `corpus`, computed by the
/// navigational engine on up to Threads() threads.
std::vector<std::vector<Hit>> Reference(const Corpus& corpus,
                                        const std::vector<std::string>& texts,
                                        uint64_t* failed) {
  const lpath::NavigationalEngine nav(corpus);
  std::vector<std::vector<Hit>> out(texts.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> errors{0};
  auto worker = [&] {
    for (size_t i = next++; i < texts.size(); i = next++) {
      Result<QueryResult> r = nav.Run(texts[i]);
      if (!r.ok()) {
        std::fprintf(stderr, "reference: %s: %s\n", texts[i].c_str(),
                     r.status().ToString().c_str());
        ++errors;
        continue;
      }
      out[i] = std::move(r).value().hits;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < Threads(); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  *failed += errors.load();
  return out;
}

void Add(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit) {
  out->push_back(Metric{name, value, unit});
}

/// The query half of the end-to-end metrics.
struct QueryFigures {
  double setup_s = 0.0;
  uint64_t queries = 0;
  double queries_per_s = 0.0;
  std::vector<double> latency_ms;
  double rss_mb = 0.0;
};

/// The ingest half: per-Ingest latencies and the trees they carried.
struct IngestFigures {
  uint64_t trees = 0;
  std::vector<double> batch_ms;
};

/// The end-to-end metrics. The p99 figures and the ingest throughput go to
/// the per-layer list (reported by traced runs only): on this benchmark's
/// reference machine they did not stay within any allowed bound between
/// runs (README.md, "Dropped metrics").
void AddEndToEnd(Outcome* out, const QueryFigures& q, const IngestFigures& in) {
  double ingest_s = 0.0;
  for (double ms : in.batch_ms) ingest_s += ms / 1e3;
  std::vector<Metric>& m = out->end_to_end;
  Add(&m, "setup_s", q.setup_s, "s");
  Add(&m, "queries_per_s", q.queries_per_s, "queries/s");
  Add(&m, "query_p50_ms", Percentile(q.latency_ms, 0.50), "ms");
  Add(&m, "rss_mb", q.rss_mb, "MB");
  std::vector<Metric>& t = out->per_layer;
  Add(&t, "traced.query_p99_ms", Percentile(q.latency_ms, 0.99), "ms");
  Add(&t, "traced.ingest_trees_per_s",
      ingest_s > 0 ? static_cast<double>(in.trees) / ingest_s : 0.0,
      "trees/s");
  Add(&t, "traced.ingest_p99_ms", Percentile(in.batch_ms, 0.99), "ms");
}

lpath::db::CorpusInfo Info(const lpath::db::Database& db,
                           const std::string& name) {
  for (lpath::db::CorpusInfo& info : db.List()) {
    if (info.name == name) return info;
  }
  throw std::runtime_error("corpus not attached: " + name);
}

/// Volatile ingest probe into a served corpus (traced runs of the
/// read-only workloads), the source of their ingest figures: a warm-up cycle of
/// kProbeWarmupBatches seeded batches, then kProbeCycles timed cycles of
/// kProbeBatchesPerCycle, each cycle starting from the served snapshot
/// again (restored with Database::Swap) so that every cycle covers the
/// same delta range. The warm-up absorbs the one-time cost of the first
/// append after an open (~40 ms on an image), which would otherwise decide
/// the top percentile. Counts one operation per batch plus one per cycle
/// for the tree-count check.
IngestFigures IngestProbe(lpath::db::Database* db, const std::string& name,
                          Profile profile, uint64_t seed, Outcome* out) {
  IngestFigures fig;
  const SnapshotPtr served = db->snapshot(name);
  const size_t before = Info(*db, name).trees;
  int k = 0;
  for (int cycle = -1; cycle < kProbeCycles; ++cycle) {
    const bool timed = cycle >= 0;
    const int batches = timed ? kProbeBatchesPerCycle : kProbeWarmupBatches;
    size_t added = 0;
    for (int b = 0; b < batches; ++b, ++k) {
      Corpus batch = Generate(profile, kBatchTrees, BatchSeed(seed, k));
      const Clock::time_point t0 = Clock::now();
      Status s;
      {
        Span span("db.Ingest");
        s = db->Ingest(name, std::move(batch));
      }
      const double ms = Millis(Clock::now() - t0);
      ++out->attempted;
      if (!s.ok()) {
        std::fprintf(stderr, "ingest probe: %s\n", s.ToString().c_str());
        ++out->failed;
        continue;
      }
      added += kBatchTrees;
      if (timed) {
        fig.batch_ms.push_back(ms);
        fig.trees += kBatchTrees;
      }
    }
    ++out->attempted;
    if (Info(*db, name).trees != before + added) {
      std::fprintf(stderr, "ingest probe: tree count mismatch\n");
      ++out->failed;
    }
    Must(db->Swap(name, served), "restore served snapshot");
  }
  return fig;
}

// --- Per-layer probes (traced runs only) ------------------------------------

/// Counters of the serving layers read at the end of a timed phase.
struct ServedCounters {
  lpath::service::ServiceStats service;
  lpath::db::CorpusInfo info;
  /// Plan-cache counters summed over sessions (live ingest swaps the
  /// session, and with it the cache, on every ingest).
  lpath::service::PlanCache::Stats cache;
  bool have_net = false;
  lpath::net::NetStats net;
  double lateness_ms = 0.0;       ///< mean generator lateness
  double delta_trees = 0.0;       ///< mean delta trees at query time
  uint64_t ingested_trees = 0;
  double ingest_ms = 0.0;         ///< mean per-Ingest latency
  double ingest_max_ms = 0.0;     ///< slowest Ingest (a compaction stall)
};

void AddCacheStats(lpath::service::PlanCache::Stats* sum,
                   const lpath::service::PlanCache::Stats& s) {
  sum->hits += s.hits;
  sum->misses += s.misses;
  sum->evictions += s.evictions;
  sum->shared_prepare_hits += s.shared_prepare_hits;
}

double Median3(const std::function<double()>& once) {
  std::vector<double> v = {once(), once(), once()};
  std::sort(v.begin(), v.end());
  return v[1];
}

/// Parse → compile → SQL text → SQL parse → prepare, per distinct text,
/// timed call by call; plan-cache miss and hit on a fresh service; the
/// suite's execution time per query; and the wire's cost over an
/// in-process call. Appends the per-layer metrics.
void ProbeLayers(lpath::db::Database* db, const std::string& name,
                 const std::vector<std::string>& texts,
                 lpath::net::NetServer* server, const ServedCounters& served,
                 Outcome* out) {
  std::vector<Metric>& m = out->per_layer;
  const SnapshotPtr snapshot = db->snapshot(name);
  const lpath::NodeRelation& rel = snapshot->relation();

  // lpath / plan / sql prepare chain.
  std::vector<double> parse_us, compile_us, sqlgen_us, sqlparse_us, prepare_us;
  {
    Span probe("probe.prepare_chain");
    for (const std::string& text : texts) {
      Clock::time_point t = Clock::now();
      Result<lpath::LocationPath> ast = [&] {
        Span span("lpath.ParseLPath");
        return lpath::ParseLPath(text);
      }();
      parse_us.push_back(Micros(Clock::now() - t));
      if (!ast.ok()) continue;
      t = Clock::now();
      Result<lpath::ExecPlan> plan = [&] {
        Span span("plan.CompileLPath");
        return lpath::CompileLPath(ast.value());
      }();
      compile_us.push_back(Micros(Clock::now() - t));
      if (!plan.ok()) continue;
      t = Clock::now();
      const std::string sql = [&] {
        Span span("plan.GenerateSql");
        return lpath::GenerateSql(plan.value());
      }();
      sqlgen_us.push_back(Micros(Clock::now() - t));
      t = Clock::now();
      {
        Span span("sql.ParseSql");
        (void)lpath::sql::ParseSql(sql);
      }
      sqlparse_us.push_back(Micros(Clock::now() - t));
      t = Clock::now();
      {
        Span span("sql.Prepare");
        (void)lpath::sql::Prepare(plan.value(), rel, lpath::sql::ExecOptions{});
      }
      prepare_us.push_back(Micros(Clock::now() - t));
    }
  }
  Add(&m, "lpath.parse_us", Mean(parse_us), "us");
  Add(&m, "plan.compile_us", Mean(compile_us), "us");
  Add(&m, "plan.sql_gen_us", Mean(sqlgen_us), "us");
  Add(&m, "sql.parse_us", Mean(sqlparse_us), "us");
  Add(&m, "sql.prepare_us", Mean(prepare_us), "us");

  // Plan cache: a fresh service's first GetPlan of a text misses, the
  // second hits. Suite execution times on the same fresh service.
  std::vector<double> hit_us, miss_us;
  std::vector<Metric> exec_ms;
  {
    Span probe("probe.service");
    lpath::service::QueryService service(snapshot);
    for (const std::string& text : texts) {
      for (int pass = 0; pass < 2; ++pass) {
        const Clock::time_point t = Clock::now();
        {
          Span span("service.GetPlan");
          (void)service.GetPlan(text);
        }
        (pass == 0 ? miss_us : hit_us).push_back(Micros(Clock::now() - t));
      }
    }
    for (const auto& q : lpath::bench::The23Queries()) {
      (void)service.GetPlan(q.lpath);
      const double ms = Median3([&] {
        const Clock::time_point t = Clock::now();
        Span span("service.Query");
        (void)service.Query(q.lpath);
        return Millis(Clock::now() - t);
      });
      exec_ms.push_back(
          Metric{"sql.exec_ms.Q" + std::to_string(q.id), ms, "ms"});
    }
  }
  Add(&m, "service.get_plan_us.hit", Mean(hit_us), "us");
  Add(&m, "service.get_plan_us.miss", Mean(miss_us), "us");
  const auto& cache = served.cache;
  const uint64_t lookups = cache.hits + cache.misses;
  Add(&m, "service.plan_cache.lookups", static_cast<double>(lookups), "count");
  Add(&m, "service.plan_cache.hit_ratio",
      lookups ? static_cast<double>(cache.hits) / static_cast<double>(lookups)
              : 0.0,
      "ratio");
  Add(&m, "service.plan_cache.misses", static_cast<double>(cache.misses),
      "count");
  Add(&m, "service.plan_cache.evictions", static_cast<double>(cache.evictions),
      "count");
  Add(&m, "service.plan_cache.shared_prepare_hits",
      static_cast<double>(cache.shared_prepare_hits), "count");
  for (Metric& e : exec_ms) m.push_back(std::move(e));

  // Executor and scheduling counters of the served service.
  const lpath::sql::ExecStats& ex = served.service.exec;
  const double memo = static_cast<double>(ex.memo_hits + ex.shared_memo_hits +
                                          ex.subplan_memo_hits);
  Add(&m, "sql.exec.candidates", static_cast<double>(ex.candidates), "count");
  Add(&m, "sql.exec.bindings", static_cast<double>(ex.bindings), "count");
  Add(&m, "sql.exec.useful_ratio",
      ex.candidates ? static_cast<double>(ex.bindings) /
                          static_cast<double>(ex.candidates)
                    : 0.0,
      "ratio");
  Add(&m, "sql.exec.subqueries", static_cast<double>(ex.subqueries), "count");
  Add(&m, "sql.exec.memo_hit_ratio",
      memo + static_cast<double>(ex.subqueries) > 0
          ? memo / (memo + static_cast<double>(ex.subqueries))
          : 0.0,
      "ratio");
  Add(&m, "service.morsels", static_cast<double>(ex.morsels), "count");
  Add(&m, "service.steals", static_cast<double>(ex.steal_count), "count");
  Add(&m, "service.sharded_queries",
      static_cast<double>(served.service.sharded_queries), "count");
  Add(&m, "service.serial_queries",
      static_cast<double>(served.service.serial_queries), "count");

  // Network: wire latency minus in-process latency of the same text, and
  // the batch codec over the result sets.
  std::unique_ptr<lpath::net::NetServer> own_server;
  if (server == nullptr) {
    own_server = std::make_unique<lpath::net::NetServer>(db);
    Must(own_server->Start(), "start probe server");
    server = own_server.get();
  }
  std::vector<double> overhead_us;
  double encode_us = 0.0, decode_us = 0.0;
  uint64_t codec_rows = 0;
  {
    Span probe("probe.net");
    lpath::net::Client client;
    Must(client.Connect("127.0.0.1", server->port()), "probe connect");
    const size_t n = std::min(texts.size(), kNetProbeTexts);
    for (size_t i = 0; i < n; ++i) {
      std::vector<Hit> rows;
      const double local = Median3([&] {
        const Clock::time_point t = Clock::now();
        Span span("db.Query");
        Result<QueryResult> r = db->Query(name, texts[i]);
        const double us = Micros(Clock::now() - t);
        if (r.ok()) rows = std::move(r).value().hits;
        return us;
      });
      const double wire = Median3([&] {
        const Clock::time_point t = Clock::now();
        Span span("net.Client::Query");
        (void)client.Query(name, texts[i]);
        return Micros(Clock::now() - t);
      });
      overhead_us.push_back(wire - local);
      const size_t batch = lpath::net::NetOptions{}.batch_rows;
      for (size_t at = 0; at < rows.size(); at += batch) {
        const std::span<const Hit> chunk(
            rows.data() + at, std::min(batch, rows.size() - at));
        Clock::time_point t = Clock::now();
        std::vector<uint8_t> bytes;
        {
          Span span("net.EncodeBatch");
          bytes = lpath::net::EncodeBatch(chunk);
        }
        encode_us += Micros(Clock::now() - t);
        t = Clock::now();
        {
          Span span("net.DecodeBatch");
          (void)lpath::net::DecodeBatch(bytes);
        }
        decode_us += Micros(Clock::now() - t);
        codec_rows += chunk.size();
      }
    }
    (void)client.Close();
  }
  const lpath::net::NetStats net =
      served.have_net ? served.net : server->stats();
  if (own_server) own_server->Stop();
  Add(&m, "net.overhead_us", Mean(overhead_us), "us");
  Add(&m, "net.encode_batch_us_per_krow",
      codec_rows ? encode_us * 1e3 / static_cast<double>(codec_rows) : 0.0,
      "us/krow");
  Add(&m, "net.decode_batch_us_per_krow",
      codec_rows ? decode_us * 1e3 / static_cast<double>(codec_rows) : 0.0,
      "us/krow");
  Add(&m, "net.frames_per_query",
      net.executes ? static_cast<double>(net.frames_out) /
                         static_cast<double>(net.executes)
                   : 0.0,
      "frames");
  Add(&m, "net.rows_streamed", static_cast<double>(net.rows_streamed),
      "count");
  Add(&m, "net.generator_lateness_ms", served.lateness_ms, "ms");

}

/// The ingest, WAL and compaction metrics.
void AddIngestLayer(Outcome* out, const ServedCounters& served) {
  std::vector<Metric>& m = out->per_layer;
  Add(&m, "db.ingest_ms", served.ingest_ms, "ms");
  Add(&m, "db.ingest_max_ms", served.ingest_max_ms, "ms");
  Add(&m, "storage.wal_bytes_per_tree",
      served.ingested_trees ? static_cast<double>(served.service.wal_bytes) /
                                  static_cast<double>(served.ingested_trees)
                            : 0.0,
      "bytes");
  Add(&m, "storage.wal_appends",
      static_cast<double>(served.service.wal_appends),
      "count");
  Add(&m, "storage.wal_segments", static_cast<double>(served.info.wal_segments),
      "count");
  Add(&m, "db.compactions", static_cast<double>(served.service.compactions),
      "count");
  Add(&m, "db.delta_trees_at_query", served.delta_trees, "trees");
}

/// Storage-layer set-up figures of one run.
struct StorageFigures {
  double gen_s = 0.0;
  double build_s = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;
  uint64_t image_bytes = 0;
};

void AddStorage(Outcome* out, const StorageFigures& s,
                const ServedCounters& served) {
  std::vector<Metric>& m = out->per_layer;
  Add(&m, "gen.corpus_s", s.gen_s, "s");
  Add(&m, "storage.relation_build_s", s.build_s, "s");
  Add(&m, "storage.image_save_s", s.save_s, "s");
  Add(&m, "storage.image_open_s", s.open_s, "s");
  Add(&m, "storage.image_bytes", static_cast<double>(s.image_bytes), "bytes");
  Add(&m, "storage.relation_bytes",
      static_cast<double>(served.info.relation_bytes), "bytes");
}

/// Saves `snapshot` as an image under `dir` and opens it again, timing
/// both (the image figures of a workload that serves from memory).
void ProbeImage(const SnapshotPtr& snapshot, const std::string& dir,
                StorageFigures* s) {
  const std::string path = dir + "/probe.img";
  Clock::time_point t = Clock::now();
  {
    Span span("storage.Save");
    Must(snapshot->Save(path), "save probe image");
  }
  s->save_s = Seconds(Clock::now() - t);
  t = Clock::now();
  {
    Span span("storage.Open");
    Must(lpath::CorpusSnapshot::Open(path), "open probe image");
  }
  s->open_s = Seconds(Clock::now() - t);
  s->image_bytes = std::filesystem::file_size(path);
  std::filesystem::remove(path);
}

ServedCounters ReadCounters(const lpath::db::Database& db,
                            const std::string& name) {
  ServedCounters c;
  c.service = db.service(name)->Stats();
  c.info = Info(db, name);
  c.cache = c.service.cache;
  return c;
}

/// Moves the end-to-end metrics of a traced run to stderr: the traced run
/// reports per-layer metrics, and its end-to-end figures serve only to
/// measure the tracing overhead.
void FinishTraced(Outcome* out) {
  for (const Metric& metric : out->end_to_end) {
    std::fprintf(stderr, "traced end-to-end: %s = %.6g %s\n",
                 metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  out->end_to_end.clear();
}

}  // namespace

// ---------------------------------------------------------------------------
// suite_wsj: the 23 paper queries, closed loop, one caller thread.

Outcome RunSuiteWsj(const Config& config) {
  Outcome out;
  StorageFigures storage;
  const std::string kName = "wsj";

  Clock::time_point t = Clock::now();
  Corpus corpus = Generate(Profile::kWsj, kSuiteSentences, config.seed);
  storage.gen_s = Seconds(Clock::now() - t);
  t = Clock::now();
  SnapshotPtr snapshot = [&] {
    Span span("storage.Build");
    return Must(lpath::CorpusSnapshot::Build(std::move(corpus)), "build");
  }();
  storage.build_s = Seconds(Clock::now() - t);
  lpath::db::Database db;
  Must(db.Attach(kName, snapshot), "attach");
  const std::vector<std::string> texts = SuiteTexts();
  {
    Span span("probe.warm_plans");
    for (const std::string& text : texts) {
      Span get("service.GetPlan");
      Must(db.service(kName)->GetPlan(text).status(), "warm plan");
    }
  }

  QueryFigures q;
  Checker checker;
  std::vector<double> lateness_ms;
  const Clock::time_point start = Clock::now();
  q.setup_s = Seconds(start - config.process_start);
  const Clock::time_point deadline =
      start + std::chrono::seconds(config.seconds);
  Clock::time_point prev_end = start;
  uint64_t request = 0;
  do {
    for (const std::string& text : texts) {
      SetRequestId(++request);
      const Clock::time_point t0 = Clock::now();
      Result<QueryResult> r = [&] {
        Span span("db.Query");
        return db.Query(kName, text);
      }();
      const Clock::time_point t1 = Clock::now();
      q.latency_ms.push_back(Millis(t1 - t0));
      lateness_ms.push_back(Millis(t0 - prev_end));
      ++q.queries;
      if (!r.ok()) {
        checker.RecordFailure(text + ": " + r.status().ToString());
      } else {
        checker.Record(text, std::move(r).value().hits);
      }
      prev_end = Clock::now();
    }
  } while (Clock::now() < deadline);
  const Clock::time_point end = Clock::now();
  SetRequestId(0);
  q.queries_per_s = static_cast<double>(q.queries) / Seconds(end - start);
  q.rss_mb = RssMb();
  out.attempted += q.queries;

  ServedCounters served = ReadCounters(db, kName);
  served.lateness_ms = Mean(lateness_ms);
  if (config.trace) {
    ProbeImage(snapshot, config.work_dir, &storage);
    ProbeLayers(&db, kName, texts, nullptr, served, &out);
  }
  const IngestFigures ingest =
      config.trace ? IngestProbe(&db, kName, Profile::kWsj, config.seed, &out)
                   : IngestFigures{};

  const Corpus reference_corpus =
      Generate(Profile::kWsj, kSuiteSentences, config.seed);
  out.failed += checker.Verify(
      Reference(reference_corpus, checker.Texts(), &out.failed));
  AddEndToEnd(&out, q, ingest);
  if (config.trace) {
    served.ingest_ms = Mean(ingest.batch_ms);
    served.ingest_max_ms = Percentile(ingest.batch_ms, 1.0);
    AddIngestLayer(&out, served);
    AddStorage(&out, storage, served);
    FinishTraced(&out);
  }
  return out;
}


// ---------------------------------------------------------------------------
// wire_adhoc_swb: open-loop Poisson arrivals over loopback, Zipf-popular
// ad-hoc queries, corpus served from a relation image.

namespace {

/// The ad-hoc pool, in popularity order (rank 0 most popular). The
/// template of each rank is fixed, so the cost profile by rank is the same
/// for every seed; the seed picks the words. Six of the eight templates
/// stream over a thousand rows: they exclude one word (`!=`, `not(...)`), so
/// their cost hardly depends on which word the seed picks, and they carry
/// about 81% of the requests, so the median request is one of them. The
/// other two are selective. Every 16th text is a quoted respelling of the
/// text 15 ranks before it (same structure, new text).
std::vector<std::string> AdhocPool(uint64_t seed) {
  lpath::Rng rng(SubSeed(seed, 7));
  auto word = [&](const char* prefix, uint64_t lo, uint64_t hi) {
    return std::string(prefix) + std::to_string(lo + rng.Below(hi - lo));
  };
  auto quote_lex = [](std::string text) {
    // //T[...@lex!=w] -> //'T'[...@lex!='w'] for the first tag and every
    // word ('=' and '!=' alike).
    std::string out;
    size_t i = 0;
    if (text.rfind("//", 0) == 0) {
      size_t end = text.find_first_of("[/{-=", 2);
      out = "//'" + text.substr(2, end - 2) + "'";
      i = end;
    }
    while (i < text.size()) {
      const size_t op = text.compare(i, 5, "@lex=") == 0    ? 5
                        : text.compare(i, 6, "@lex!=") == 0 ? 6
                                                            : 0;
      if (op != 0) {
        const size_t end = text.find_first_of("]", i + op);
        out += text.substr(i, op) + "'" +
               text.substr(i + op, end - i - op) + "'";
        i = end;
      } else {
        out += text[i++];
      }
    }
    return out;
  };
  std::vector<std::string> pool;
  std::unordered_set<std::string> seen;
  while (static_cast<int>(pool.size()) < kPoolSize) {
    const size_t rank = pool.size();
    std::string text;
    if (rank % 16 == 15) {
      text = quote_lex(pool[rank - 15]);
    } else {
      switch (rank % 8) {
        case 0: text = "//NP[/NN[@lex!=" + word("noun", 30, 2400) + "]]"; break;
        case 1:
          text = "//VP{/VBD[not(@lex=" + word("verbed", 20, 700) + ")]-->NN}";
          break;
        case 2:
          text = "//NP[not(/JJ[@lex=" + word("adj", 20, 900) + "])]/NN";
          break;
        case 3:
          text = "//VBD[not(@lex=" + word("verbed", 20, 700) + ")]->NP";
          break;
        case 4: text = "//JJ[not(@lex=" + word("adj", 20, 900) + ")]"; break;
        case 5: text = "//VP[//NN[@lex=" + word("noun", 30, 2400) + "]]"; break;
        case 6:
          text = "//VP{/VBD[@lex=" + word("verbed", 20, 700) + "]-->NN}";
          break;
        default:
          text = "//NP{/DT-->NN[not(@lex=" + word("noun", 30, 2400) + ")]}";
          break;
      }
    }
    if (seen.insert(text).second) pool.push_back(std::move(text));
  }
  return pool;
}

/// One scheduled request: due time offset and pool rank.
struct Arrival {
  double due_s = 0.0;
  int rank = 0;
};

std::vector<Arrival> Schedule(uint64_t seed, int seconds) {
  lpath::Rng rng(SubSeed(seed, 8));
  std::vector<double> cdf(kPoolSize);
  double total = 0.0;
  for (int r = 0; r < kPoolSize; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  const size_t n = static_cast<size_t>(kOfferedRate * seconds);
  std::vector<Arrival> out(n);
  double at = 0.0;
  for (Arrival& a : out) {
    at += -std::log(1.0 - rng.NextDouble()) / kOfferedRate;
    a.due_s = at;
    const double u = rng.NextDouble() * total;
    a.rank = static_cast<int>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    a.rank = std::min(a.rank, kPoolSize - 1);
  }
  return out;
}

}  // namespace

Outcome RunWireAdhocSwb(const Config& config) {
  Outcome out;
  StorageFigures storage;
  const std::string kName = "swb";
  const std::string image = config.work_dir + "/swb.img";

  Clock::time_point t = Clock::now();
  Corpus corpus = Generate(Profile::kSwb, kSwbSentences, config.seed);
  storage.gen_s = Seconds(Clock::now() - t);
  {
    t = Clock::now();
    SnapshotPtr built = [&] {
      Span span("storage.Build");
      return Must(lpath::CorpusSnapshot::Build(std::move(corpus)), "build");
    }();
    storage.build_s = Seconds(Clock::now() - t);
    t = Clock::now();
    Span span("storage.Save");
    Must(built->Save(image), "save image");
    storage.save_s = Seconds(Clock::now() - t);
  }
  storage.image_bytes = std::filesystem::file_size(image);
  lpath::db::Database db;
  t = Clock::now();
  {
    Span span("db.OpenImage");
    Must(db.OpenImage(kName, image), "open image");
  }
  storage.open_s = Seconds(Clock::now() - t);
  lpath::net::NetServer server(&db);
  {
    Span span("net.NetServer::Start");
    Must(server.Start(), "start server");
  }
  const int clients = Threads();
  std::vector<lpath::net::Client> conns(clients);
  for (lpath::net::Client& c : conns) {
    Span span("net.Client::Connect");
    Must(c.Connect("127.0.0.1", server.port()), "connect");
  }
  const std::vector<std::string> pool = AdhocPool(config.seed);
  const std::vector<Arrival> arrivals = Schedule(config.seed, config.seconds);

  QueryFigures q;
  Checker checker;
  std::vector<std::vector<double>> latency(clients), lateness(clients);
  std::atomic<size_t> next{0};
  std::vector<Clock::time_point> last_done(clients);
  const Clock::time_point start = Clock::now();
  q.setup_s = Seconds(start - config.process_start);
  auto client_loop = [&](int c) {
    lpath::net::Client& conn = conns[c];
    for (size_t i = next++; i < arrivals.size(); i = next++) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrivals[i].due_s));
      std::this_thread::sleep_until(due);
      const std::string& text = pool[arrivals[i].rank];
      SetRequestId(i + 1);
      const Clock::time_point sent = Clock::now();
      Result<QueryResult> r = [&] {
        Span span("net.Client::Query");
        return conn.Query(kName, text);
      }();
      const Clock::time_point done = Clock::now();
      latency[c].push_back(Millis(done - due));
      lateness[c].push_back(Millis(sent - due));
      last_done[c] = done;
      if (!r.ok()) {
        checker.RecordFailure(text + ": " + r.status().ToString());
        continue;
      }
      std::vector<Hit> rows = std::move(r).value().hits;
      SortRows(&rows);
      checker.Record(text, std::move(rows));
    }
    SetRequestId(0);
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& th : threads) th.join();
  const Clock::time_point end =
      *std::max_element(last_done.begin(), last_done.end());
  q.rss_mb = RssMb();
  std::vector<double> all_lateness;
  for (int c = 0; c < clients; ++c) {
    q.latency_ms.insert(q.latency_ms.end(), latency[c].begin(),
                        latency[c].end());
    all_lateness.insert(all_lateness.end(), lateness[c].begin(),
                        lateness[c].end());
  }
  q.queries = q.latency_ms.size();
  q.queries_per_s = static_cast<double>(q.queries) / Seconds(end - start);
  out.attempted += q.queries;
  for (lpath::net::Client& c : conns) (void)c.Close();

  ServedCounters served = ReadCounters(db, kName);
  served.have_net = true;
  served.net = server.stats();
  served.lateness_ms = Mean(all_lateness);
  if (config.trace) {
    std::vector<std::string> texts = checker.Texts();
    ProbeLayers(&db, kName, texts, &server, served, &out);
  }
  const IngestFigures ingest =
      config.trace ? IngestProbe(&db, kName, Profile::kSwb, config.seed, &out)
                   : IngestFigures{};
  server.Stop();

  const Corpus reference_corpus =
      Generate(Profile::kSwb, kSwbSentences, config.seed);
  out.failed += checker.Verify(
      Reference(reference_corpus, checker.Texts(), &out.failed));
  AddEndToEnd(&out, q, ingest);
  if (config.trace) {
    served.ingest_ms = Mean(ingest.batch_ms);
    served.ingest_max_ms = Percentile(ingest.batch_ms, 1.0);
    AddIngestLayer(&out, served);
    AddStorage(&out, storage, served);
    FinishTraced(&out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// live_ingest_wsj: durable 32-tree ingests into an image-backed corpus,
// one suite query after each, background compaction at the default.

Outcome RunLiveIngestWsj(const Config& config) {
  Outcome out;
  StorageFigures storage;
  const std::string kName = "wsj";
  const std::string image = config.work_dir + "/wsj.img";
  lpath::db::DatabaseOptions options;
  options.wal_dir = config.work_dir + "/wal";

  Clock::time_point t = Clock::now();
  Corpus corpus = Generate(Profile::kWsj, kLiveBaseSentences, config.seed);
  storage.gen_s = Seconds(Clock::now() - t);
  {
    t = Clock::now();
    SnapshotPtr built = [&] {
      Span span("storage.Build");
      return Must(lpath::CorpusSnapshot::Build(std::move(corpus)), "build");
    }();
    storage.build_s = Seconds(Clock::now() - t);
    t = Clock::now();
    Span span("storage.Save");
    Must(built->Save(image), "save image");
    storage.save_s = Seconds(Clock::now() - t);
  }
  storage.image_bytes = std::filesystem::file_size(image);
  auto db = std::make_unique<lpath::db::Database>(options);
  t = Clock::now();
  {
    Span span("db.OpenImage");
    Must(db->OpenImage(kName, image), "open image");
  }
  storage.open_s = Seconds(Clock::now() - t);
  const std::vector<std::string> texts = SuiteTexts();

  QueryFigures q;
  IngestFigures ingest;
  Checker checker;
  std::vector<double> lateness_ms, delta_trees;
  lpath::service::PlanCache::Stats cache_sum;
  // Per suite text: the rows and tree count of its previous execution,
  // for the append-prefix property.
  std::vector<std::vector<Hit>> last_rows(texts.size());
  std::vector<int32_t> last_trees(texts.size(), -1);
  int32_t trees = kLiveBaseSentences;
  int batches = 0;
  uint64_t request = 0;
  const Clock::time_point start = Clock::now();
  q.setup_s = Seconds(start - config.process_start);
  const Clock::time_point deadline =
      start + std::chrono::seconds(config.seconds);
  Clock::time_point prev_end = start;
  double busy_query_s = 0.0;
  do {
    // One round: 23 batches, each followed by the next kQueriesPerBatch
    // suite queries, so a round runs every suite query kQueriesPerBatch
    // times.
    for (size_t b = 0; b < texts.size(); ++b) {
      Corpus batch = Generate(Profile::kWsj, kBatchTrees,
                              BatchSeed(config.seed, batches));
      SetRequestId(++request);
      const Clock::time_point t0 = Clock::now();
      lateness_ms.push_back(Millis(t0 - prev_end));
      Status s;
      {
        Span span("db.Ingest");
        s = db->Ingest(kName, std::move(batch));
      }
      ingest.batch_ms.push_back(Millis(Clock::now() - t0));
      ++batches;
      ++out.attempted;
      if (!s.ok()) {
        checker.RecordFailure("ingest: " + s.ToString());
        continue;
      }
      trees += kBatchTrees;
      ingest.trees += kBatchTrees;
      if (config.trace) {
        delta_trees.push_back(
            static_cast<double>(Info(*db, kName).delta_trees));
      }
      prev_end = Clock::now();
      for (int j = 0; j < kQueriesPerBatch; ++j) {
        const size_t i = (b * kQueriesPerBatch + j) % texts.size();
        const std::string& text = texts[i];
        SetRequestId(++request);
        const Clock::time_point q0 = Clock::now();
        Result<QueryResult> r = [&] {
          Span span("db.Query");
          return db->Query(kName, text);
        }();
        const Clock::time_point q1 = Clock::now();
        q.latency_ms.push_back(Millis(q1 - q0));
        lateness_ms.push_back(Millis(q0 - prev_end));
        busy_query_s += Seconds(q1 - q0);
        ++q.queries;
        ++out.attempted;
        if (config.trace) {
          AddCacheStats(&cache_sum, db->service(kName)->Stats().cache);
        }
        if (!r.ok()) {
          checker.RecordFailure(text + ": " + r.status().ToString());
        } else {
          std::vector<Hit> rows = std::move(r).value().hits;
          if (last_trees[i] >= 0 &&
              !PrefixPreserved(last_rows[i], last_trees[i], rows)) {
            checker.RecordFailure(text +
                                  ": append changed earlier trees' hits");
          }
          checker.Record(text, rows, trees);
          last_rows[i] = std::move(rows);
          last_trees[i] = trees;
        }
        prev_end = Clock::now();
      }
    }
  } while (Clock::now() < deadline);
  SetRequestId(0);
  q.queries_per_s = static_cast<double>(q.queries) / busy_query_s;
  q.rss_mb = RssMb();

  ServedCounters served = ReadCounters(*db, kName);
  served.cache = cache_sum;
  served.lateness_ms = Mean(lateness_ms);
  served.delta_trees = Mean(delta_trees);
  served.ingested_trees = ingest.trees;
  served.ingest_ms = Mean(ingest.batch_ms);
  served.ingest_max_ms = Percentile(ingest.batch_ms, 1.0);
  if (config.trace) ProbeLayers(db.get(), kName, texts, nullptr, served, &out);

  // Reopen and replay: a fresh database over the (possibly compacted)
  // image and the WAL must hold exactly base + every acknowledged batch.
  db.reset();
  lpath::db::Database reopened(options);
  {
    Span span("db.OpenImage");
    Must(reopened.OpenImage(kName, image), "reopen image");
  }
  ++out.attempted;
  if (Info(reopened, kName).trees != static_cast<size_t>(trees)) {
    checker.RecordFailure("reopen: " +
                          std::to_string(Info(reopened, kName).trees) +
                          " trees, expected " + std::to_string(trees));
  }
  for (const std::string& text : texts) {
    ++out.attempted;
    Result<QueryResult> r = reopened.Query(kName, text);
    if (!r.ok()) {
      checker.RecordFailure("reopen: " + text + ": " + r.status().ToString());
    } else {
      checker.Record(text, std::move(r).value().hits, trees);
    }
  }

  Corpus reference_corpus =
      Generate(Profile::kWsj, kLiveBaseSentences, config.seed);
  for (int k = 0; k < batches; ++k) {
    reference_corpus.AppendFrom(
        Generate(Profile::kWsj, kBatchTrees, BatchSeed(config.seed, k)));
  }
  out.failed += checker.Verify(
      Reference(reference_corpus, checker.Texts(), &out.failed));
  AddEndToEnd(&out, q, ingest);
  if (config.trace) {
    AddIngestLayer(&out, served);
    AddStorage(&out, storage, served);
    FinishTraced(&out);
  }
  return out;
}

}  // namespace perfbench
