// Micro-benchmarks (google-benchmark): per-operation costs of the building
// blocks — space-filling curves, PEB key generation, B+-tree operations,
// buffer pool hits, policy compatibility, and end-to-end index updates.
//
// After the google-benchmark suite, these cells always run:
//  * "range-scan cell": a window-query batch against a Bx-tree (LeafCursor
//    scans, default interval coalescing), reporting its work counts.
//  * "pknn cell": a PkNN batch against a PEB-tree (cost-model-seeded
//    radius, exact annulus deltas, qsv-run coalescing), reporting its work
//    counts. They are deterministic, and CI gates page fetches and seek
//    descents at PEB_BENCH_SCALE=50.
//  * "telemetry overhead cell": the same service PRQ batch with
//    instruments on and off.
//  * "update interference cell": closed-loop PRQ latency while a paced
//    update stream lands concurrently on a delta-ingest engine, against
//    the same queries on the same engine after its deltas are merged.
//    Settled answers must equal a single PEB-tree loaded with the final
//    states; CI bounds the stream/settled p99 ratio and the number of
//    exclusive merge holds.
//  * "reopen cell": cold ShardedPebEngine::Open() of a checkpointed file
//    (superblock manifest + tree attach, no per-object work) vs a full
//    in-memory rebuild of the same dataset. Answers must be bit-identical
//    and CI fails when the cold open stops beating the rebuild.
// `--json <path>` records the cells in BENCH_micro.json so the reductions
// are part of the perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "btree/btree.h"
#include "engine/sharded_engine.h"
#include "peb/peb_tree.h"
#include "btree/btree_traits.h"
#include "bxtree/bxtree.h"
#include "common/rng.h"
#include "motion/uniform_generator.h"
#include "motion/update_stream.h"
#include "peb/peb_key.h"
#include "policy/compatibility.h"
#include "spatial/hilbert.h"
#include "spatial/zcurve.h"
#include "spatial/zrange.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "telemetry/metrics.h"

namespace peb {
namespace {

void BM_ZEncode(benchmark::State& state) {
  Rng rng(1);
  uint32_t x = static_cast<uint32_t>(rng.Next64());
  uint32_t y = static_cast<uint32_t>(rng.Next64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZEncode(x, y, 21));
    x += 7;
    y += 13;
  }
}
BENCHMARK(BM_ZEncode);

void BM_ZDecode(benchmark::State& state) {
  uint64_t z = 0x12345678ABCDull;
  uint32_t x, y;
  for (auto _ : state) {
    ZDecode(z, 21, &x, &y);
    benchmark::DoNotOptimize(x + y);
    z += 0x9E37;
  }
}
BENCHMARK(BM_ZDecode);

void BM_HilbertEncode(benchmark::State& state) {
  Rng rng(2);
  uint32_t x = static_cast<uint32_t>(rng.Next64()) & 0x1FFFFF;
  uint32_t y = static_cast<uint32_t>(rng.Next64()) & 0x1FFFFF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HilbertEncode(x, y, 21));
    x = (x + 7) & 0x1FFFFF;
    y = (y + 13) & 0x1FFFFF;
  }
}
BENCHMARK(BM_HilbertEncode);

void BM_WindowDecomposition(benchmark::State& state) {
  GridMapper grid(1000.0, 10);
  Rect window{{300, 300}, {300.0 + static_cast<double>(state.range(0)),
               300.0 + static_cast<double>(state.range(0))}};
  ZRangeOptions opts;
  opts.max_intervals = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZIntervalsForWindow(grid, window, opts));
  }
}
BENCHMARK(BM_WindowDecomposition)->Arg(100)->Arg(300)->Arg(600);

void BM_PebKeyGeneration(benchmark::State& state) {
  PebKeyLayout layout;
  Rng rng(3);
  uint32_t partition = 1;
  for (auto _ : state) {
    uint32_t qsv = static_cast<uint32_t>(rng.Next64() & 0x3FFFFFF);
    uint64_t zv = rng.Next64() & 0xFFFFF;
    benchmark::DoNotOptimize(layout.MakeKey(partition, qsv, zv));
  }
}
BENCHMARK(BM_PebKeyGeneration);

void BM_BTreeInsert(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{1024});
  BTree<U64Traits> tree(&pool);
  Rng rng(4);
  for (auto _ : state) {
    (void)tree.Insert(rng.Next64(), 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookupHit(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{1024});
  BTree<U64Traits> tree(&pool);
  Rng fill(5);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 100000; ++i) {
    uint64_t k = fill.Next64();
    if (tree.Insert(k, 1).ok()) keys.push_back(k);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(keys[i % keys.size()]));
    i += 7919;
  }
}
BENCHMARK(BM_BTreeLookupHit);

void BM_BufferPoolHit(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  auto page = pool.NewPage();
  PageId id = page->id();
  page->Release();
  for (auto _ : state) {
    auto g = pool.FetchPage(id);
    benchmark::DoNotOptimize(g->page());
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_CompatibilityScore(benchmark::State& state) {
  Lpp a, b;
  a.role = b.role = 1;
  a.locr = {{100, 100}, {600, 700}};
  a.tint = {480, 1020};
  b.locr = {{300, 50}, {900, 500}};
  b.tint = {300, 800};
  CompatibilityOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CompatibilityFromAlpha(ComputeAlpha({&a, 1}, {&b, 1}, opts)));
  }
}
BENCHMARK(BM_CompatibilityScore);

void BM_BxTreeUpdate(benchmark::State& state) {
  UniformGeneratorOptions gen;
  gen.num_objects = 20000;
  gen.stagger_window = 120.0;
  gen.seed = 6;
  Dataset ds = GenerateUniformDataset(gen);
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{256});
  MovingIndexOptions opt;
  BxTree tree(&pool, opt);
  for (const auto& o : ds.objects) (void)tree.Insert(o);
  Rng rng(7);
  Timestamp t = 120.0;
  for (auto _ : state) {
    UserId id = static_cast<UserId>(rng.NextBelow(ds.objects.size()));
    MovingObject o = ds.objects[id];
    t += 0.001;
    o.pos = o.PositionAt(t);
    o.tu = t;
    (void)tree.Update(o);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BxTreeUpdate);

}  // namespace

// ---------------------------------------------------------------------------
// Range-scan cell: Bx window batch over LeafCursor scans
// ---------------------------------------------------------------------------

namespace {

/// Work counts of one query batch.
struct CellResult {
  IoStats io;
  double wall_ms = 0.0;
  uint64_t probes = 0;
  uint64_t descents = 0;
  uint64_t leaf_hops = 0;
  uint64_t candidates = 0;
  uint64_t rounds = 0;

  void Add(const QueryCounters& c) {
    probes += c.range_probes;
    descents += c.seek_descents;
    leaf_hops += c.leaf_hops;
    candidates += c.candidates_examined;
    rounds += c.rounds;
  }
};

eval::Json ToJson(const CellResult& r) {
  return eval::Json::Object()
      .Set("io", eval::ToJson(r.io))
      .Set("wall_ms", r.wall_ms)
      .Set("range_probes", r.probes)
      .Set("seek_descents", r.descents)
      .Set("leaf_hops", r.leaf_hops)
      .Set("candidates_examined", r.candidates)
      .Set("rounds", r.rounds);
}

}  // namespace

eval::Json RunAndReportScanCell() {
  size_t num_objects = eval::Scaled(60000, 5000);
  size_t num_queries = eval::Scaled(200, 20);
  UniformGeneratorOptions gen;
  gen.num_objects = num_objects;
  gen.stagger_window = 120.0;
  gen.seed = 42;
  Dataset ds = GenerateUniformDataset(gen);

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{50});  // Paper's buffer budget.
  BxTree tree(&pool, MovingIndexOptions{});
  for (const auto& o : ds.objects) (void)tree.Insert(o);

  CellResult r;
  Rng rng(9);
  Timestamp tq = 120.0;
  pool.ResetStats();
  auto t0 = std::chrono::steady_clock::now();
  for (size_t q = 0; q < num_queries; ++q) {
    Point center{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    Rect window = Rect::CenteredSquare(center, 200.0)
                      .ClampedTo(Rect::Space(1000.0));
    auto res = tree.RangeQuery(window, tq);
    if (!res.ok()) continue;
    r.Add(tree.last_query());
  }
  auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.io = pool.stats();

  std::cout << "\n--- range-scan cell (Bx window batch, " << num_objects
            << " objects, " << num_queries << " queries) ---\n"
            << r.io.logical_fetches << " fetches, " << r.io.physical_reads
            << " reads, " << r.probes << " probes (" << r.descents
            << " descents + " << r.leaf_hops << " hops), "
            << eval::Fmt(r.wall_ms) << " ms\n";

  return eval::Json::Object()
      .Set("num_objects", static_cast<uint64_t>(num_objects))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("window_side", 200.0)
      .Set("buffer_pages", 50)
      .Set("fastpath", ToJson(r));
}

// ---------------------------------------------------------------------------
// PkNN cell: PEB PkNN batch on a single tree
// ---------------------------------------------------------------------------

eval::Json RunAndReportPknnCell() {
  eval::WorkloadParams p;  // Table 1 defaults.
  p.num_users = eval::Scaled(60000, 1000);
  size_t num_queries = eval::Scaled(200, 20);
  eval::Workload w = eval::Workload::Build(p);
  eval::QuerySetOptions q;
  q.count = num_queries;
  auto queries = eval::MakePknnQueries(w, q);

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{50});  // Paper's buffer budget.
  PebTree tree(&pool, eval::PebOptionsFor(w.params()), &w.store(), &w.roles(),
               &w.encoding());
  for (const auto& o : w.dataset().objects) (void)tree.Insert(o);

  CellResult r;
  pool.ResetStats();
  auto t0 = std::chrono::steady_clock::now();
  for (const auto& query : queries) {
    QueryStats stats;
    auto res = tree.KnnQueryWithStats(query.issuer, query.qloc, query.k,
                                      query.tq, &stats);
    if (!res.ok()) {
      std::cerr << "pknn cell query failed: " << res.status().ToString()
                << "\n";
      std::abort();
    }
    r.Add(stats.counters);
  }
  auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.io = pool.stats();

  std::cout << "\n--- pknn cell (PEB PkNN batch, " << p.num_users
            << " users, " << num_queries << " queries) ---\n"
            << r.io.logical_fetches << " fetches, " << r.io.physical_reads
            << " reads, " << r.probes << " probes, " << r.descents
            << " descents, "
            << eval::Fmt(static_cast<double>(r.rounds) /
                         static_cast<double>(queries.size()))
            << " rounds/query, " << eval::Fmt(r.wall_ms) << " ms\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("k", static_cast<uint64_t>(q.k))
      .Set("buffer_pages", 50)
      .Set("incremental", ToJson(r));
}

// ---------------------------------------------------------------------------
// A/B telemetry-overhead cell: instrumented vs disabled service PRQ batch
// ---------------------------------------------------------------------------

namespace {

/// Wall-clock of one PRQ batch through `svc` (every response checked).
double RunTelemetryPrqBatch(service::MovingObjectService& svc,
                            const std::vector<eval::PrqQuery>& queries) {
  auto t0 = std::chrono::steady_clock::now();
  for (const auto& q : queries) {
    service::QueryResponse resp = svc.Execute(
        service::QueryRequest::Prq(q.issuer, q.range, q.tq));
    if (!resp.ok()) {
      std::cerr << "telemetry cell query failed: " << resp.status.ToString()
                << "\n";
      std::abort();
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

/// Measures the telemetry hot-path tax: the same PRQ batch against two
/// identical 4-shard engine services, one fully instrumented (private
/// registry, metrics on), one with TelemetryOptions::Disabled(). Reps
/// alternate sides and the minimum per side is compared, so scheduler
/// noise cancels; CI gates overhead_pct at 2%.
eval::Json RunAndReportTelemetryOverheadCell() {
  eval::WorkloadParams p;  // Table 1 defaults.
  p.num_users = eval::Scaled(40000, 1000);
  size_t num_queries = eval::Scaled(300, 30);
  eval::Workload w = eval::Workload::Build(p);
  eval::QuerySetOptions q;
  q.count = num_queries;
  q.seed = 77;
  auto queries = eval::MakePrqQueries(w, q);

  telemetry::MetricsRegistry registry;  // Private: the cell stays self-contained.
  telemetry::TelemetryOptions on;
  on.registry = &registry;

  // Inline execution (0 engine threads, 0 workers) keeps both sides
  // deterministic: the cell measures instrumentation cost, not scheduling.
  auto engine_on = eval::MakeEngine(w, 4, 0, engine::RouterPolicy::kHashUser,
                                    on);
  auto engine_off = eval::MakeEngine(w, 4, 0, engine::RouterPolicy::kHashUser,
                                     telemetry::TelemetryOptions::Disabled());
  service::ServiceOptions svc_on_opts;
  svc_on_opts.time_domain = p.time_domain;
  svc_on_opts.telemetry = on;
  service::ServiceOptions svc_off_opts;
  svc_off_opts.time_domain = p.time_domain;
  svc_off_opts.telemetry = telemetry::TelemetryOptions::Disabled();
  service::MovingObjectService svc_on(engine_on.get(), &w.store(), &w.roles(),
                                      &w.encoding(), svc_on_opts);
  service::MovingObjectService svc_off(engine_off.get(), &w.store(),
                                       &w.roles(), &w.encoding(),
                                       svc_off_opts);

  constexpr int kReps = 5;
  double best_on = 0.0, best_off = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    double off_ms = RunTelemetryPrqBatch(svc_off, queries);
    double on_ms = RunTelemetryPrqBatch(svc_on, queries);
    if (rep == 0 || off_ms < best_off) best_off = off_ms;
    if (rep == 0 || on_ms < best_on) best_on = on_ms;
  }
  double overhead_pct =
      best_off > 0.0 ? (best_on / best_off - 1.0) * 100.0 : 0.0;

  std::cout << "\n--- telemetry overhead cell (4-shard engine service, "
            << p.num_users << " users, " << num_queries
            << " PRQ/batch, min of " << kReps << ") ---\n"
            << "disabled    : " << eval::Fmt(best_off) << " ms\n"
            << "instrumented: " << eval::Fmt(best_on) << " ms\n"
            << "overhead    : " << eval::Fmt(overhead_pct, 2) << "%\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("reps", static_cast<uint64_t>(kReps))
      .Set("disabled_ms", best_off)
      .Set("instrumented_ms", best_on)
      .Set("overhead_pct", overhead_pct);
}

// ---------------------------------------------------------------------------
// Update-interference cell: query latency under a concurrent update stream
// ---------------------------------------------------------------------------

namespace {

/// Per-shard delta merge threshold. With 4 shards and 2048-event batches
/// each shard buffers ~512 records per batch, so a merge fires roughly
/// every 4th batch — most batches publish without any exclusive section at
/// all, and every merge dedups to at most one tree update per user.
constexpr size_t kInterferenceMergeThreshold = 2048;
constexpr size_t kInterferenceShards = 4;
/// Passes of the query set timed on the settled engine: enough samples
/// for a p99 that is not just the slowest query.
constexpr size_t kSettledReps = 5;

eval::Json ToJson(const telemetry::Histogram::Snapshot& query_ms,
                  uint64_t queries) {
  return eval::Json::Object()
      .Set("query_p50_ms", query_ms.p50)
      .Set("query_p99_ms", query_ms.p99)
      .Set("query_max_ms", query_ms.max)
      .Set("queries", queries);
}

/// Runs the PRQ set once, recording each query's wall time into `hist`
/// (when given) and returning the answers.
std::vector<std::vector<UserId>> RunTimedPrqPass(
    engine::ShardedPebEngine& engine,
    const std::vector<eval::PrqQuery>& queries, telemetry::Histogram* hist) {
  std::vector<std::vector<UserId>> answers;
  answers.reserve(queries.size());
  for (const auto& q : queries) {
    auto t0 = std::chrono::steady_clock::now();
    auto res = engine.RangeQueryWithStats(q.issuer, q.range, q.tq,
                                          /*stats=*/nullptr);
    auto t1 = std::chrono::steady_clock::now();
    if (!res.ok()) {
      std::cerr << "interference cell query failed: "
                << res.status().ToString() << "\n";
      std::abort();
    }
    if (hist != nullptr) {
      hist->Record(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    answers.push_back(std::move(*res));
  }
  return answers;
}

}  // namespace

/// Closed-loop PRQ latency while a paced update stream lands concurrently
/// on a delta-ingest engine (watermark-published appends off the query
/// path, bounded threshold merges), then the same queries on the same
/// engine once every batch is applied and the deltas are merged. The
/// settled answers must equal a single PEB-tree loaded with the final
/// object states. CI gates (a) stream p99 <= 8x settled p99 and (b)
/// exclusive merge holds <= total_events / merge_threshold + num_shards.
eval::Json RunAndReportUpdateInterferenceCell() {
  eval::WorkloadParams p;  // Table 1 defaults except population: a denser
  p.num_users = eval::Scaled(4000, 500);  // update stream exercises dedup.
  const eval::Workload w = eval::Workload::Build(p);

  constexpr size_t kBatchEvents = 2048;
  size_t num_batches = eval::Scaled(160, 40);
  auto stream = eval::CloneUniformUpdateStream(w);
  std::vector<std::vector<UpdateEvent>> batches(num_batches);
  for (auto& b : batches) {
    b.reserve(kBatchEvents);
    for (size_t i = 0; i < kBatchEvents; ++i) b.push_back(stream->Next());
  }
  const size_t total_events = num_batches * kBatchEvents;

  eval::QuerySetOptions q;
  q.count = eval::Scaled(200, 40);
  q.seed = 123;
  auto queries = eval::MakePrqQueries(w, q);
  // The query loop reruns the set until the writer drains the stream, so
  // the measurement covers the full update schedule; the bounds only
  // protect against degenerate scheduling.
  constexpr size_t kMinReps = 2;
  constexpr size_t kMaxReps = 2000;

  telemetry::MetricsRegistry registry;  // Private to this cell.
  engine::EngineOptions opts;
  opts.num_shards = kInterferenceShards;
  opts.num_threads = 0;  // Inline shard tasks: latency is the caller's own.
  opts.buffer_pages = w.params().buffer_pages;
  opts.tree = eval::PebOptionsFor(w.params());
  opts.delta.merge_threshold = kInterferenceMergeThreshold;
  opts.telemetry.registry = &registry;
  engine::ShardedPebEngine engine(opts, &w.store(), &w.roles(),
                                  w.catalog().snapshot());
  Status load = engine.LoadDataset(w.dataset());
  if (!load.ok()) {
    std::cerr << "interference cell load failed: " << load.ToString() << "\n";
    std::abort();
  }

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> applied{0};
  std::thread writer([&] {
    for (const auto& batch : batches) {
      Status st = engine.ApplyBatch(batch);
      if (!st.ok()) {
        std::cerr << "interference cell batch failed: " << st.ToString()
                  << "\n";
        std::abort();
      }
      applied.fetch_add(1, std::memory_order_relaxed);
      // Paced, not saturating: the cell models a sustained update feed,
      // not a bulk load — the interference under test is the engine-wide
      // exclusive merge section, not writer CPU.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    writer_done.store(true, std::memory_order_relaxed);
  });

  telemetry::Histogram stream_hist;
  uint64_t stream_queries = 0;
  for (size_t rep = 0;
       rep < kMaxReps &&
       (rep < kMinReps || !writer_done.load(std::memory_order_relaxed));
       ++rep) {
    (void)RunTimedPrqPass(engine, queries, &stream_hist);
    stream_queries += queries.size();
  }
  const size_t batches_during_queries =
      applied.load(std::memory_order_relaxed);
  writer.join();

  // Snapshot the merge holds before the settle below so the readout covers
  // exactly the contended window.
  const telemetry::Histogram::Snapshot lock_hold =
      registry.histogram("engine.merge.lock_hold_ms")->Snap();
  const telemetry::Histogram::Snapshot stream_ms = stream_hist.Snap();

  Status settle = engine.MergeDeltas();
  if (!settle.ok()) {
    std::cerr << "interference cell settle failed: " << settle.ToString()
              << "\n";
    std::abort();
  }
  telemetry::Histogram settled_hist;
  std::vector<std::vector<UserId>> settled;
  for (size_t rep = 0; rep < kSettledReps; ++rep) {
    settled = RunTimedPrqPass(engine, queries, &settled_hist);
  }
  const telemetry::Histogram::Snapshot settled_ms = settled_hist.Snap();

  // Oracle: one PEB-tree loaded with every user's final state.
  std::vector<MovingObject> final_states = w.dataset().objects;
  for (const auto& batch : batches) {
    for (const UpdateEvent& ev : batch) final_states[ev.state.id] = ev.state;
  }
  InMemoryDiskManager oracle_disk;
  BufferPool oracle_pool(&oracle_disk,
                         BufferPoolOptions{w.params().buffer_pages});
  PebTree oracle(&oracle_pool, eval::PebOptionsFor(w.params()), &w.store(),
                 &w.roles(), w.catalog().snapshot());
  for (const MovingObject& o : final_states) (void)oracle.Insert(o);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto want = oracle.RangeQuery(queries[i].issuer, queries[i].range,
                                  queries[i].tq);
    if (!want.ok() || *want != settled[i]) {
      std::cerr << "interference cell mismatch at query " << i << "\n";
      std::abort();
    }
  }

  const double p99_ratio =
      settled_ms.p99 > 0.0 ? stream_ms.p99 / settled_ms.p99 : 0.0;
  const uint64_t lock_hold_bound =
      total_events / kInterferenceMergeThreshold + kInterferenceShards;

  std::cout << "\n--- update interference cell (" << p.num_users << " users, "
            << num_batches << " x " << kBatchEvents << "-event batches, "
            << queries.size() << "-PRQ closed loop) ---\n"
            << "under stream: query p50 " << eval::Fmt(stream_ms.p50, 3)
            << " / p99 " << eval::Fmt(stream_ms.p99, 3) << " / max "
            << eval::Fmt(stream_ms.max, 3) << " ms over " << stream_queries
            << " queries (" << batches_during_queries << " batches landed)\n"
            << "settled     : query p50 " << eval::Fmt(settled_ms.p50, 3)
            << " / p99 " << eval::Fmt(settled_ms.p99, 3) << " / max "
            << eval::Fmt(settled_ms.max, 3) << " ms\n"
            << "merge holds : " << lock_hold.count << " (bound "
            << lock_hold_bound << "), p99 " << eval::Fmt(lock_hold.p99, 3)
            << " ms\n"
            << "settled answers match the single-tree oracle; p99 ratio "
            << eval::Fmt(p99_ratio) << "x\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("batch_events", static_cast<uint64_t>(kBatchEvents))
      .Set("num_batches", static_cast<uint64_t>(num_batches))
      .Set("total_events", static_cast<uint64_t>(total_events))
      .Set("num_shards", static_cast<uint64_t>(kInterferenceShards))
      .Set("query_set", static_cast<uint64_t>(queries.size()))
      .Set("merge_threshold",
           static_cast<uint64_t>(kInterferenceMergeThreshold))
      .Set("stream", ToJson(stream_ms, stream_queries)
                         .Set("batches_during_queries",
                              static_cast<uint64_t>(batches_during_queries)))
      .Set("settled", ToJson(settled_ms, kSettledReps * queries.size()))
      .Set("lock_hold_count", lock_hold.count)
      .Set("lock_hold_p99_ms", lock_hold.p99)
      .Set("lock_hold_max_ms", lock_hold.max)
      .Set("lock_hold_bound", lock_hold_bound)
      .Set("query_p99_ratio", p99_ratio);
}

// ---------------------------------------------------------------------------
// A/B reopen cell: cold Open() from superblock + WAL vs full rebuild
// ---------------------------------------------------------------------------

namespace {

std::vector<std::vector<UserId>> RunReopenPrqBatch(
    engine::ShardedPebEngine& engine,
    const std::vector<eval::PrqQuery>& queries) {
  std::vector<std::vector<UserId>> answers;
  answers.reserve(queries.size());
  for (const auto& q : queries) {
    auto res = engine.RangeQuery(q.issuer, q.range, q.tq);
    if (!res.ok()) {
      std::cerr << "reopen cell query failed: " << res.status().ToString()
                << "\n";
      std::abort();
    }
    std::vector<UserId> ans = std::move(*res);
    std::sort(ans.begin(), ans.end());
    answers.push_back(std::move(ans));
  }
  return answers;
}

}  // namespace

/// Times bringing an index back after a clean shutdown: Open() re-attaches
/// the shard trees to the checkpointed file (superblock roots, empty WAL —
/// no tree rebuild) vs constructing a fresh engine and re-inserting the
/// whole dataset. Both must answer the PRQ sample bit-identically; CI
/// fails when the cold open stops beating the rebuild.
eval::Json RunAndReportReopenCell() {
  eval::WorkloadParams p;  // Table 1 defaults.
  p.num_users = eval::Scaled(40000, 2000);
  size_t num_queries = eval::Scaled(100, 20);
  const eval::Workload w = eval::Workload::Build(p);
  eval::QuerySetOptions q;
  q.count = num_queries;
  q.seed = 55;
  auto queries = eval::MakePrqQueries(w, q);

  const std::string path = "bench_reopen_cell.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 0;
  opts.buffer_pages = p.buffer_pages;
  opts.tree = eval::PebOptionsFor(p);
  opts.durability.path = path;
  opts.durability.checkpoint_on_close = true;

  // Seed the durable file: load, checkpoint on close.
  std::vector<std::vector<UserId>> want;
  {
    engine::ShardedPebEngine engine(opts, &w.store(), &w.roles(),
                                    w.catalog().snapshot());
    Status load = engine.LoadDataset(w.dataset());
    if (!load.ok()) {
      std::cerr << "reopen cell load failed: " << load.ToString() << "\n";
      std::abort();
    }
    want = RunReopenPrqBatch(engine, queries);
  }

  // Cold open: superblock manifest + attach, no per-object work.
  auto t0 = std::chrono::steady_clock::now();
  auto reopened = engine::ShardedPebEngine::Open(opts, &w.store(), &w.roles(),
                                                 w.catalog().snapshot());
  auto t1 = std::chrono::steady_clock::now();
  if (!reopened.ok()) {
    std::cerr << "reopen cell open failed: " << reopened.status().ToString()
              << "\n";
    std::abort();
  }
  double open_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  auto got_open = RunReopenPrqBatch(**reopened, queries);
  reopened->reset();

  // Full rebuild: fresh in-memory engine, every object re-inserted.
  engine::EngineOptions mem_opts = opts;
  mem_opts.durability = {};
  t0 = std::chrono::steady_clock::now();
  engine::ShardedPebEngine rebuilt(mem_opts, &w.store(), &w.roles(),
                                   w.catalog().snapshot());
  Status load = rebuilt.LoadDataset(w.dataset());
  t1 = std::chrono::steady_clock::now();
  if (!load.ok()) {
    std::cerr << "reopen cell rebuild failed: " << load.ToString() << "\n";
    std::abort();
  }
  double rebuild_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  auto got_rebuild = RunReopenPrqBatch(rebuilt, queries);

  for (size_t i = 0; i < queries.size(); ++i) {
    if (want[i] != got_open[i] || want[i] != got_rebuild[i]) {
      std::cerr << "reopen cell mismatch at query " << i << "\n";
      std::abort();
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  double speedup = open_ms > 0.0 ? rebuild_ms / open_ms : 0.0;
  std::cout << "\n--- reopen cell (" << p.num_users
            << " users, clean-shutdown file, " << num_queries
            << "-PRQ equivalence sample) ---\n"
            << "cold open   : " << eval::Fmt(open_ms) << " ms\n"
            << "full rebuild: " << eval::Fmt(rebuild_ms) << " ms\n"
            << "answers bit-identical; speedup " << eval::Fmt(speedup)
            << "x\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("open_ms", open_ms)
      .Set("rebuild_ms", rebuild_ms)
      .Set("speedup", speedup);
}

}  // namespace peb

int main(int argc, char** argv) {
  // Strip --json <path> before google-benchmark sees the arguments.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  peb::eval::Json range_cell = peb::RunAndReportScanCell();
  peb::eval::Json pknn_cell = peb::RunAndReportPknnCell();
  peb::eval::Json telemetry_cell = peb::RunAndReportTelemetryOverheadCell();
  peb::eval::Json interference_cell =
      peb::RunAndReportUpdateInterferenceCell();
  peb::eval::Json reopen_cell = peb::RunAndReportReopenCell();
  if (!json_path.empty()) {
    peb::eval::Json doc =
        peb::eval::Json::Object()
            .Set("bench", "micro")
            .Set("scale", peb::eval::BenchScale())
            .Set("range_scan_cell", std::move(range_cell))
            .Set("pknn_cell", std::move(pknn_cell))
            .Set("telemetry_overhead_cell", std::move(telemetry_cell))
            .Set("update_interference_cell", std::move(interference_cell))
            .Set("reopen_cell", std::move(reopen_cell));
    if (doc.WriteTo(json_path)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return 0;
}
