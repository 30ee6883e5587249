// The traced run: every per-layer metric, each measured on the workload the
// prediction table in README.md names. The profile is the same whatever
// --workload says.
//
// Read path (read_paper's data, engine and queries; one client issuing one
// request at a time, so the counts repeat exactly): every query runs
// through successively thicker stacks, one pass per stack:
//   1. the workload's single PebTree (its own 50-frame pool),
//   2. the engine's per-shard trees, called directly (shard_tree(i).
//      RangeQueryAmong / KnnQueryAmong, friends split by router().ShardOf),
//   3. the engine's ...WithStats calls,
//   4. service Execute, run twice per query, with and without recording
//      its span (the difference is the tracing overhead).
// The single tree runs as its own pass; stacks 2-4 run back to back on each
// query in a rotating order. A layer's self time is the mean difference
// between consecutive stacks on the same query.
//
// Write path: mixed_durable's traffic and then ingest_durable's writer on
// one durable engine, with spans around ApplyBatch, Checkpoint, the policy
// flush and every Submit-to-completion, followed by the durability check.
#include <algorithm>

#include "bench.h"
#include "costmodel/cost_model.h"
#include "peb/peb_tree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "telemetry/metrics.h"

namespace perfbench {

namespace {

constexpr size_t kTracedPairs = 500;  // 1000 queries through every stack.

/// One stack's per-query wall time, counters and pool traffic.
struct Pass {
  Samples us;  ///< One per query, in query order.
  std::vector<QueryStats> stats;
  uint64_t wrong = 0;
};

/// Runs `call` on query i, timing it and, when `spans` is set, recording a
/// span for it.
template <typename Call>
void TimeOne(Pass* pass, size_t i, const std::vector<QuerySpec>& qs,
             const std::vector<Answer>& truth, const char* layer,
             SpanLog* spans, Call& call) {
  QueryStats stats;
  auto t0 = Clock::now();
  Answer a = call(qs[i], &stats);
  auto t1 = Clock::now();
  if (spans != nullptr) spans->Add(i, layer, t0, t1);
  pass->us.Add(MsBetween(t0, t1) * 1000.0);
  pass->stats.push_back(stats);
  if (!SameAnswer(qs[i], a, truth[i])) ++pass->wrong;
}

void Account(const Pass& pass, const char* layer, Report* report) {
  report->Count(pass.us.count(), pass.wrong);
  if (pass.wrong > 0) {
    report->Wrong(std::string(layer) + ": " + std::to_string(pass.wrong) +
                  " answers differ from brute force");
  }
}

/// One pass of `call` over every query.
template <typename Call>
Pass RunPass(const std::vector<QuerySpec>& qs, const std::vector<Answer>& truth,
             const char* layer, SpanLog* spans, Report* report, Call call) {
  Pass pass;
  for (size_t i = 0; i < qs.size(); ++i) {
    TimeOne(&pass, i, qs, truth, layer, spans, call);
  }
  Account(pass, layer, report);
  return pass;
}

/// Per-query wall-time difference of two stacks (PRQs only, or all).
Samples Diff(const Pass& outer, const Pass& inner,
             const std::vector<QuerySpec>& qs, bool prq_only) {
  Samples d;
  for (size_t i = 0; i < qs.size(); ++i) {
    if (prq_only && qs[i].knn) continue;
    d.Add(outer.us[i] - inner.us[i]);
  }
  return d;
}

Answer ViaIndex(PrivacyAwareIndex& index, const QuerySpec& q,
                QueryStats* stats) {
  Answer a;
  if (q.knn) {
    auto r = index.KnnQueryWithStats(q.issuer, q.qloc, q.k, q.tq, stats);
    if (r.ok()) a.neighbors = *r;
  } else {
    auto r = index.RangeQueryWithStats(q.issuer, q.range, q.tq, stats);
    if (r.ok()) a.ids = *r;
  }
  return a;
}

/// Stack 2: the engine's shard trees called one after the other, each with
/// the issuer's friends that shard hosts.
Answer ViaShards(engine::ShardedPebEngine& engine,
                 const EncodingSnapshot& snapshot, const QuerySpec& q,
                 QueryStats* stats) {
  std::vector<std::vector<FriendEntry>> per_shard(engine.num_shards());
  for (const FriendEntry& f : snapshot.FriendsOf(q.issuer)) {
    per_shard[engine.router().ShardOf(f.uid)].push_back(f);
  }
  Answer a;
  SharedScanCache cache;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].empty()) continue;
    QueryCounters counters;
    if (q.knn) {
      auto r = engine.shard_tree(s).KnnQueryAmong(q.issuer, q.qloc, q.k, q.tq,
                                                  per_shard[s], &counters);
      if (r.ok()) {
        a.neighbors.insert(a.neighbors.end(), r->begin(), r->end());
      }
    } else {
      auto r = engine.shard_tree(s).RangeQueryAmong(
          q.issuer, q.range, q.tq, per_shard[s], &cache, &counters);
      if (r.ok()) a.ids.insert(a.ids.end(), r->begin(), r->end());
    }
    stats->counters += counters;
  }
  std::sort(a.ids.begin(), a.ids.end());
  std::sort(a.neighbors.begin(), a.neighbors.end(),
            [](const Neighbor& x, const Neighbor& y) {
              if (x.distance != y.distance) return x.distance < y.distance;
              return x.uid < y.uid;
            });
  if (a.neighbors.size() > q.k) a.neighbors.resize(q.k);
  return a;
}

/// The read-path layers: stacks 1-4 and the untraced repeat of 4.
void ProfileReads(System& sys, const Population& pop, SpanLog* spans,
                  Report* report) {
  auto svc = MakeService(sys, pop, 0);
  // The single PebTree of the paper, on its own 50-frame pool.
  InMemoryDiskManager disk;
  BufferPoolOptions po;
  po.capacity = pop.params.buffer_pages;
  BufferPool pool(&disk, po);
  PebTree tree(&pool, eval::PebOptionsFor(pop.params), &sys.catalog->store(),
               &sys.catalog->roles(), sys.catalog->snapshot());
  for (const MovingObject& o : pop.dataset.objects) {
    CheckOk(tree.Insert(o), "PebTree insert");
  }

  const Timestamp tq = pop.params.delta_t_mu;
  std::vector<QuerySpec> qs =
      MakeQueries(pop, pop.dataset, kTracedPairs, tq, /*salt=*/0x9EAD);
  std::vector<Answer> truth =
      BruteForceAll(qs, pop.dataset, sys.catalog->store(), sys.catalog->roles(),
                    pop.params.time_domain, std::min<size_t>(4, Nproc()));

  engine::ShardedPebEngine& engine = *sys.engine;
  auto snapshot = sys.catalog->snapshot();
  auto tree_call = [&](const QuerySpec& q, QueryStats* st) {
    return ViaIndex(tree, q, st);
  };
  auto shard_call = [&](const QuerySpec& q, QueryStats* st) {
    return ViaShards(engine, *snapshot, q, st);
  };
  auto engine_call = [&](const QuerySpec& q, QueryStats* st) {
    return ViaIndex(engine, q, st);
  };
  auto service_call = [&](const QuerySpec& q, QueryStats* st) {
    service::QueryResponse r = svc->Execute(q.Request());
    st->counters = r.counters;
    st->io = r.io;
    return AnswerOf(r);
  };
  // Warm both pools to their steady state, untimed.
  RunPass(qs, truth, "warm.tree", nullptr, report, tree_call);
  RunPass(qs, truth, "warm.service", nullptr, report, service_call);

  Pass p_tree = RunPass(qs, truth, "peb.PebTree", spans, report, tree_call);
  // Stacks 2-4 and the untraced stack 4 share the engine's pool, so each
  // query runs through all four back to back, in an order that rotates
  // (forwards, then backwards) from query to query. A stack gains from the
  // pages the one before it left in the pool; over the orders, every stack
  // precedes and follows every other equally often, so self times, taken
  // as mean differences, do not carry that gain.
  Pass p_shards, p_engine, p_service, p_plain;
  for (size_t i = 0; i < qs.size(); ++i) {
    const size_t start = i % 4;
    const bool backwards = (i / 4) % 2 == 1;
    for (size_t k = 0; k < 4; ++k) {
      switch (backwards ? (start + 4 - k) % 4 : (start + k) % 4) {
        case 0:
          TimeOne(&p_shards, i, qs, truth, "peb.shard_trees", spans,
                  shard_call);
          break;
        case 1:
          TimeOne(&p_engine, i, qs, truth, "engine.WithStats", spans,
                  engine_call);
          break;
        case 2:
          TimeOne(&p_service, i, qs, truth, "service.Execute", spans,
                  service_call);
          break;
        default:
          TimeOne(&p_plain, i, qs, truth, "untraced", nullptr, service_call);
          break;
      }
    }
  }
  Account(p_shards, "peb.shard_trees", report);
  Account(p_engine, "engine.WithStats", report);
  Account(p_service, "service.Execute", report);
  Account(p_plain, "untraced", report);

  Samples tree_prq, tree_knn;
  for (size_t i = 0; i < qs.size(); ++i) {
    (qs[i].knn ? tree_knn : tree_prq).Add(p_tree.us[i]);
  }
  report->Metric("service.self_us", Diff(p_service, p_engine, qs, false).Mean(),
                 "us", qs.size());
  report->Metric("engine.self_us", Diff(p_engine, p_shards, qs, true).Mean(),
                 "us", qs.size() / 2);
  report->Metric("engine.vs_tree", p_engine.us.Sum() / p_tree.us.Sum(), "ratio",
                 qs.size());
  report->Metric("peb.prq_us", tree_prq.Percentile(50), "us", tree_prq.count());
  report->Metric("peb.pknn_us", tree_knn.Percentile(50), "us",
                 tree_knn.count());

  // Work counts come from the engine stack (the production read path).
  QueryCounters c;
  IoStats io;
  double knn_rounds = 0.0;
  for (size_t i = 0; i < qs.size(); ++i) {
    c += p_engine.stats[i].counters;
    io += p_engine.stats[i].io;
    if (qs[i].knn) knn_rounds += p_engine.stats[i].counters.rounds;
  }
  const double n = static_cast<double>(qs.size());
  report->Metric("peb.range_probes", c.range_probes / n, "probes/query");
  report->Metric("peb.candidates_examined", c.candidates_examined / n,
                 "entries/query");
  report->Metric("peb.verify_yield",
                 static_cast<double>(c.results) / c.candidates_examined,
                 "ratio");
  report->Metric("peb.knn_rounds", knn_rounds / (n / 2), "rounds/query");
  report->Metric("btree.seek_descents", c.seek_descents / n, "descents/query");
  report->Metric("btree.leaf_hops", c.leaf_hops / n, "hops/query");
  report->Metric("btree.fetches_per_probe",
                 static_cast<double>(io.logical_fetches) / c.range_probes,
                 "pages/probe");
  report->Metric("storage.hit_ratio", io.HitRatio(), "ratio");
  report->Metric("storage.evictions_per_query", io.evictions / n,
                 "pages/query");
  report->Metric("storage.reads_per_query", io.physical_reads / n,
                 "pages/query");

  // Equation 7 with the paper's uniform-data constants (a1 = 10, a2 = 0.3)
  // against the single tree's measured PRQ reads.
  double prq_reads = 0.0;
  for (size_t i = 0; i < qs.size(); ++i) {
    if (!qs[i].knn) prq_reads += p_tree.stats[i].io.physical_reads;
  }
  CostModelInputs in;
  in.num_users = pop.params.num_users;
  in.policies_per_user = pop.params.policies_per_user;
  in.grouping_factor = pop.params.grouping_factor;
  in.num_leaves = tree.tree_stats().num_leaves;
  in.space_side = pop.params.space_side;
  const double predicted = CostModel(10.0, 0.3).EstimateIo(in);
  report->Metric("costmodel.prq_io_ratio", prq_reads / (n / 2) / predicted,
                 "ratio");
  report->Meta("costmodel_predicted_prq_reads", predicted);

  report->Metric("trace.overhead_pct",
                 100.0 * (p_service.us.Sum() - p_plain.us.Sum()) /
                     p_plain.us.Sum(),
                 "%");
}

}  // namespace

void RunLayers(const Args& args, Report* report) {
  auto pop = MakePopulation(args.seed);
  DescribeRun(args, *pop, report);
  report->Meta("profile", "read stacks on read_paper; mixed_durable traffic "
                          "and ingest_durable writer on one durable engine");
  SpanLog spans;

  double setup_s = 0.0;
  System sys = SetUp(pop.get(), Deployment{50, ""}, 1, &setup_s);
  ProfileReads(sys, *pop, &spans, report);

  // --- write path ---------------------------------------------------------
  BuildEngine(&sys, *pop, Deployment{4096, args.workdir + "/layers.db"});
  Stream st(*pop, args.seed);
  PreRoll(sys, *pop, &st);
  CloseAndReopen(&sys);
  auto svc = MakeService(sys, *pop, 2);
  // Each write-path segment gets half the run, keeping the traced run
  // about as long as the others.
  MixedTraffic m = RunMixedTraffic(sys, *svc, *pop, &st, args.seconds / 2,
                                   args.seed, &spans);
  report->Count(m.queries + m.policy_ops + m.events,
                m.query_failed + m.policy_failed + m.batches_failed);
  if (m.query_failed + m.policy_failed + m.batches_failed > 0) {
    report->Wrong("operations failed under mixed traffic");
  }
  report->Metric("service.queue_ms_p99", m.queue_ms.Percentile(99), "ms",
                 m.queue_ms.count());
  report->Metric("engine.checkpoint_ms_p50", m.checkpoint_ms.Percentile(50),
                 "ms", m.checkpoint_ms.count());
  report->Metric("engine.checkpoint_ms_max", m.checkpoint_ms.Max(), "ms",
                 m.checkpoint_ms.count());
  report->Metric("engine.rekey_stall_ms",
                 m.flush_ms - 1000.0 * m.reencode.seconds, "ms");
  report->Metric("policy.reencode_s", m.reencode.seconds, "s");
  report->Metric("policy.rekeyed_users", m.reencode.rekeyed, "users");
  report->Metric("policy.component_users", m.reencode.component_users,
                 "users");

  // ingest_durable's writer, calling the engine directly.
  svc = MakeService(sys, *pop, 0);
  const auto d0 = sys.engine->delta_stats();
  const ProcIo io0 = ReadProcIo();
  WriterPlan plan;
  plan.direct_engine = true;
  plan.seconds = args.seconds / 2;
  plan.checkpoint_every = 50000;
  WriterResult w =
      RunWriter(*svc, *sys.engine, st.stream, &st.mirror, plan, &spans);
  const ProcIo io1 = ReadProcIo();
  const auto d1 = sys.engine->delta_stats();
  report->Count(w.batch_ms.count(), w.failed);
  if (w.failed > 0) report->Wrong("update batches were rejected");
  report->Metric("engine.ingest_ms_p50", w.batch_ms.Percentile(50), "ms",
                 w.batch_ms.count());
  report->Metric("engine.ingest_ms_p99", w.batch_ms.Percentile(99), "ms",
                 w.batch_ms.count());
  report->Metric("engine.delta.merges", d1.merges - d0.merges, "count");
  report->Metric("engine.delta.backpressure_merges",
                 d1.backpressure_merges - d0.backpressure_merges, "count");
  report->Metric("engine.delta.buffered_max", w.buffered_max, "records");
  report->Metric("storage.wal_bytes_per_event",
                 static_cast<double>(io1.wchar - io0.wchar) / w.events,
                 "bytes");
  report->Metric("engine.merge_hold_ms_p99",
                 telemetry::MetricsRegistry::Default()
                     ->histogram("engine.merge.lock_hold_ms")
                     ->Snap()
                     .p99,
                 "ms");

  DurableCheck check =
      VerifyDurable(sys, svc, *pop, st.mirror, w.last_t, report);
  report->Metric("storage.reopen_ms", check.reopen_ms, "ms");

  const std::string path = args.workdir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  spans.Write(path);
  report->Meta("spans", std::to_string(spans.size()) + " written to " + path);
}

}  // namespace perfbench
