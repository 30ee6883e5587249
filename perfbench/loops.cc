#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "bench.h"

namespace perfbench {

QueryLoopResult RunQueryLoop(service::MovingObjectService& svc,
                             const std::vector<QuerySpec>& qs,
                             const std::vector<Answer>& expected,
                             size_t clients, double seconds) {
  std::vector<QueryLoopResult> per_client(clients);
  std::atomic<size_t> next{0};
  const bool timed = seconds > 0.0;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(timed ? seconds : 0.0));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      QueryLoopResult& mine = per_client[c];
      while (true) {
        size_t i = next++;
        if (timed ? Clock::now() >= deadline : i >= qs.size()) break;
        const QuerySpec& q = qs[i % qs.size()];
        auto q0 = Clock::now();
        service::QueryResponse r = svc.Execute(q.Request());
        auto q1 = Clock::now();
        const double ms = MsBetween(q0, q1);
        const double at = MsBetween(t0, q1) / 1000.0;
        ++mine.ops;
        if (!r.ok()) {
          ++mine.failed;
          continue;
        }
        if (!SameAnswer(q, AnswerOf(r), expected[i % qs.size()])) ++mine.wrong;
        (q.knn ? mine.knn_ms : mine.prq_ms).Add(ms, at);
        mine.done.Add(1.0, at);
        mine.reads += r.io.physical_reads;
        mine.fetches += r.io.logical_fetches;
      }
    });
  }
  for (auto& t : threads) t.join();
  QueryLoopResult out;
  out.wall_s = SecondsSince(t0);
  for (const QueryLoopResult& r : per_client) {
    out.prq_ms.Append(r.prq_ms);
    out.knn_ms.Append(r.knn_ms);
    out.done.Append(r.done);
    out.ops += r.ops;
    out.failed += r.failed;
    out.wrong += r.wrong;
    out.reads += r.reads;
    out.fetches += r.fetches;
  }
  return out;
}

void ReportQueryLoop(const QueryLoopResult& r, double span, Report* report) {
  report->Count(r.ops, r.failed + r.wrong);
  if (r.failed + r.wrong > 0) {
    report->Wrong(std::to_string(r.failed + r.wrong) +
                  " answers differ from brute force");
  }
  report->Rate("query_qps", r.done, span, "queries/s");
  report->Percentile("prq_p50_ms", r.prq_ms, 50);
  report->Percentile("prq_p99_ms", r.prq_ms, 99);
  report->Percentile("pknn_p50_ms", r.knn_ms, 50);
  report->Percentile("pknn_p99_ms", r.knn_ms, 99);
  const double ops = static_cast<double>(r.ops);
  report->Metric("pages_per_query", static_cast<double>(r.fetches) / ops,
                 "pages", r.ops);
  report->Meta("physical_reads_per_query", static_cast<double>(r.reads) / ops);
}

WriterResult RunWriter(service::MovingObjectService& svc,
                       engine::ShardedPebEngine& engine, UpdateStream& stream,
                       Dataset* mirror, const WriterPlan& plan,
                       SpanLog* spans) {
  WriterResult out;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(plan.seconds));
  size_t since_checkpoint = 0;
  std::vector<UpdateEvent> batch;
  for (size_t b = 0;; ++b) {
    if (plan.max_batches > 0 ? b >= plan.max_batches : Clock::now() >= deadline)
      break;
    batch.clear();
    for (size_t i = 0; i < plan.batch_size; ++i) batch.push_back(stream.Next());
    auto b0 = Clock::now();
    Status s = plan.direct_engine ? engine.ApplyBatch(batch)
                                  : svc.ApplyBatch(batch);
    auto b1 = Clock::now();
    const double at = MsBetween(t0, b1) / 1000.0;
    out.batch_ms.Add(MsBetween(b0, b1), at);
    if (spans != nullptr) {
      spans->Add(b, plan.direct_engine ? "engine.ApplyBatch"
                                       : "service.ApplyBatch",
                 b0, b1);
    }
    if (!s.ok()) {
      ++out.failed;
      continue;
    }
    for (const UpdateEvent& ev : batch) mirror->objects[ev.state.id] = ev.state;
    out.events += batch.size();
    out.batch_events.Add(static_cast<double>(batch.size()), at);
    out.last_t = batch.back().t;
    out.buffered_max =
        std::max(out.buffered_max, engine.delta_stats().max_shard_records);
    since_checkpoint += batch.size();
    if (plan.checkpoint_every > 0 &&
        since_checkpoint >= plan.checkpoint_every) {
      since_checkpoint = 0;
      auto c0 = Clock::now();
      CheckOk(engine.Checkpoint(), "checkpoint");
      auto c1 = Clock::now();
      out.checkpoint_ms.Add(MsBetween(c0, c1));
      if (spans != nullptr) spans->Add(b, "engine.Checkpoint", c0, c1);
    }
  }
  out.wall_s = SecondsSince(t0);
  return out;
}

void ReportWriter(const WriterResult& w, Report* report) {
  report->Count(w.batch_ms.count(), w.failed);
  if (w.failed > 0) report->Wrong("update batches were rejected");
  report->Rate("ingest_eps", w.batch_events, w.wall_s, "events/s");
  report->Percentile("update_p50_ms", w.batch_ms, 50);
  report->Percentile("update_p99_ms", w.batch_ms, 99);
}

Checked CheckSample(System& sys, service::MovingObjectService& svc,
                    const Population& pop, const Dataset& mirror, Timestamp tq,
                    size_t pairs, Report* report) {
  CheckOk(sys.engine->MergeDeltas(), "MergeDeltas");
  Checked out;
  out.queries = MakeQueries(pop, mirror, pairs, tq, /*salt=*/0xC4EC);
  out.truth = BruteForceAll(out.queries, mirror, sys.catalog->store(),
                            sys.catalog->roles(), pop.params.time_domain,
                            std::min<size_t>(4, Nproc()));
  uint64_t wrong = 0;
  for (size_t i = 0; i < out.queries.size(); ++i) {
    service::QueryResponse r = svc.Execute(out.queries[i].Request());
    if (!r.ok() || !SameAnswer(out.queries[i], AnswerOf(r), out.truth[i])) {
      ++wrong;
    }
  }
  report->Count(out.queries.size(), wrong);
  if (wrong > 0) {
    report->Wrong(std::to_string(wrong) +
                  " answers after the run differ from brute force over the "
                  "applied events");
  }
  return out;
}

void DescribeRun(const Args& args, const Population& pop, Report* report) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  report->Meta("workload", args.workload);
  report->Meta("trace", args.trace ? "1" : "0");
  report->Meta("commit", commit != nullptr ? commit : "unknown");
  report->Meta("build_type", PEB_BENCH_BUILD_TYPE);
  report->Meta("nproc", static_cast<double>(Nproc()));
  report->Meta("seed", static_cast<double>(args.seed));
  report->Meta("population_seed", static_cast<double>(kPopulationSeed));
  report->Meta("run_seconds", args.seconds);
  report->Meta("population",
               std::to_string(pop.params.num_users) + " uniform users, " +
                   std::to_string(pop.params.policies_per_user) +
                   " policies/user, grouping " +
                   std::to_string(pop.params.grouping_factor) +
                   ", PRQ window 200, k=5, PRQ:PkNN 1:1");
  report->Meta("population_gen_s", pop.gen_seconds);
}

}  // namespace perfbench
