// The two durable workloads. Both run the default 4-shard engine on a
// database file + WAL (fsync after every batch) with a pool that holds the
// whole index, and start from the database reopened with
// ShardedPebEngine::Open, as a restarted service would.
//
// mixed_durable: the north-star traffic. Open-loop Poisson PRQ/PkNN
//   arrivals through Submit; the update stream replayed on its own
//   timestamps at a fixed speed-up; checkpoints every fixed number of
//   events; deferred policy grants/revokes, flushed by one Reencode request
//   after the timed traffic. Query time follows the stream clock.
// ingest_durable: update capacity. One closed-loop writer sends fixed-size
//   batches through the service, with a checkpoint every fixed number of
//   events; no queries run while it writes.
//
// Both end the same way (VerifyDurable): drain the deltas, check a sample
// against brute force over the benchmark's own copy of the applied events,
// close, reopen, and check that the reopened engine answers the same.
#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <thread>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

namespace {

constexpr size_t kPoolFrames = 4096;
constexpr size_t kCheckPairs = 300;  // End-of-run brute-force sample.
// ingest_durable's read side: one pass of four clients over 2 * kReadPairs
// queries, a fixed amount of work so each window holds enough PRQs to
// resolve a p99 however fast the machine runs.
constexpr size_t kReadPairs = 8000;

// mixed_durable offered load.
constexpr double kQueryRate = 600.0;       // queries/s, Poisson.
constexpr double kStreamSpeedup = 3.0;     // stream seconds per second.
constexpr double kUpdateTickMs = 2.5;      // update batching period.
constexpr size_t kMixedWorkers = 2;        // service workers.
constexpr size_t kMixedCheckpointEvery = 2000;
constexpr size_t kPolicyEvery = 2000;      // one grant or revoke.
// A generator late by more than this at p50, or by more than 20x this at
// p99, did not offer the planned load, and the run is refused. (Latency is
// timed from the due time, so lateness alone does not bias it.)
constexpr double kGeneratorLatenessLimitMs = 1.0;

// ingest_durable.
constexpr size_t kIngestBatch = 256;
constexpr size_t kIngestCheckpointEvery = 50000;

Clock::duration Ms(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Sets up the durable engine, runs `before_restart` on it (if any), and
/// restarts it: the run starts from the database reopened with Open().
System SetUpDurable(const Args& args, Population* pop, const std::string& name,
                    Report* report,
                    const std::function<void(System&)>& before_restart = {}) {
  double setup_s = 0.0;
  Deployment dep{kPoolFrames, args.workdir + "/" + name + ".db"};
  System sys = SetUp(pop, dep, 3, &setup_s);
  report->Metric("setup_s", setup_s, "s");
  report->Meta("engine", "default 4-shard engine, database file + WAL, "
                         "fsync after every batch");
  report->Meta("pool_frames", static_cast<double>(kPoolFrames));
  if (before_restart) before_restart(sys);
  report->Meta("start_reopen_ms", CloseAndReopen(&sys));
  return sys;
}

/// One query of the open loop, with its schedule and outcome.
struct Arrival {
  Clock::time_point due;
  Clock::time_point submitted;
  QuerySpec spec;
  std::future<service::QueryResponse> response;
};

}  // namespace

std::unique_ptr<service::MovingObjectService> MakeService(System& sys,
                                                          const Population& pop,
                                                          size_t workers) {
  service::ServiceOptions so;
  so.num_workers = workers;
  so.time_domain = pop.params.time_domain;
  return std::make_unique<service::MovingObjectService>(
      sys.engine.get(), sys.catalog.get(), so);
}

Stream::Stream(const Population& pop, uint64_t seed)
    : stream(pop.dataset,
             UniformUpdateStreamOptions{pop.params.delta_t_mu, 0.5,
                                        seed + 0xABCD}),
      next(stream.Next()),
      mirror(pop.dataset) {}

void PreRoll(System& sys, const Population& pop, Stream* st) {
  std::vector<UpdateEvent> batch;
  while (st->next.t < 2.0 * pop.params.delta_t_mu) {
    batch.push_back(st->next);
    st->mirror.objects[st->next.state.id] = st->next.state;
    st->next = st->stream.Next();
    if (batch.size() == 4096) {
      CheckOk(sys.engine->ApplyBatch(batch), "pre-roll batch");
      batch.clear();
    }
  }
  if (!batch.empty()) CheckOk(sys.engine->ApplyBatch(batch), "pre-roll batch");
  CheckOk(sys.engine->Checkpoint(), "pre-roll checkpoint");
}

MixedTraffic RunMixedTraffic(System& sys, service::MovingObjectService& svc,
                             const Population& pop, Stream* st,
                             double seconds, uint64_t seed, SpanLog* spans) {
  MixedTraffic out;
  // The whole schedule is drawn from the seed before the clock starts.
  const Timestamp t_start = st->next.t;
  std::vector<UpdateEvent> events;
  while (st->next.t - t_start < seconds * kStreamSpeedup) {
    events.push_back(st->next);
    st->next = st->stream.Next();
  }
  out.offered_event_rate = static_cast<double>(events.size()) / seconds;
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x51);
  std::vector<QuerySpec> shapes =
      MakeQueries(pop, pop.dataset, static_cast<size_t>(kQueryRate * seconds),
                  t_start, /*salt=*/0x0BE7);
  const auto zero = Clock::now() + std::chrono::milliseconds(200);
  std::vector<Arrival> arrivals;
  double due_s = 0.0;
  for (const QuerySpec& shape : shapes) {
    due_s += -std::log(1.0 - rng.NextDouble()) / kQueryRate;
    if (due_s >= seconds) break;
    Arrival a;
    a.due = zero + Ms(due_s * 1000.0);
    a.spec = shape;
    arrivals.push_back(std::move(a));
  }
  // Grants go to random pairs; revocations name pairs that exist now.
  std::vector<std::pair<UserId, UserId>> pairs;
  while (pairs.size() < events.size() / kPolicyEvery + 2) {
    UserId owner = static_cast<UserId>(rng.NextBelow(pop.params.num_users));
    auto peers = sys.catalog->store().PeersOf(owner);
    if (!peers.empty()) pairs.emplace_back(owner, peers[0]);
  }
  auto stream_time = [&](Clock::time_point now) {
    return t_start +
           std::chrono::duration<double>(now - zero).count() * kStreamSpeedup;
  };

  // Query generator: submits each arrival at its due time, at the stream
  // clock's current time.
  std::thread generator([&] {
    for (Arrival& a : arrivals) {
      std::this_thread::sleep_until(a.due);
      a.submitted = Clock::now();
      a.spec.tq = stream_time(a.submitted);
      if (a.spec.knn) {
        Point p = pop.dataset.objects[a.spec.issuer].PositionAt(a.spec.tq);
        const double side = pop.params.space_side;
        a.spec.qloc = {std::clamp(p.x, 0.0, side), std::clamp(p.y, 0.0, side)};
      }
      a.response = svc.Submit(a.spec.Request());
      out.lateness_ms.Add(MsBetween(a.due, a.submitted));
    }
  });

  // Update replayer: every tick applies the events that fell due, then
  // issues the policy traffic and checkpoints the event count calls for.
  std::vector<std::future<service::QueryResponse>> policy_ops;
  const ProcIo io0 = ReadProcIo();
  std::thread updater([&] {
    size_t next = 0, since_checkpoint = 0, since_policy = 0;
    size_t mutations = 0;
    std::vector<UpdateEvent> batch;
    for (size_t tick = 1; next < events.size(); ++tick) {
      const double tick_ms = kUpdateTickMs * static_cast<double>(tick);
      const auto due = zero + Ms(tick_ms);
      std::this_thread::sleep_until(due);
      const Timestamp horizon = t_start + tick_ms / 1000.0 * kStreamSpeedup;
      batch.clear();
      while (next < events.size() && events[next].t <= horizon) {
        batch.push_back(events[next++]);
      }
      if (batch.empty()) continue;
      auto b0 = Clock::now();
      Status s = svc.ApplyBatch(batch);
      auto b1 = Clock::now();
      out.batch_ms.Add(MsBetween(due, b1), tick_ms / 1000.0);
      if (spans != nullptr) spans->Add(tick, "service.ApplyBatch", b0, b1);
      if (!s.ok()) {
        ++out.batches_failed;
        continue;
      }
      for (const UpdateEvent& ev : batch) {
        st->mirror.objects[ev.state.id] = ev.state;
      }
      out.events += batch.size();
      // Stamped at the acknowledgement, so a replayer that falls behind
      // the schedule shows a lower rate.
      out.batch_events.Add(static_cast<double>(batch.size()),
                           MsBetween(zero, b1) / 1000.0);
      since_checkpoint += batch.size();
      since_policy += batch.size();
      const Timestamp now_t = batch.back().t;
      if (since_policy >= kPolicyEvery) {
        since_policy = 0;
        const auto [owner, peer] = pairs[mutations];
        service::QueryRequest m;
        if (mutations % 2 == 0) {
          Lpp grant;
          grant.role = pop.friend_role;
          grant.locr = Rect::Space(pop.params.space_side);
          grant.tint = TimeOfDayInterval::AllDay(pop.params.time_domain);
          UserId other = (owner + 1 + static_cast<UserId>(mutations)) %
                         static_cast<UserId>(pop.params.num_users);
          m = service::QueryRequest::AddPolicy(owner, other, grant, now_t,
                                               /*reencode_now=*/false);
        } else {
          m = service::QueryRequest::RemovePolicy(owner, peer, now_t,
                                                  /*reencode_now=*/false);
        }
        ++mutations;
        policy_ops.push_back(svc.Submit(m));
      }
      if (since_checkpoint >= kMixedCheckpointEvery) {
        since_checkpoint = 0;
        auto c0 = Clock::now();
        CheckOk(sys.engine->Checkpoint(), "checkpoint");
        auto c1 = Clock::now();
        out.checkpoint_ms.Add(MsBetween(c0, c1));
        if (spans != nullptr) spans->Add(tick, "engine.Checkpoint", c0, c1);
      }
    }
  });
  generator.join();
  updater.join();

  // Latency runs from the due time, so queueing behind a stall counts;
  // completion = submission + queue + execution.
  for (size_t i = 0; i < arrivals.size(); ++i) {
    Arrival& a = arrivals[i];
    service::QueryResponse r = a.response.get();
    ++out.queries;
    if (!r.ok()) {
      ++out.query_failed;
      continue;
    }
    const double ms = MsBetween(a.due, a.submitted) + r.queue_ms + r.exec_ms;
    const double at = MsBetween(zero, a.due) / 1000.0;
    const auto done = a.submitted + Ms(r.queue_ms + r.exec_ms);
    (a.spec.knn ? out.knn_ms : out.prq_ms).Add(ms, at);
    out.done.Add(1.0, MsBetween(zero, done) / 1000.0);
    out.queue_ms.Add(r.queue_ms);
    out.fetches += r.io.logical_fetches;
    out.reads += r.io.physical_reads;
    if (spans != nullptr) {
      spans->Add(i, a.spec.knn ? "service.Submit.pknn" : "service.Submit.prq",
                 a.submitted, done);
    }
  }
  for (auto& f : policy_ops) {
    ++out.policy_ops;
    if (!f.get().ok()) ++out.policy_failed;
  }
  const ProcIo io1 = ReadProcIo();
  out.write_bytes = io1.write_bytes - io0.write_bytes;
  out.last_t = events.back().t;

  // The Reencode request flushing the deferred mutations runs after the
  // timed traffic: one flush re-encodes the whole policy component
  // (seconds of work, during which the service also holds back update
  // batches), so inside a run it would leave no steady window to measure.
  const auto f0 = Clock::now();
  service::QueryResponse flush =
      svc.Execute(service::QueryRequest::Reencode(out.last_t));
  const auto f1 = Clock::now();
  ++out.policy_ops;
  if (!flush.ok()) ++out.policy_failed;
  out.flush_ms = MsBetween(f0, f1);
  out.reencode = flush.reencode;
  if (spans != nullptr) spans->Add(0, "service.Reencode", f0, f1);
  return out;
}

DurableCheck VerifyDurable(System& sys,
                           std::unique_ptr<service::MovingObjectService>& svc,
                           const Population& pop, const Dataset& mirror,
                           Timestamp tq, Report* report) {
  DurableCheck out;
  Checked c = CheckSample(sys, *svc, pop, mirror, tq, kCheckPairs, report);
  svc.reset();
  out.reopen_ms = CloseAndReopen(&sys);  // The close takes a checkpoint.
  // The pages the checkpointed database uses, not the file's size: the file
  // grows in power-of-two steps and never shrinks.
  out.db_bytes = static_cast<double>(sys.engine->pool()->disk()->live_pages() *
                                     kPageSize);
  svc = MakeService(sys, pop, 0);
  // The reopened engine must give every pre-close answer again (they all
  // equal brute force).
  QueryLoopResult reopened = RunQueryLoop(*svc, c.queries, c.truth, 4, 0.0);
  const uint64_t bad = reopened.wrong + reopened.failed;
  report->Count(reopened.ops, bad);
  if (bad > 0) {
    report->Wrong(std::to_string(bad) +
                  " answers of the reopened engine differ from the pre-close "
                  "state");
  }
  return out;
}

// --- mixed_durable ----------------------------------------------------------

void RunMixedDurable(const Args& args, Report* report) {
  auto pop = MakePopulation(args.seed);
  DescribeRun(args, *pop, report);
  Stream st(*pop, args.seed);
  System sys = SetUpDurable(args, pop.get(), "mixed", report,
                            [&](System& s) { PreRoll(s, *pop, &st); });
  report->Meta("load", "open loop: Poisson queries through Submit at " +
                           std::to_string(kQueryRate) +
                           "/s; update stream replayed at " +
                           std::to_string(kStreamSpeedup) + "x in " +
                           std::to_string(kUpdateTickMs) + " ms ticks");
  report->Meta("service_workers", static_cast<double>(kMixedWorkers));
  report->Meta("client_threads", "1 query generator + 1 update replayer");
  report->Meta("checkpoint_every_events",
               static_cast<double>(kMixedCheckpointEvery));
  report->Meta("policy_mutation_every_events",
               static_cast<double>(kPolicyEvery));
  report->Meta("reencode", "one flush after the timed traffic");
  auto svc = MakeService(sys, *pop, kMixedWorkers);

  MixedTraffic m =
      RunMixedTraffic(sys, *svc, *pop, &st, args.seconds, args.seed, nullptr);
  report->Count(m.queries, m.query_failed);
  report->Count(m.policy_ops, m.policy_failed);
  report->Count(m.events, m.batches_failed);
  if (m.query_failed + m.policy_failed + m.batches_failed > 0) {
    report->Wrong("operations failed under mixed traffic");
  }
  const uint64_t answered = m.done.count();
  const double span = args.seconds;
  report->Rate("query_qps", m.done, span, "queries/s");
  report->Percentile("prq_p50_ms", m.prq_ms, 50);
  report->Percentile("prq_p99_ms", m.prq_ms, 99);
  report->Percentile("pknn_p50_ms", m.knn_ms, 50);
  report->Percentile("pknn_p99_ms", m.knn_ms, 99);
  report->Metric("pages_per_query",
                 static_cast<double>(m.fetches) / static_cast<double>(answered),
                 "pages", answered);
  report->Meta("physical_reads_per_query",
               static_cast<double>(m.reads) / static_cast<double>(answered));
  report->Rate("ingest_eps", m.batch_events, span, "events/s");
  report->Percentile("update_p50_ms", m.batch_ms, 50);
  report->Percentile("update_p99_ms", m.batch_ms, 99);
  report->Metric("write_bytes_per_event",
                 static_cast<double>(m.write_bytes) /
                     static_cast<double>(m.events),
                 "bytes", m.events);
  report->Meta("offered_query_rate", kQueryRate);
  report->Meta("offered_event_rate", m.offered_event_rate);
  report->Meta("checkpoints", static_cast<double>(m.checkpoint_ms.count()));
  report->Meta("reencode_flush_ms", m.flush_ms);
  report->Meta("generator_lateness_ms",
               "p50 " + std::to_string(m.lateness_ms.Percentile(50)) +
                   ", p99 " + std::to_string(m.lateness_ms.Percentile(99)) +
                   ", max " + std::to_string(m.lateness_ms.Max()));
  if (m.lateness_ms.Percentile(50) > kGeneratorLatenessLimitMs ||
      m.lateness_ms.Percentile(99) > 20 * kGeneratorLatenessLimitMs) {
    report->Invalid("the query generator ran late: the offered load was not "
                    "the planned one");
  }

  DurableCheck check =
      VerifyDurable(sys, svc, *pop, st.mirror, m.last_t, report);
  report->Metric("db_bytes_per_user",
                 check.db_bytes / static_cast<double>(pop->params.num_users),
                 "bytes");
  report->Meta("end_reopen_ms", check.reopen_ms);
  report->Metric("mem_peak_mb", PeakRssMb(), "MB");
}

// --- ingest_durable ---------------------------------------------------------

void RunIngestDurable(const Args& args, Report* report) {
  auto pop = MakePopulation(args.seed);
  DescribeRun(args, *pop, report);
  System sys = SetUpDurable(args, pop.get(), "ingest", report);
  report->Meta("load", "closed loop: 1 writer, batches of " +
                           std::to_string(kIngestBatch) +
                           " events through the service");
  report->Meta("service_workers", 0.0);
  report->Meta("checkpoint_every_events",
               static_cast<double>(kIngestCheckpointEvery));
  auto svc = MakeService(sys, *pop, 0);

  // The read side: the reopened database, before any update, read by four
  // clients. Its state depends on the seed alone (after the writer it
  // would depend on how far the writer got).
  const Timestamp tq = pop->params.delta_t_mu;
  std::vector<QuerySpec> qs =
      MakeQueries(*pop, pop->dataset, kReadPairs, tq, /*salt=*/0x1D6E);
  std::vector<Answer> truth = BruteForceAll(
      qs, pop->dataset, sys.catalog->store(), sys.catalog->roles(),
      pop->params.time_domain, std::min<size_t>(4, Nproc()));
  QueryLoopResult r = RunQueryLoop(*svc, qs, truth, 4, 0.0);
  report->Meta("read_loop", "before the writer: 4 clients, one pass over " +
                                std::to_string(qs.size()) + " queries");
  ReportQueryLoop(r, r.wall_s, report);

  Stream st(*pop, args.seed);
  WriterPlan plan;
  plan.batch_size = kIngestBatch;
  plan.seconds = args.seconds;
  plan.checkpoint_every = kIngestCheckpointEvery;
  const ProcIo io0 = ReadProcIo();
  WriterResult w = RunWriter(*svc, *sys.engine, st.stream, &st.mirror, plan);
  const ProcIo io1 = ReadProcIo();
  ReportWriter(w, report);
  report->Metric("write_bytes_per_event",
                 static_cast<double>(io1.write_bytes - io0.write_bytes) /
                     static_cast<double>(w.events),
                 "bytes", w.events);
  report->Meta("checkpoints", static_cast<double>(w.checkpoint_ms.count()));

  DurableCheck check =
      VerifyDurable(sys, svc, *pop, st.mirror, w.last_t, report);
  report->Metric("db_bytes_per_user",
                 check.db_bytes / static_cast<double>(pop->params.num_users),
                 "bytes");
  report->Meta("end_reopen_ms", check.reopen_ms);
  report->Metric("mem_peak_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
