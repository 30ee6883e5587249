// read_paper: the paper's regime. The default 4-shard engine on the
// in-memory disk with the 50-frame pool (the index is ~25x the pool), read
// only, driven by a closed loop of four clients.
//
// The run ends with a short in-memory update probe (the paper's Figure-18
// regime: updates through the same 50-frame pool) that supplies the write
// metrics; it runs after the read measurement, so it cannot disturb it.
#include "bench.h"

namespace perfbench {

namespace {

constexpr size_t kClients = 4;
// Distinct queries (PRQ/PkNN pairs): issuers and windows are drawn from the
// seed, so the more there are, the less a run's figures depend on the draw.
constexpr size_t kDistinctPairs = 10000;
constexpr size_t kWarmupQueries = 2000;
// A fixed amount of update work, so each window of the probe holds the
// same number of batches however fast the machine runs.
constexpr size_t kProbeBatches = 10000;
constexpr size_t kProbeBatchSize = 128;

}  // namespace

void RunReadPaper(const Args& args, Report* report) {
  auto pop = MakePopulation(args.seed);
  DescribeRun(args, *pop, report);
  report->Meta("engine", "default 4-shard engine, in-memory disk");
  report->Meta("pool_frames", 50.0);
  report->Meta("load", "closed loop, 4 clients calling Execute");
  report->Meta("service_workers", 0.0);
  if (Nproc() < kClients) {
    report->Meta("warning", "fewer cores than the fixed 4 clients");
  }

  double setup_s = 0.0;
  System sys = SetUp(pop.get(), Deployment{50, ""}, 3, &setup_s);
  report->Metric("setup_s", setup_s, "s");

  auto svc = MakeService(sys, *pop, 0);

  // Every distinct query is answered once by brute force before timing;
  // every timed answer is compared to that answer.
  const Timestamp tq = pop->params.delta_t_mu;
  std::vector<QuerySpec> qs = MakeQueries(*pop, pop->dataset, kDistinctPairs,
                                          tq, /*salt=*/0x9EAD);
  auto o0 = Clock::now();
  std::vector<Answer> truth =
      BruteForceAll(qs, pop->dataset, sys.catalog->store(),
                    sys.catalog->roles(), pop->params.time_domain,
                    std::min<size_t>(4, Nproc()));
  report->Meta("oracle_s", SecondsSince(o0));

  // Warm-up: an untimed pass fills the pool to its steady state.
  const std::vector<QuerySpec> warm_qs(qs.begin(), qs.begin() + kWarmupQueries);
  QueryLoopResult warm = RunQueryLoop(*svc, warm_qs, truth, kClients, 0.0);
  report->Count(warm.ops, warm.failed + warm.wrong);
  if (warm.failed + warm.wrong > 0) {
    report->Wrong("warm-up answers differ from brute force");
  }
  QueryLoopResult run = RunQueryLoop(*svc, qs, truth, kClients, args.seconds);
  ReportQueryLoop(run, args.seconds, report);

  // Update probe: one closed-loop writer, in memory, through the service.
  Stream st(*pop, args.seed);
  const uint64_t writes0 = sys.engine->aggregate_io().physical_writes;
  WriterPlan plan;
  plan.batch_size = kProbeBatchSize;
  plan.max_batches = kProbeBatches;
  WriterResult w = RunWriter(*svc, *sys.engine, st.stream, &st.mirror, plan);
  CheckOk(sys.engine->MergeDeltas(), "MergeDeltas");
  const uint64_t writes =
      sys.engine->aggregate_io().physical_writes - writes0;
  ReportWriter(w, report);
  report->Meta("update_probe", "1 writer, " + std::to_string(kProbeBatches) +
                                   " batches of " +
                                   std::to_string(kProbeBatchSize) +
                                   " events, in memory");
  // In memory, the disk manager is the storage: its bytes are the pool's
  // write-backs.
  report->Metric("write_bytes_per_event",
                 static_cast<double>(writes * kPageSize) /
                     static_cast<double>(w.events),
                 "bytes", w.events);
  report->Metric("db_bytes_per_user",
                 static_cast<double>(sys.engine->pool()->disk()->live_pages() *
                                     kPageSize) /
                     static_cast<double>(pop->params.num_users),
                 "bytes");

  CheckSample(sys, *svc, *pop, st.mirror, w.last_t, 100, report);
  report->Metric("mem_peak_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
