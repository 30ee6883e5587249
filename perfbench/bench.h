// Shared pieces of the PEB engine benchmark: the Table-1 population, the
// set-up of the engines under test, the literal Definition-2/3 oracle, exact
// sample statistics, and the metric report.
//
// Everything here drives the library through its public API only; no code
// under src/ is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bxtree/privacy_index.h"
#include "common/thread_annotations.h"
#include "engine/sharded_engine.h"
#include "eval/workload.h"
#include "motion/moving_object.h"
#include "motion/update_stream.h"
#include "policy/policy_catalog.h"
#include "policy/policy_generator.h"
#include "service/service.h"

namespace perfbench {

using namespace peb;
using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b);
double SecondsSince(Clock::time_point t);

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for database files and the span dump.
  std::string workdir = ".bench_build/work";
};

/// Dies with a message on stderr: set-up and harness failures are not
/// measurements and must never produce a result line.
[[noreturn]] void Fatal(const std::string& what);
void CheckOk(const Status& s, const std::string& what);

// --- population -------------------------------------------------------------

/// One PRQ or PkNN instance.
struct QuerySpec {
  bool knn = false;
  UserId issuer = kInvalidUserId;
  Rect range;   ///< PRQ window.
  Point qloc;   ///< PkNN location.
  size_t k = 5;
  Timestamp tq = 0.0;

  service::QueryRequest Request() const;
};

/// The answer to one query, in either shape.
struct Answer {
  std::vector<UserId> ids;
  std::vector<Neighbor> neighbors;
};

/// Equality of two answers (PkNN compares distances with a tolerance and
/// ids where distances differ; exact ties may come back in either order).
bool SameAnswer(const QuerySpec& q, const Answer& a, const Answer& b);
Answer AnswerOf(const service::QueryResponse& r);

/// The Table-1 population: 60k uniform users, 50 policies per user,
/// grouping 0.7, generated from kPopulationSeed; not part of set-up time.
/// `seed` is the run's seed, which draws everything else.
inline constexpr uint64_t kPopulationSeed = 1;
struct Population {
  eval::WorkloadParams params;
  uint64_t seed = 1;
  Dataset dataset;
  PolicyStore store;
  RoleRegistry roles;
  RoleId friend_role = kInvalidRoleId;
  double gen_seconds = 0.0;
};
std::unique_ptr<Population> MakePopulation(uint64_t seed);

/// `count` PRQs and `count` PkNNs at time `tq` over `objects`, interleaved
/// 1:1 (PRQ first). PkNN locations are the issuers' own positions at tq.
std::vector<QuerySpec> MakeQueries(const Population& pop,
                                   const Dataset& objects, size_t count,
                                   Timestamp tq, uint64_t salt);

/// The brute-force Definition-2 (PRQ) / Definition-3 (PkNN) answers over
/// `objects` and the live policy store, independent of any index: for each
/// query, every user with a policy toward the issuer is checked with
/// PolicyStore::Allows at its position at the query time. Runs on up to
/// `threads` threads.
std::vector<Answer> BruteForceAll(const std::vector<QuerySpec>& qs,
                                  const Dataset& objects,
                                  const PolicyStore& store,
                                  const RoleRegistry& roles,
                                  double time_domain, size_t threads);

// --- set-up -----------------------------------------------------------------

/// A set-up system: the policy catalog (encoding) and the engine over it.
struct System {
  std::unique_ptr<PolicyCatalog> catalog;
  std::unique_ptr<engine::ShardedPebEngine> engine;
  engine::EngineOptions options;
};

/// Deployment settings; every other engine knob stays at its default.
struct Deployment {
  size_t buffer_pages = 50;
  std::string db_path;  ///< Empty = in-memory disk.
};

/// Replaces `sys->engine` with a fresh engine for `dep` over the existing
/// catalog: construction + LoadDataset (+ checkpoint when durable).
void BuildEngine(System* sys, const Population& pop, const Deployment& dep);

/// Sets the system up `repeats` times (policy encoding + engine build +
/// LoadDataset, + first checkpoint when durable) and keeps the last one.
/// The first repeat moves the generated policies into a new catalog; later
/// repeats re-encode the same policies with PolicyCatalog::RebuildFull.
/// Returns the median set-up seconds through *setup_s.
System SetUp(Population* pop, const Deployment& dep, size_t repeats,
             double* setup_s);

/// Destroys `sys.engine` (a clean-shutdown checkpoint when durable) and
/// reopens it with ShardedPebEngine::Open. Returns the reopen milliseconds.
double CloseAndReopen(System* sys);

// --- statistics -------------------------------------------------------------

/// Raw samples of one quantity, each stamped with the run time (seconds
/// from the start of the measurement) it belongs to. Percentiles are exact
/// order statistics.
class Samples {
 public:
  void Add(double v, double at = 0.0) {
    v_.push_back(v);
    t_.push_back(at);
    sorted_.clear();
  }
  void Append(const Samples& o);
  size_t count() const { return v_.size(); }
  /// The i-th sample, in the order added.
  double operator[](size_t i) const { return v_[i]; }
  /// Nearest-rank percentile, p in (0, 100].
  double Percentile(double p) const;
  /// True when at least ten samples lie above the p-th percentile's rank.
  bool Resolves(double p) const;
  double Max() const;
  double Sum() const;
  double Mean() const { return v_.empty() ? 0.0 : Sum() / v_.size(); }
  /// The samples of each of `windows` equal windows of [0, span); samples
  /// stamped outside it count in the nearest window.
  std::vector<Samples> Windows(size_t windows, double span) const;
  /// The samples in stamp order, cut into `chunks` runs of equal count.
  std::vector<Samples> Chunks(size_t chunks) const;

 private:
  std::vector<double> v_, t_;
  mutable std::vector<double> sorted_;
};

/// Timed end-to-end metrics are medians over this many consecutive parts
/// of the measurement, so a disturbed stretch of a run cannot move them.
inline constexpr size_t kWindows = 8;

/// Process counters read from /proc/self/io.
struct ProcIo {
  uint64_t wchar = 0;
  uint64_t write_bytes = 0;
};
ProcIo ReadProcIo();
double PeakRssMb();

// --- report -----------------------------------------------------------------

/// The run's metrics, validity metadata, and verdict. Print() writes one
/// human-readable line per metric and metadata item, then the JSON result
/// as the last line of standard output.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0);
  /// A latency percentile: the median over equal-count chunks of the
  /// samples, in stamp order, of each chunk's exact percentile. There are
  /// as many chunks, up to kWindows, as leave ten samples beyond the
  /// percentile in each; with fewer samples than one such chunk, the run
  /// is invalid instead of reported.
  void Percentile(const std::string& name, const Samples& s, double p);
  /// A rate: the median over kWindows windows of [0, span) of the window's
  /// summed sample values per second.
  void Rate(const std::string& name, const Samples& s, double span,
            const std::string& unit);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  /// Records attempted/failed operations.
  void Count(uint64_t attempted, uint64_t failed);
  /// A wrong answer or other correctness failure.
  void Wrong(const std::string& what);
  /// The run measured something that is not a valid measurement.
  void Invalid(const std::string& what);

  /// Prints everything; returns the process exit code.
  int Print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> order_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> wrong_;
  std::vector<std::string> invalid_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Threads the load generator may use (clients + service workers).
size_t Nproc();

// --- spans ------------------------------------------------------------------

/// Spans recorded by the benchmark around its calls into each layer. Spans
/// of one request share an id. Kept in memory; written out at the end.
class SpanLog {
 public:
  void Add(uint64_t id, const char* layer, Clock::time_point start,
           Clock::time_point end);
  size_t size() const;
  /// Writes the spans as a Chrome trace (chrome://tracing, Perfetto).
  void Write(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    const char* layer;
    Clock::time_point start, end;
  };
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  Clock::time_point origin_ = Clock::now();
};

// --- load loops -------------------------------------------------------------

/// What a closed loop of query clients saw.
struct QueryLoopResult {
  Samples prq_ms, knn_ms;  ///< Stamped with their completion time.
  Samples done;            ///< 1 per answered query, at completion.
  uint64_t ops = 0;
  uint64_t failed = 0;  ///< Non-OK responses.
  uint64_t wrong = 0;   ///< OK responses that differ from `expected`.
  uint64_t reads = 0;    ///< Physical page reads (QueryResponse::io).
  uint64_t fetches = 0;  ///< Pages fetched through the pool.
  double wall_s = 0.0;   ///< The loop's run time.
};

/// `clients` threads each Execute() the next query of `qs` as soon as the
/// previous answer returns, and compare every answer to `expected`. Runs for
/// `seconds` (cycling through `qs`), or one pass over `qs` when seconds <= 0.
QueryLoopResult RunQueryLoop(service::MovingObjectService& svc,
                             const std::vector<QuerySpec>& qs,
                             const std::vector<Answer>& expected,
                             size_t clients, double seconds);

/// Reports a closed loop's query metrics (query_qps, the PRQ/PkNN
/// percentiles, pages_per_query) over windows of [0, span).
void ReportQueryLoop(const QueryLoopResult& r, double span, Report* report);

/// Applies events of `stream` in fixed-size batches, one batch after the
/// other, mirroring each into `mirror` (the benchmark's own copy of the
/// applied state).
struct WriterResult {
  Samples batch_ms;       ///< ApplyBatch acknowledgement latency.
  Samples batch_events;   ///< Events per batch, at its acknowledgement.
  Samples checkpoint_ms;  ///< Checkpoint() calls.
  uint64_t events = 0;
  uint64_t failed = 0;  ///< Rejected batches.
  size_t buffered_max = 0;  ///< Largest shard delta seen after a batch.
  double wall_s = 0.0;      ///< The writer's run time.
  Timestamp last_t = 0.0;
};
struct WriterPlan {
  /// Calls ShardedPebEngine::ApplyBatch directly instead of the service.
  bool direct_engine = false;
  size_t batch_size = 256;
  size_t max_batches = 0;  ///< 0 = until `seconds` elapse.
  double seconds = 0.0;
  size_t checkpoint_every = 0;  ///< Events between checkpoints; 0 = none.
};
WriterResult RunWriter(service::MovingObjectService& svc,
                       engine::ShardedPebEngine& engine, UpdateStream& stream,
                       Dataset* mirror, const WriterPlan& plan,
                       SpanLog* spans = nullptr);

/// Reports a writer's ingest_eps and update percentiles.
void ReportWriter(const WriterResult& w, Report* report);

/// The mixed_durable traffic (see durable.cc) and what it measured.
struct MixedTraffic {
  Samples prq_ms, knn_ms;   ///< From the due time; stamped at it.
  Samples done;             ///< 1 per answered query, at completion.
  Samples queue_ms;         ///< QueryResponse::queue_ms.
  Samples batch_ms;         ///< Update batches, from the tick's due time.
  Samples batch_events;     ///< Events per batch, at its acknowledgement.
  Samples checkpoint_ms;    ///< Checkpoint() calls.
  Samples lateness_ms;      ///< Query generator lateness.
  uint64_t queries = 0, query_failed = 0, fetches = 0, reads = 0;
  uint64_t events = 0, batches_failed = 0;
  uint64_t policy_ops = 0, policy_failed = 0;
  double offered_event_rate = 0.0;
  uint64_t write_bytes = 0;  ///< /proc/self/io write_bytes during the run.
  double flush_ms = 0.0;     ///< The closing Reencode request.
  ReencodeStats reencode;
  Timestamp last_t = 0.0;
};

/// The update stream of `pop` with its mirror; `next` is the next event.
struct Stream {
  Stream(const Population& pop, uint64_t seed);
  UniformUpdateStream stream;
  UpdateEvent next;
  Dataset mirror;
};

/// Applies the stream's events before 2 delta_t_mu (every user's first
/// report is spread over [delta_t_mu/2, 2 delta_t_mu), so the stream only
/// runs at its steady rate after that) and checkpoints.
void PreRoll(System& sys, const Population& pop, Stream* st);

MixedTraffic RunMixedTraffic(System& sys, service::MovingObjectService& svc,
                             const Population& pop, Stream* st,
                             double seconds, uint64_t seed, SpanLog* spans);

/// A service over `sys` (catalog-backed, so policy requests work).
std::unique_ptr<service::MovingObjectService> MakeService(System& sys,
                                                          const Population& pop,
                                                          size_t workers);

/// After writes: drains the deltas and checks `pairs` PRQ/PkNN pairs at
/// `tq` against brute force over `mirror` (the benchmark's own copy of the
/// applied events). Returns the queries and their brute-force answers.
struct Checked {
  std::vector<QuerySpec> queries;
  std::vector<Answer> truth;
};
Checked CheckSample(System& sys, service::MovingObjectService& svc,
                    const Population& pop, const Dataset& mirror, Timestamp tq,
                    size_t pairs, Report* report);

/// The end-of-run durability check: CheckSample, then close, reopen, and
/// replay the sample on the reopened engine with four clients.
struct DurableCheck {
  double reopen_ms = 0.0;
  double db_bytes = 0.0;  ///< Pages in use after the close, in bytes.
};
DurableCheck VerifyDurable(System& sys,
                           std::unique_ptr<service::MovingObjectService>& svc,
                           const Population& pop, const Dataset& mirror,
                           Timestamp tq, Report* report);

/// Records the validity metadata every run prints.
void DescribeRun(const Args& args, const Population& pop, Report* report);

// --- workloads --------------------------------------------------------------

void RunReadPaper(const Args& args, Report* report);
void RunMixedDurable(const Args& args, Report* report);
void RunIngestDurable(const Args& args, Report* report);
/// The traced run: per-layer metrics for every layer.
void RunLayers(const Args& args, Report* report);

}  // namespace perfbench
