// Log-structured ingestion tests: every engine response — PRQ, PkNN,
// GetObject, size, continuous-query results and event streams — must equal
// a single PEB-tree that applies the same events directly, and the query
// answers must equal the brute-force Definition 2/3 scans (test_util.h)
// over a dataset replayed with those events, across shard counts, under
// randomized interleavings of update batches, joins/leaves, queries, and
// explicit merges. A concurrent smoke (background merge thread + writers +
// readers) runs under the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "peb/continuous.h"
#include "test_util.h"

namespace peb {
namespace {

using engine::EngineOptions;
using engine::ShardedPebEngine;
using eval::CloneUniformUpdateStream;
using eval::MakePknnQueries;
using eval::MakePrqQueries;
using eval::QuerySetOptions;
using eval::Workload;
using eval::WorkloadParams;

std::unique_ptr<ShardedPebEngine> MakeDeltaEngine(Workload& w, size_t shards,
                                                  size_t merge_threshold,
                                                  size_t hard_cap = 0,
                                                  size_t background_ms = 0,
                                                  bool paranoid = true) {
  EngineOptions opts;
  opts.num_shards = shards;
  opts.num_threads = shards == 1 ? 0 : 4;
  opts.buffer_pages = w.params().buffer_pages;
  opts.tree = eval::PebOptionsFor(w.params());
  opts.tree.index.paranoid_checks = paranoid;
  opts.delta.merge_threshold = merge_threshold;
  opts.delta.hard_cap = hard_cap;
  opts.delta.background_merge_period_ms = background_ms;
  auto engine = std::make_unique<ShardedPebEngine>(
      opts, &w.store(), &w.roles(), w.catalog()->snapshot());
  EXPECT_TRUE(engine->LoadDataset(w.dataset()).ok());
  return engine;
}

/// The oracle world: one PEB-tree that applies every event directly to its
/// B+-tree, plus the logical object table replayed with the same events
/// for the brute-force scans.
struct Oracle {
  explicit Oracle(Workload& w) {
    pool = std::make_unique<BufferPool>(
        &disk, BufferPoolOptions{w.params().buffer_pages});
    tree = std::make_unique<PebTree>(pool.get(),
                                     eval::PebOptionsFor(w.params()),
                                     &w.store(), &w.roles(),
                                     w.catalog()->snapshot());
    for (const MovingObject& o : w.dataset().objects) {
      EXPECT_TRUE(tree->Insert(o).ok());
      live[o.id] = o;
    }
  }

  Status Insert(const MovingObject& o) {
    Status st = tree->Insert(o);
    if (st.ok()) live[o.id] = o;
    return st;
  }
  /// Upsert, like ApplyBatch.
  Status Update(const MovingObject& o) {
    Status st = tree->Update(o);
    if (st.ok()) live[o.id] = o;
    return st;
  }
  Status Delete(UserId id) {
    Status st = tree->Delete(id);
    if (st.ok()) live.erase(id);
    return st;
  }

  Dataset Replayed() const {
    Dataset ds;
    for (const auto& [id, o] : live) ds.objects.push_back(o);
    return ds;
  }

  InMemoryDiskManager disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PebTree> tree;
  std::map<UserId, MovingObject> live;
};

std::vector<Neighbor> Normalized(std::vector<Neighbor> v) {
  std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.uid < b.uid;
  });
  return v;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& want,
                         const std::vector<Neighbor>& got,
                         const char* context) {
  std::vector<Neighbor> gn = Normalized(got);
  ASSERT_EQ(gn.size(), want.size()) << context;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(gn[r].uid, want[r].uid) << context << " rank " << r;
    EXPECT_EQ(gn[r].distance, want[r].distance) << context << " rank " << r;
  }
}

/// Every query answer of the engine equal to the brute-force scan of the
/// oracle's replayed dataset AND to the oracle tree, plus size agreement.
void ExpectSameAnswers(Workload& w, ShardedPebEngine& got, Oracle& oracle,
                       uint64_t query_seed, const char* context) {
  const Dataset ds = oracle.Replayed();
  const double td = w.params().time_domain;
  EXPECT_EQ(got.size(), ds.objects.size()) << context;
  EXPECT_EQ(oracle.tree->size(), ds.objects.size()) << context;
  QuerySetOptions q;
  q.count = 10;
  q.window_side = 250.0;
  q.seed = query_seed;
  for (const auto& prq : MakePrqQueries(w, q)) {
    const std::vector<UserId> want = testing::BruteForcePrq(
        ds, w.store(), w.roles(), prq.issuer, prq.range, prq.tq, td);
    auto a = got.RangeQuery(prq.issuer, prq.range, prq.tq);
    auto b = oracle.tree->RangeQuery(prq.issuer, prq.range, prq.tq);
    ASSERT_TRUE(a.ok() && b.ok()) << context;
    EXPECT_EQ(*a, want) << context;
    EXPECT_EQ(*b, want) << context;
  }
  for (const auto& knn : MakePknnQueries(w, q)) {
    const std::vector<Neighbor> want = testing::BruteForcePknn(
        ds, w.store(), w.roles(), knn.issuer, knn.qloc, knn.k, knn.tq, td);
    auto a = got.KnnQuery(knn.issuer, knn.qloc, knn.k, knn.tq);
    auto b = oracle.tree->KnnQuery(knn.issuer, knn.qloc, knn.k, knn.tq);
    ASSERT_TRUE(a.ok() && b.ok()) << context;
    ExpectSameNeighbors(want, *a, context);
    ExpectSameNeighbors(want, *b, context);
  }
}

// ---------------------------------------------------------------------------
// Randomized interleaving vs the oracles
// ---------------------------------------------------------------------------

class DeltaIngestOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeltaIngestOracleTest, RandomInterleavingMatchesOracles) {
  const size_t shards = GetParam();
  WorkloadParams wp;
  wp.num_users = 500;
  wp.policies_per_user = 10;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 29;
  Workload w = Workload::Build(wp);

  // Small merge threshold so the interleaving crosses many merge points;
  // paranoid_checks audits delta/tree agreement inside every one of them.
  auto delta = MakeDeltaEngine(w, shards, /*merge_threshold=*/48);
  Oracle oracle(w);

  // One deterministic event sequence, applied to the engine and the oracle.
  auto stream = CloneUniformUpdateStream(w);
  ASSERT_NE(stream, nullptr);

  // Continuous queries over the engine and the oracle tree, fed
  // identically in stream order.
  ContinuousQueryMonitor mon_delta(delta.get(), &w.store(), &w.roles(),
                                   w.catalog()->snapshot());
  ContinuousQueryMonitor mon_oracle(oracle.tree.get(), &w.store(), &w.roles(),
                                    w.catalog()->snapshot());
  Timestamp now = w.params().delta_t_mu;
  std::vector<ContinuousQueryId> cq_delta;
  std::vector<ContinuousQueryId> cq_oracle;
  {
    QuerySetOptions q;
    q.count = 5;
    q.window_side = 300.0;
    q.seed = 4242;
    for (const auto& prq : MakePrqQueries(w, q)) {
      auto a = mon_delta.Register(prq.issuer, prq.range, now);
      auto b = mon_oracle.Register(prq.issuer, prq.range, now);
      ASSERT_TRUE(a.ok() && b.ok());
      cq_delta.push_back(*a);
      cq_oracle.push_back(*b);
    }
    // Seeding runs through each index's PRQ: identical already.
    EXPECT_EQ(mon_delta.TakeEvents(), mon_oracle.TakeEvents());
  }

  std::mt19937 rng(1000 + shards);
  std::vector<UserId> alive(wp.num_users);
  for (UserId u = 0; u < wp.num_users; ++u) alive[u] = u;
  std::vector<UserId> removed;

  auto check_continuous = [&](const char* context) {
    for (size_t i = 0; i < cq_delta.size(); ++i) {
      auto a = mon_delta.ResultOf(cq_delta[i]);
      auto b = mon_oracle.ResultOf(cq_oracle[i]);
      ASSERT_TRUE(a.ok() && b.ok()) << context;
      EXPECT_EQ(*a, *b) << context << " continuous query " << i;
    }
  };

  for (int round = 0; round < 40; ++round) {
    switch (rng() % 6) {
      case 0:
      case 1: {  // Update batch, identically applied and monitor-fed.
        const size_t n = 1 + rng() % 96;
        std::vector<UpdateEvent> batch;
        batch.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          batch.push_back(stream->Next());
        }
        ASSERT_TRUE(delta->ApplyBatch(batch).ok());
        for (const UpdateEvent& ev : batch) {
          ASSERT_TRUE(oracle.Update(ev.state).ok());
          now = std::max(now, ev.t);
          // ApplyBatch upserts: a removed user who updates rejoins.
          removed.erase(std::remove(removed.begin(), removed.end(),
                                    ev.state.id),
                        removed.end());
          ASSERT_TRUE(mon_delta.OnUpdate(ev.state, ev.t).ok());
          ASSERT_TRUE(mon_oracle.OnUpdate(ev.state, ev.t).ok());
        }
        break;
      }
      case 2: {  // Leave: tombstone in the delta, tree delete in the oracle.
        const UserId uid = static_cast<UserId>(rng() % wp.num_users);
        Status a = delta->Delete(uid);
        Status b = oracle.Delete(uid);
        ASSERT_EQ(a.ok(), b.ok()) << a.message() << " vs " << b.message();
        EXPECT_EQ(a.message(), b.message());
        if (a.ok()) removed.push_back(uid);
        ASSERT_TRUE(mon_delta.Advance(now).ok());
        ASSERT_TRUE(mon_oracle.Advance(now).ok());
        break;
      }
      case 3: {  // Join: sparse re-insert of a previously removed user.
        if (removed.empty()) break;
        const size_t pick = rng() % removed.size();
        const UserId uid = removed[pick];
        MovingObject obj;
        obj.id = uid;
        obj.pos = {static_cast<double>(rng() % 1000),
                   static_cast<double>(rng() % 1000)};
        obj.vel = {1.0, -1.0};
        obj.tu = now;
        Status a = delta->Insert(obj);
        Status b = oracle.Insert(obj);
        ASSERT_EQ(a.ok(), b.ok()) << a.message() << " vs " << b.message();
        EXPECT_EQ(a.message(), b.message());
        removed.erase(removed.begin() + static_cast<ptrdiff_t>(pick));
        ASSERT_TRUE(mon_delta.OnUpdate(obj, now).ok());
        ASSERT_TRUE(mon_oracle.OnUpdate(obj, now).ok());
        break;
      }
      case 4: {  // Explicit merge: must not change any answer.
        ASSERT_TRUE(delta->MergeDeltas().ok());
        break;
      }
      default: {  // Duplicate-insert status parity.
        const UserId uid = static_cast<UserId>(rng() % wp.num_users);
        MovingObject obj;
        obj.id = uid;
        obj.tu = now;
        Status a = delta->Insert(obj);
        Status b = oracle.Insert(obj);
        ASSERT_EQ(a.ok(), b.ok());
        EXPECT_EQ(a.message(), b.message());
        if (a.ok()) {  // Was removed: keep the indexes and books in sync.
          removed.erase(std::remove(removed.begin(), removed.end(), uid),
                        removed.end());
          ASSERT_TRUE(mon_delta.OnUpdate(obj, now).ok());
          ASSERT_TRUE(mon_oracle.OnUpdate(obj, now).ok());
        }
        break;
      }
    }
    if (round % 4 == 0) {
      ExpectSameAnswers(w, *delta, oracle,
                        2000 + static_cast<uint64_t>(round), "round");
      check_continuous("round");
      EXPECT_EQ(mon_delta.TakeEvents(), mon_oracle.TakeEvents());
      // Spot-check GetObject, including tombstoned users.
      for (int probe = 0; probe < 8; ++probe) {
        const UserId uid = static_cast<UserId>(rng() % wp.num_users);
        auto a = delta->GetObject(uid);
        auto b = oracle.tree->GetObject(uid);
        ASSERT_EQ(a.ok(), b.ok()) << "GetObject " << uid;
        if (a.ok()) {
          EXPECT_EQ((*a).pos.x, (*b).pos.x);
          EXPECT_EQ((*a).pos.y, (*b).pos.y);
          EXPECT_EQ((*a).tu, (*b).tu);
        } else {
          EXPECT_EQ(a.status().message(), b.status().message());
        }
      }
    }
    if (round % 8 == 0) {
      ASSERT_TRUE(delta->ValidateInvariants().ok());
    }
  }

  // Settle and compare once more: a fully merged engine must still agree,
  // and its buffers must actually be empty.
  ASSERT_TRUE(delta->MergeDeltas().ok());
  EXPECT_EQ(delta->delta_stats().buffered_records, 0u);
  EXPECT_GT(delta->delta_stats().merges, 0u);
  EXPECT_GT(delta->delta_stats().appended_total, 0u);
  ExpectSameAnswers(w, *delta, oracle, 9999, "final");
  check_continuous("final");
  EXPECT_EQ(mon_delta.TakeEvents(), mon_oracle.TakeEvents());
  ASSERT_TRUE(delta->ValidateInvariants().ok());
  ASSERT_TRUE(oracle.tree->ValidateInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, DeltaIngestOracleTest,
                         ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

TEST(DeltaIngestBackpressure, HardCapForcesInlineMergeOnTheWriter) {
  WorkloadParams wp;
  wp.num_users = 300;
  wp.policies_per_user = 8;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 31;
  Workload w = Workload::Build(wp);
  // Threshold high enough that only the hard cap can trigger merges.
  auto delta = MakeDeltaEngine(w, 2, /*merge_threshold=*/1u << 20,
                               /*hard_cap=*/32);
  Oracle oracle(w);
  auto stream = CloneUniformUpdateStream(w);
  for (int i = 0; i < 400; ++i) {
    UpdateEvent ev = stream->Next();
    ASSERT_TRUE(delta->Update(ev.state).ok());
    ASSERT_TRUE(oracle.Update(ev.state).ok());
    // The per-shard buffer never grows past the cap plus the one record
    // appended after the forced merge.
    for (size_t s = 0; s < delta->num_shards(); ++s) {
      EXPECT_LE(delta->shard_delta_records(s), 33u);
    }
  }
  const auto stats = delta->delta_stats();
  EXPECT_GT(stats.backpressure_merges, 0u);
  EXPECT_EQ(stats.appended_total, 400u);
  ExpectSameAnswers(w, *delta, oracle, 777, "backpressure");
}

// ---------------------------------------------------------------------------
// Concurrent smoke: background merge thread + writers + readers (TSan)
// ---------------------------------------------------------------------------

TEST(DeltaIngestConcurrency, QueriesRaceUpdatesAndBackgroundMerges) {
  WorkloadParams wp;
  wp.num_users = 300;
  wp.policies_per_user = 8;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 37;
  Workload w = Workload::Build(wp);
  // Background merges every 1ms race the foreground traffic; paranoid off
  // so merge sections stay short and the interleaving space stays large.
  auto delta = MakeDeltaEngine(w, 4, /*merge_threshold=*/32, /*hard_cap=*/0,
                               /*background_ms=*/1, /*paranoid=*/false);
  Oracle oracle(w);
  auto stream = CloneUniformUpdateStream(w);

  constexpr size_t kBatches = 60;
  constexpr size_t kBatchSize = 20;
  std::vector<std::vector<UpdateEvent>> batches(kBatches);
  for (auto& batch : batches) {
    for (size_t i = 0; i < kBatchSize; ++i) {
      batch.push_back(stream->Next());
    }
  }

  // Bounded reader loops with yield gaps: an unbounded 100% shared-lock
  // duty cycle from several readers can starve the merge sections' writer
  // acquisition forever on reader-preferring rwlocks — a test pathology,
  // not an engine property (merges only need the occasional gap real
  // query traffic always has).
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const auto& batch : batches) {
      EXPECT_TRUE(delta->ApplyBatch(batch).ok());
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(100 + r);
      QuerySetOptions q;
      q.count = 4;
      q.window_side = 250.0;
      q.seed = 600 + static_cast<uint64_t>(r);
      auto prqs = MakePrqQueries(w, q);
      auto knns = MakePknnQueries(w, q);
      for (int it = 0; it < 40 && !done.load(std::memory_order_acquire);
           ++it) {
        for (const auto& prq : prqs) {
          EXPECT_TRUE(
              delta->RangeQuery(prq.issuer, prq.range, prq.tq).ok());
        }
        for (const auto& knn : knns) {
          EXPECT_TRUE(
              delta->KnnQuery(knn.issuer, knn.qloc, knn.k, knn.tq).ok());
        }
        (void)delta->GetObject(static_cast<UserId>(rng() % wp.num_users));
        (void)delta->size();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::thread validator([&] {
    for (int it = 0; it < 20 && !done.load(std::memory_order_acquire);
         ++it) {
      EXPECT_TRUE(delta->ValidateInvariants().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  writer.join();
  for (auto& t : readers) t.join();
  validator.join();

  // Settle and compare against the oracle replayed at the same prefix.
  for (const auto& batch : batches) {
    for (const UpdateEvent& ev : batch) {
      ASSERT_TRUE(oracle.Update(ev.state).ok());
    }
  }
  ASSERT_TRUE(delta->MergeDeltas().ok());
  ExpectSameAnswers(w, *delta, oracle, 888, "concurrent-settled");
  ASSERT_TRUE(delta->ValidateInvariants().ok());
}

}  // namespace
}  // namespace peb
