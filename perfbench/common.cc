#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "motion/uniform_generator.h"

namespace perfbench {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

void Fatal(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n";
  std::exit(3);
}

void CheckOk(const Status& s, const std::string& what) {
  if (!s.ok()) Fatal(what + ": " + s.ToString());
}

size_t Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// --- queries and answers ----------------------------------------------------

service::QueryRequest QuerySpec::Request() const {
  return knn ? service::QueryRequest::Pknn(issuer, qloc, k, tq)
             : service::QueryRequest::Prq(issuer, range, tq);
}

Answer AnswerOf(const service::QueryResponse& r) {
  return Answer{r.ids, r.neighbors};
}

bool SameAnswer(const QuerySpec& q, const Answer& a, const Answer& b) {
  if (!q.knn) return a.ids == b.ids;
  const auto& x = a.neighbors;
  const auto& y = b.neighbors;
  if (x.size() != y.size()) return false;
  constexpr double kEps = 1e-7;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i].distance - y[i].distance) > kEps) return false;
  }
  // Ids must agree as sets, except among neighbors tied with the k-th
  // distance, where either tied user is a correct answer.
  const double kth = x.empty() ? 0.0 : x.back().distance;
  std::vector<UserId> xs, ys;
  for (const Neighbor& n : x) {
    if (n.distance < kth - kEps) xs.push_back(n.uid);
  }
  for (const Neighbor& n : y) {
    if (n.distance < kth - kEps) ys.push_back(n.uid);
  }
  std::sort(xs.begin(), xs.end());
  std::sort(ys.begin(), ys.end());
  return xs == ys;
}

// --- population -------------------------------------------------------------

std::unique_ptr<Population> MakePopulation(uint64_t seed) {
  auto t0 = Clock::now();
  auto pop = std::make_unique<Population>();
  pop->seed = seed;
  eval::WorkloadParams& p = pop->params;  // Table-1 defaults.
  // Users and policies come from one fixed seed: every run indexes the
  // same population, and `seed` draws what varies between runs (queries,
  // arrivals, policy mutations, the update stream). Populations drawn from
  // different seeds differ by a few percent in the cost of the same
  // workload, which would otherwise dominate the run-to-run spread.
  p.seed = kPopulationSeed;

  UniformGeneratorOptions gen;
  gen.num_objects = p.num_users;
  gen.space_side = p.space_side;
  gen.max_speed = p.max_speed;
  gen.stagger_window = p.delta_t_mu;
  gen.seed = p.seed;
  pop->dataset = GenerateUniformDataset(gen);

  PolicyGeneratorOptions pg;
  pg.num_users = p.num_users;
  pg.policies_per_user = p.policies_per_user;
  pg.grouping_factor = p.grouping_factor;
  pg.space = Rect::Space(p.space_side);
  pg.time_domain = p.time_domain;
  pg.seed = p.seed * 0x9E3779B97F4A7C15ull + 0x9E37;
  GeneratedPolicies gp = GeneratePolicies(pg);
  pop->store = std::move(gp.store);
  pop->roles = std::move(gp.roles);
  pop->friend_role = gp.friend_role;
  pop->gen_seconds = SecondsSince(t0);
  return pop;
}

std::vector<QuerySpec> MakeQueries(const Population& pop,
                                   const Dataset& objects, size_t count,
                                   Timestamp tq, uint64_t salt) {
  Rng rng(pop.seed * 0xD1B54A32D192ED03ull + salt);
  const eval::WorkloadParams& p = pop.params;
  const double window_side = 200.0;  // Table 1 PRQ window.
  const size_t k = 5;                // Table 1 k.
  std::vector<QuerySpec> out;
  out.reserve(2 * count);
  for (size_t i = 0; i < count; ++i) {
    QuerySpec prq;
    prq.issuer = static_cast<UserId>(rng.NextBelow(p.num_users));
    Point center{rng.Uniform(0.0, p.space_side),
                 rng.Uniform(0.0, p.space_side)};
    prq.range = Rect::CenteredSquare(center, window_side)
                    .ClampedTo(Rect::Space(p.space_side));
    prq.tq = tq;
    out.push_back(prq);

    QuerySpec knn;
    knn.knn = true;
    knn.issuer = static_cast<UserId>(rng.NextBelow(p.num_users));
    knn.k = k;
    knn.tq = tq;
    knn.qloc = objects.objects[knn.issuer].PositionAt(tq);
    out.push_back(knn);
  }
  return out;
}

namespace {

/// Definition 2 (PRQ) / Definition 3 (PkNN) over `candidates`, checked with
/// PolicyStore::Allows at each user's position at the query time.
Answer BruteForce(const QuerySpec& q, const Dataset& objects,
                  const std::vector<UserId>& candidates,
                  const PolicyStore& store, const RoleRegistry& roles,
                  double time_domain) {
  Answer out;
  for (UserId id : candidates) {
    const MovingObject& o = objects.objects[id];
    if (o.id == q.issuer) continue;
    Point pos = o.PositionAt(q.tq);
    if (!q.knn && !q.range.Contains(pos)) continue;
    if (!store.Allows(o.id, q.issuer, pos, q.tq, roles, time_domain)) continue;
    if (q.knn) {
      out.neighbors.push_back({o.id, pos.DistanceTo(q.qloc)});
    } else {
      out.ids.push_back(o.id);
    }
  }
  std::sort(out.ids.begin(), out.ids.end());
  std::sort(out.neighbors.begin(), out.neighbors.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.uid < b.uid;
            });
  if (out.neighbors.size() > q.k) out.neighbors.resize(q.k);
  return out;
}

}  // namespace

std::vector<Answer> BruteForceAll(const std::vector<QuerySpec>& qs,
                                  const Dataset& objects,
                                  const PolicyStore& store,
                                  const RoleRegistry& roles,
                                  double time_domain, size_t threads) {
  // Only a user with at least one policy toward the issuer can satisfy
  // Definition 2 or 3, so each query checks exactly those users: every
  // object whose own peer list (PolicyStore::PeersOf) names the issuer.
  // The lists come from the store, not from the engine's encoding.
  std::vector<std::vector<UserId>> grantors(objects.objects.size());
  for (const MovingObject& o : objects.objects) {
    for (UserId peer : store.PeersOf(o.id)) {
      if (peer < grantors.size()) grantors[peer].push_back(o.id);
    }
  }
  std::vector<Answer> out(qs.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < qs.size(); i = next++) {
        out[i] = BruteForce(qs[i], objects, grantors[qs[i].issuer], store,
                            roles, time_domain);
      }
    });
  }
  for (auto& t : pool) t.join();
  return out;
}

// --- set-up -----------------------------------------------------------------

namespace {

/// Deployment settings only: every tuning knob keeps its default.
engine::EngineOptions EngineOptionsFor(const Population& pop,
                                       const Deployment& dep) {
  engine::EngineOptions eo;
  eo.tree = eval::PebOptionsFor(pop.params);
  eo.buffer_pages = dep.buffer_pages;
  eo.durability.path = dep.db_path;
  eo.durability.sync_each_batch = true;
  return eo;
}

void RemoveDatabase(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".wal", ec);
}

}  // namespace

void BuildEngine(System* sys, const Population& pop, const Deployment& dep) {
  sys->engine.reset();
  RemoveDatabase(dep.db_path);
  sys->options = EngineOptionsFor(pop, dep);
  sys->engine = std::make_unique<engine::ShardedPebEngine>(
      sys->options, &sys->catalog->store(), &sys->catalog->roles(),
      sys->catalog->snapshot());
  CheckOk(sys->engine->durability_status(), "engine construction");
  CheckOk(sys->engine->LoadDataset(pop.dataset), "LoadDataset");
  if (sys->engine->durable()) CheckOk(sys->engine->Checkpoint(), "checkpoint");
}

System SetUp(Population* pop, const Deployment& dep, size_t repeats,
             double* setup_s) {
  System sys;
  CatalogOptions cat;
  cat.num_users = pop->params.num_users;
  cat.compat.space = Rect::Space(pop->params.space_side);
  cat.compat.time_domain = pop->params.time_domain;
  cat.sv_scale = pop->params.sv_scale;
  cat.sv_bits = pop->params.sv_bits;
  cat.strategy = pop->params.sequence_strategy;

  Samples seconds;
  for (size_t r = 0; r < repeats; ++r) {
    sys.engine.reset();  // The previous repeat's shutdown is not set-up.
    RemoveDatabase(dep.db_path);
    auto t0 = Clock::now();
    if (r == 0) {
      sys.catalog = std::make_unique<PolicyCatalog>(
          std::move(pop->store), std::move(pop->roles), cat);
    } else {
      CheckOk(sys.catalog->RebuildFull().status(), "policy re-encoding");
    }
    BuildEngine(&sys, *pop, dep);
    seconds.Add(SecondsSince(t0));
  }
  *setup_s = seconds.Percentile(50);
  return sys;
}

double CloseAndReopen(System* sys) {
  sys->engine.reset();
  auto t0 = Clock::now();
  auto opened = engine::ShardedPebEngine::Open(
      sys->options, &sys->catalog->store(), &sys->catalog->roles(),
      sys->catalog->snapshot());
  double ms = MsBetween(t0, Clock::now());
  CheckOk(opened.status(), "ShardedPebEngine::Open");
  sys->engine = std::move(*opened);
  return ms;
}

// --- statistics -------------------------------------------------------------

void Samples::Append(const Samples& o) {
  v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  t_.insert(t_.end(), o.t_.begin(), o.t_.end());
  sorted_.clear();
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0.0;
  if (sorted_.empty()) {
    sorted_ = v_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v_.size()));
  rank = std::clamp<size_t>(rank, 1, v_.size());
  return sorted_[rank - 1];
}

bool Samples::Resolves(double p) const {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v_.size()));
  return v_.size() >= rank + 10;
}

double Samples::Max() const {
  return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

double Samples::Sum() const {
  double s = 0.0;
  for (double v : v_) s += v;
  return s;
}

std::vector<Samples> Samples::Windows(size_t windows, double span) const {
  std::vector<Samples> out(windows);
  for (size_t i = 0; i < v_.size(); ++i) {
    double w = std::floor(t_[i] / span * static_cast<double>(windows));
    size_t idx = static_cast<size_t>(
        std::clamp(w, 0.0, static_cast<double>(windows - 1)));
    out[idx].Add(v_[i], t_[i]);
  }
  return out;
}

std::vector<Samples> Samples::Chunks(size_t chunks) const {
  std::vector<size_t> order(v_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return t_[a] < t_[b]; });
  std::vector<Samples> out(chunks);
  for (size_t r = 0; r < order.size(); ++r) {
    out[r * chunks / order.size()].Add(v_[order[r]], t_[order[r]]);
  }
  return out;
}

ProcIo ReadProcIo() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") io.wchar = value;
    if (key == "write_bytes:") io.write_bytes = value;
  }
  return io;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- spans ------------------------------------------------------------------

void SpanLog::Add(uint64_t id, const char* layer, Clock::time_point start,
                  Clock::time_point end) {
  MutexLock lock(&mu_);
  spans_.push_back(Span{id, layer, start, end});
}

size_t SpanLog::size() const {
  MutexLock lock(&mu_);
  return spans_.size();
}

void SpanLog::Write(const std::string& path) const {
  MutexLock lock(&mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.layer
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
        << ", \"args\": {\"request\": " << s.id << "}}";
  }
  out << "\n]}\n";
}

// --- report -----------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  if (!std::isfinite(value)) {
    Invalid(name + " is not a finite number");
    return;
  }
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Entry{value, unit, samples};
}

void Report::Percentile(const std::string& name, const Samples& s, double p) {
  // As many chunks, up to kWindows, as leave ten samples beyond the
  // percentile in each.
  const size_t min_chunk =
      static_cast<size_t>(std::ceil(10.0 / (1.0 - p / 100.0)));
  const size_t chunks = std::clamp<size_t>(s.count() / min_chunk, 1, kWindows);
  Samples per_chunk;
  std::ostringstream os;
  os << s.Percentile(p) << " ms over the whole run; chunks";
  for (const Samples& c : s.Chunks(chunks)) {
    os << " " << c.Percentile(p);
    per_chunk.Add(c.Percentile(p));
    if (!c.Resolves(p)) {
      os << " (" << c.count() << " samples: too few)";
      Invalid(name + ": fewer than ten samples beyond the percentile in a "
                     "chunk of the run");
    }
  }
  Meta(name + "_whole_run", os.str());
  Metric(name, per_chunk.Percentile(50), "ms", s.count());
}

void Report::Rate(const std::string& name, const Samples& s, double span,
                  const std::string& unit) {
  Samples per_window;
  std::ostringstream os;
  os << s.Sum() / span << " " << unit << " over the whole run; windows";
  for (const Samples& w : s.Windows(kWindows, span)) {
    const double rate = w.Sum() / (span / static_cast<double>(kWindows));
    per_window.Add(rate);
    os << " " << rate;
  }
  Meta(name + "_whole_run", os.str());
  Metric(name, per_window.Percentile(50), unit, s.count());
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void Report::Meta(const std::string& key, double value) {
  std::ostringstream os;
  os << value;
  Meta(key, os.str());
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Wrong(const std::string& what) {
  if (wrong_.size() < 20) std::cerr << "perfbench: WRONG: " << what << "\n";
  wrong_.push_back(what);
}

void Report::Invalid(const std::string& what) {
  std::cerr << "perfbench: INVALID: " << what << "\n";
  invalid_.push_back(what);
}

int Report::Print() const {
  for (const auto& [k, v] : meta_) std::cout << "# " << k << ": " << v << "\n";
  char buf[64];
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::snprintf(buf, sizeof(buf), "%.6g", e.value);
    std::cout << "metric " << name << " = " << buf << " " << e.unit;
    if (e.samples > 0) std::cout << "  (n=" << e.samples << ")";
    std::cout << "\n";
  }
  const double failed_frac =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::cout << "# failed_frac: " << failed_frac << " (" << failed_ << " of "
            << attempted_ << " operations failed, were shed or were wrong)\n";
  if (!invalid_.empty()) {
    std::cerr << "perfbench: run invalid; no result reported\n";
    return 2;
  }
  if (attempted_ == 0) {
    std::cerr << "perfbench: no operation attempted\n";
    return 2;
  }
  std::ostringstream js;
  js << "{\"correct\": " << (wrong_.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return wrong_.empty() ? 0 : 1;
}

}  // namespace perfbench
