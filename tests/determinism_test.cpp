/// Regression tests for the parallel-sweep determinism contract:
///
///  * runExperiment is a pure function of its params — repeated calls are
///    bit-identical (the dataset cache hands out exact clones, or pooled
///    copies rolled back to the prototype, which behave the same);
///  * a parallel sweep (jobs > 1) returns results bit-identical to the
///    sequential sweep, because every point's randomness derives only from
///    its own (config, clients) coordinates, never from scheduling;
///  * sweep points are independent: dropping or reordering points does not
///    perturb the remaining points' results.
///
/// The CI ThreadSanitizer job runs this binary to vet the isolation audit
/// (no shared mutable state between concurrently running simulations).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/dataset_cache.hpp"
#include "core/experiment.hpp"
#include "middleware/db_session.hpp"

namespace mwsim::core {
namespace {

ExperimentParams tinyParams(App app) {
  ExperimentParams p;
  p.app = app;
  p.mix = 1;
  p.clients = 25;
  p.rampUp = 5 * sim::kSecond;
  p.measure = 20 * sim::kSecond;
  p.rampDown = 2 * sim::kSecond;
  p.bookstoreScale = 0.02;
  p.auctionHistoryScale = 0.01;
  p.bbsHistoryScale = 0.01;
  return p;
}

/// Bit-exact equality across every field the benches print. Floating-point
/// values are compared with EXPECT_EQ on purpose: the contract is identical
/// results, not merely close ones.
void expectIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.throughputIpm, b.throughputIpm);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.readWriteInteractions, b.readWriteInteractions);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.meanResponseSeconds, b.meanResponseSeconds);
  EXPECT_EQ(a.p90ResponseSeconds, b.p90ResponseSeconds);
  ASSERT_EQ(a.usage.size(), b.usage.size());
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    EXPECT_EQ(a.usage[i].name, b.usage[i].name);
    EXPECT_EQ(a.usage[i].cpuUtilization, b.usage[i].cpuUtilization);
    EXPECT_EQ(a.usage[i].nicMbps, b.usage[i].nicMbps);
    EXPECT_EQ(a.usage[i].nicUtilization, b.usage[i].nicUtilization);
    EXPECT_EQ(a.usage[i].nicPackets, b.usage[i].nicPackets);
    EXPECT_EQ(a.usage[i].memoryBytes, b.usage[i].memoryBytes);
  }
  ASSERT_EQ(a.tierUsage.size(), b.tierUsage.size());
  for (std::size_t i = 0; i < a.tierUsage.size(); ++i) {
    EXPECT_EQ(a.tierUsage[i].name, b.tierUsage[i].name);
    EXPECT_EQ(a.tierUsage[i].cpuUtilization, b.tierUsage[i].cpuUtilization);
    EXPECT_EQ(a.tierUsage[i].memoryBytes, b.tierUsage[i].memoryBytes);
  }
  ASSERT_EQ(a.traffic.size(), b.traffic.size());
  for (auto ita = a.traffic.begin(), itb = b.traffic.begin(); ita != a.traffic.end();
       ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first);
    EXPECT_EQ(ita->second.messages, itb->second.messages);
    EXPECT_EQ(ita->second.bytes, itb->second.bytes);
    EXPECT_EQ(ita->second.packets, itb->second.packets);
  }
  EXPECT_EQ(a.lockAcquisitions, b.lockAcquisitions);
  EXPECT_EQ(a.contendedLockAcquisitions, b.contendedLockAcquisitions);
  EXPECT_EQ(a.lockWaitSeconds, b.lockWaitSeconds);
  EXPECT_EQ(a.lockManagerWaitSeconds, b.lockManagerWaitSeconds);
  EXPECT_EQ(a.databaseBytes, b.databaseBytes);
  EXPECT_EQ(a.webErrors, b.webErrors);
}

TEST(DeterminismTest, RepeatedRunsAreBitIdentical) {
  auto p = tinyParams(App::Auction);
  p.config = Configuration::WsPhpDb;
  expectIdentical(runExperiment(p), runExperiment(p));
}

TEST(DeterminismTest, CachedCloneMatchesFreshPopulation) {
  // The first run for a key populates the prototype and clones it; the
  // second starts from that copy, rolled back. If clone() or rollback()
  // missed any state, the pair diverges.
  auto p = tinyParams(App::Bookstore);
  p.config = Configuration::WsServletDb;
  p.seed = 7;
  p.bookstoreScale = 0.03;  // private key for this test
  const auto first = runExperiment(p);
  const auto again = runExperiment(p);
  expectIdentical(first, again);
}

/// Runs point A, then point B (another seed, same dataset key), then A
/// again. Every run after the first of a key works on the copy its
/// predecessor wrote to and the cache rolled back, so a write the rollback
/// missed makes the second A diverge from the first, which ran on a fresh
/// clone. `dataSeed` must be private to the caller.
void expectIdenticalAfterAnotherPoint(ExperimentParams a, std::uint64_t dataSeed) {
  a.dataSeed = dataSeed;
  ExperimentParams b = a;
  b.seed = a.seed + 1;
  const auto first = runExperiment(a);
  const auto other = runExperiment(b);
  EXPECT_NE(first.meanResponseSeconds, other.meanResponseSeconds) << "B must run another point";
  expectIdentical(first, runExperiment(a));
}

TEST(DatasetReuseTest, BookstoreShoppingAfterAnotherPoint) {
  // Shopping's buy confirm DELETEs the cart lines: erase and its undo.
  auto p = tinyParams(App::Bookstore);
  p.config = Configuration::WsServletDb;
  p.clients = 60;
  expectIdenticalAfterAnotherPoint(p, 0xABA1);
}

TEST(DatasetReuseTest, AuctionBiddingAfterAnotherPoint) {
  auto p = tinyParams(App::Auction);
  p.config = Configuration::WsPhpDb;
  p.clients = 60;
  expectIdenticalAfterAnotherPoint(p, 0xABA2);
}

TEST(DatasetReuseTest, MasterReplicaAfterAnotherPoint) {
  // Every write fans out to two copies, both pooled and rolled back.
  auto p = tinyParams(App::Auction);
  p.config = Configuration::WsPhpDb;
  p.clients = 60;
  Topology t = canonicalTopology(p.config);
  t.db.replicas = 2;
  t.dbPolicy = mw::DbPolicy::MasterReplica;
  p.topology = t;
  expectIdenticalAfterAnotherPoint(p, 0xABA3);
}

TEST(DeterminismTest, PointSeedDependsOnlyOnCoordinates) {
  const auto s = pointSeed(1, App::Auction, 1, Configuration::WsPhpDb, 100);
  EXPECT_EQ(s, pointSeed(1, App::Auction, 1, Configuration::WsPhpDb, 100));
  EXPECT_NE(s, pointSeed(1, App::Auction, 1, Configuration::WsPhpDb, 200));
  EXPECT_NE(s, pointSeed(1, App::Auction, 1, Configuration::WsServletDb, 100));
  EXPECT_NE(s, pointSeed(2, App::Auction, 1, Configuration::WsPhpDb, 100));
  // Regression: the pre-fix hash dropped app and mix, so figures sharing a
  // (config, clients) grid reused correlated random streams.
  EXPECT_NE(s, pointSeed(1, App::Bookstore, 1, Configuration::WsPhpDb, 100));
  EXPECT_NE(s, pointSeed(1, App::Auction, 0, Configuration::WsPhpDb, 100));
}

TEST(DeterminismTest, PointSeedScenarioTagZeroIsSeedPreserving) {
  // Scenario-off sweeps must keep every pre-scenario seed: a zero tag adds
  // no derivation step, while distinct non-zero tags decorrelate scenario
  // sweeps from the closed-loop sweeps at equal coordinates.
  const auto s = pointSeed(1, App::Auction, 1, Configuration::WsPhpDb, 100);
  EXPECT_EQ(s, pointSeed(1, App::Auction, 1, Configuration::WsPhpDb, 100, 0));
  const auto tagged = pointSeed(1, App::Auction, 1, Configuration::WsPhpDb, 100, 0xBEEF);
  EXPECT_NE(s, tagged);
  EXPECT_NE(tagged, pointSeed(1, App::Auction, 1, Configuration::WsPhpDb, 100, 0xBEF0));
}

TEST(DeterminismTest, PlanCacheWarmthDoesNotPerturbResults) {
  // Plans live in the process-wide StatementCache and persist across runs.
  // The determinism contract requires them to be pure functions of
  // (SQL, catalog signature): a run against a cold cache (every statement
  // parsed and planned fresh) must be bit-identical to one whose plans were
  // all built by an earlier run — otherwise results would depend on which
  // experiments happened to run earlier in the process.
  auto p = tinyParams(App::Bookstore);
  p.config = Configuration::WsServletDbSync;
  mw::StatementCache::global().clear();
  const auto cold = runExperiment(p);
  EXPECT_GT(mw::StatementCache::global().size(), 0u);
  const auto warm = runExperiment(p);
  expectIdentical(cold, warm);
  mw::StatementCache::global().clear();
  const auto coldAgain = runExperiment(p);
  expectIdentical(cold, coldAgain);
}

TEST(DeterminismTest, SweepPointsAreIndependentOfSweepShape) {
  // The pre-fix sweep threaded one mutated params (and one seed) through
  // every point, so removing a point changed the next one's results.
  auto base = tinyParams(App::Auction);
  base.config = Configuration::WsPhpDb;
  const auto both = sweepClients(base, {15, 30});
  const auto justSecond = sweepClients(base, {30});
  ASSERT_EQ(both.size(), 2u);
  ASSERT_EQ(justSecond.size(), 1u);
  expectIdentical(both[1], justSecond[0]);
}

TEST(DeterminismTest, ParallelBookstoreSweepMatchesSequential) {
  const auto base = tinyParams(App::Bookstore);
  const std::vector<Configuration> configs{Configuration::WsPhpDb,
                                           Configuration::WsServletDbSync};
  const std::vector<int> clients{15, 30};
  SweepOptions sequential;  // jobs = 1
  SweepOptions parallel;
  parallel.jobs = 4;
  const auto a = sweepGrid(base, configs, clients, sequential);
  const auto b = sweepGrid(base, configs, clients, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].size(), b[c].size());
    for (std::size_t p = 0; p < a[c].size(); ++p) expectIdentical(a[c][p], b[c][p]);
  }
}

TEST(DeterminismTest, ParallelAuctionSweepMatchesSequential) {
  const auto base = tinyParams(App::Auction);
  const std::vector<Configuration> configs{Configuration::WsServletSepDb,
                                           Configuration::WsServletEjbDb};
  const std::vector<int> clients{15, 30};
  SweepOptions parallel;
  parallel.jobs = 4;
  const auto a = sweepGrid(base, configs, clients, SweepOptions{});
  const auto b = sweepGrid(base, configs, clients, parallel);
  for (std::size_t c = 0; c < a.size(); ++c) {
    for (std::size_t p = 0; p < a[c].size(); ++p) expectIdentical(a[c][p], b[c][p]);
  }
}

TEST(DeterminismTest, ProgressHookSeesEveryPointExactlyOnce) {
  const auto base = tinyParams(App::Auction);
  std::vector<int> seen;
  SweepOptions opts;
  opts.jobs = 4;
  opts.onResult = [&](std::size_t index, const ExperimentParams&,
                      const ExperimentResult&) {
    seen.push_back(static_cast<int>(index));  // serialized by runMany
  };
  const auto results = sweepClients(base, {10, 20, 30}, opts);
  EXPECT_EQ(results.size(), 3u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

TEST(DeterminismTest, TracingDoesNotPerturbSimulatedResults) {
  // Tracing is observation-only: a traced run must report stats
  // byte-identical to the untraced run of the same params.
  auto p = tinyParams(App::Bookstore);
  p.config = Configuration::WsServletDb;
  const auto untraced = runExperiment(p);
  p.trace.enabled = true;
  const auto traced = runExperiment(p);
  expectIdentical(untraced, traced);
  EXPECT_EQ(untraced.trace, nullptr);
  ASSERT_NE(traced.trace, nullptr);
  EXPECT_GT(traced.trace->traces, 0u);
}

TEST(DeterminismTest, TracedSweepIsJobsInvariantIncludingJson) {
  // A traced sweep must be byte-identical across --jobs 1 and --jobs N:
  // the stats AND the serialized trace JSON.
  auto base = tinyParams(App::Auction);
  base.trace.enabled = true;
  const std::vector<Configuration> configs{Configuration::WsPhpDb,
                                           Configuration::WsServletEjbDb};
  const std::vector<int> clients{15, 30};
  SweepOptions parallel;
  parallel.jobs = 4;
  const auto a = sweepGrid(base, configs, clients, SweepOptions{});
  const auto b = sweepGrid(base, configs, clients, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].size(), b[c].size());
    for (std::size_t p = 0; p < a[c].size(); ++p) {
      expectIdentical(a[c][p], b[c][p]);
      ASSERT_NE(a[c][p].trace, nullptr);
      ASSERT_NE(b[c][p].trace, nullptr);
      EXPECT_EQ(trace::chromeTraceJson(*a[c][p].trace),
                trace::chromeTraceJson(*b[c][p].trace));
    }
  }
}

TEST(DatasetCacheTest, SweepSharesOneDataset) {
  auto& cache = DatasetCache::global();
  auto base = tinyParams(App::Auction);
  base.config = Configuration::WsPhpDb;
  base.seed = 1234;                 // fresh key for this test
  base.auctionHistoryScale = 0.02;  // distinct from the other tests' keys
  const auto before = cache.builds();
  const auto clonesBefore = cache.clones();
  SweepOptions opts;
  opts.jobs = 2;
  (void)sweepClients(base, {10, 20, 30}, opts);
  EXPECT_EQ(cache.builds(), before + 1) << "all sweep points must share one prototype";
  EXPECT_LE(cache.clones(), clonesBefore + 2) << "at most one copy per concurrent run";
  const auto clonesAfterSweep = cache.clones();
  (void)sweepClients(base, {15, 25}, SweepOptions{});
  EXPECT_EQ(cache.clones(), clonesAfterSweep) << "later runs must reuse pooled copies";
}

TEST(DatasetCacheTest, CopyThatDoesNotRollBackIsNeverPooled) {
  auto& cache = DatasetCache::global();
  const double scale = 0.011;  // a key of this test's own
  const std::uint64_t dataSeed = 0xBAD;
  db::Database copy = cache.get(App::BulletinBoard, scale, dataSeed);
  copy.table("categories").insert({db::Value(999), db::Value("extra")});
  copy.checkpoint();  // forgets the insert, so rollback() keeps it
  EXPECT_THROW(cache.put(App::BulletinBoard, scale, dataSeed, std::move(copy)),
               std::logic_error);
  const auto clones = cache.clones();
  (void)cache.get(App::BulletinBoard, scale, dataSeed);
  EXPECT_EQ(cache.clones(), clones + 1) << "the failed copy must not be pooled";
}

}  // namespace
}  // namespace mwsim::core
