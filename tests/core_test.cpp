#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "core/dataset_cache.hpp"
#include "core/experiment.hpp"
#include "workload/client.hpp"

namespace mwsim::core {
namespace {

ExperimentParams smallParams(Configuration config, App app, int mix, int clients) {
  ExperimentParams p;
  p.config = config;
  p.app = app;
  p.mix = mix;
  p.clients = clients;
  p.rampUp = 20 * sim::kSecond;
  p.measure = 60 * sim::kSecond;
  p.rampDown = 5 * sim::kSecond;
  p.bookstoreScale = 0.02;
  p.auctionHistoryScale = 0.01;
  return p;
}

TEST(ConfigurationTest, NamesMatchPaper) {
  EXPECT_STREQ(configurationName(Configuration::WsPhpDb), "WsPhp-DB");
  EXPECT_STREQ(configurationName(Configuration::WsServletDbSync), "WsServlet-DB(sync)");
  EXPECT_STREQ(configurationName(Configuration::WsServletSepDb), "Ws-Servlet-DB");
  EXPECT_STREQ(configurationName(Configuration::WsServletEjbDb), "Ws-Servlet-EJB-DB");
  EXPECT_EQ(allConfigurations().size(), 6u);
}

TEST(ExperimentTest, PhpAuctionRunsAndMeasures) {
  auto result = runExperiment(smallParams(Configuration::WsPhpDb, App::Auction, 1, 50));
  EXPECT_GT(result.throughputIpm, 100.0);
  EXPECT_GT(result.interactions, 100u);
  EXPECT_GT(result.queries, 0u);
  EXPECT_GT(result.meanResponseSeconds, 0.0);
  // PHP topology: web + db only.
  ASSERT_EQ(result.usage.size(), 2u);
  EXPECT_EQ(result.usage[0].name, "WebServer");
  EXPECT_EQ(result.usage[1].name, "Database");
  EXPECT_GT(result.usage[0].cpuUtilization, 0.0);
  EXPECT_GT(result.usage[1].cpuUtilization, 0.0);
  EXPECT_LT(result.usage[0].cpuUtilization, 1.01);
}

TEST(ExperimentTest, SeparateServletTopologyHasThreeMachines) {
  auto result =
      runExperiment(smallParams(Configuration::WsServletSepDb, App::Auction, 1, 50));
  ASSERT_EQ(result.usage.size(), 3u);
  EXPECT_EQ(result.usage[2].name, "Servlet Container");
  EXPECT_GT(result.usage[2].cpuUtilization, 0.0);
  // AJP traffic crossed the LAN.
  EXPECT_GT(result.traffic.count({"WebServer", "Servlet Container"}), 0u);
}

TEST(ExperimentTest, EjbTopologyHasFourMachines) {
  auto result =
      runExperiment(smallParams(Configuration::WsServletEjbDb, App::Auction, 1, 30));
  ASSERT_EQ(result.usage.size(), 4u);
  EXPECT_EQ(result.usage[3].name, "EJB Server");
  EXPECT_GT(result.usage[3].cpuUtilization, 0.0);
  // RMI and CMP traffic exist.
  EXPECT_GT(result.traffic.count({"Servlet Container", "EJB Server"}), 0u);
  EXPECT_GT(result.traffic.count({"EJB Server", "Database"}), 0u);
}

TEST(ExperimentTest, BookstoreRuns) {
  auto result = runExperiment(smallParams(Configuration::WsPhpDb, App::Bookstore, 1, 30));
  EXPECT_GT(result.throughputIpm, 50.0);
  EXPECT_GT(result.lockAcquisitions, 0u);
  EXPECT_GT(result.databaseBytes, 1'000'000u);
  // Memory accounting present (paper §5.1 reports ~410 MB on the database).
  EXPECT_GT(result.usage[1].memoryBytes, 10'000'000);
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  const auto a = runExperiment(smallParams(Configuration::WsPhpDb, App::Auction, 1, 25));
  const auto b = runExperiment(smallParams(Configuration::WsPhpDb, App::Auction, 1, 25));
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_DOUBLE_EQ(a.throughputIpm, b.throughputIpm);
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  auto p = smallParams(Configuration::WsPhpDb, App::Auction, 1, 25);
  const auto a = runExperiment(p);
  p.seed = 99;
  const auto b = runExperiment(p);
  EXPECT_NE(a.interactions, b.interactions);
}

TEST(ExperimentTest, ThroughputScalesWithClientsBelowSaturation) {
  auto p = smallParams(Configuration::WsPhpDb, App::Auction, 1, 20);
  const auto r20 = runExperiment(p);
  p.clients = 60;
  const auto r60 = runExperiment(p);
  // Think-time-limited region: throughput ~ linear in clients.
  EXPECT_GT(r60.throughputIpm, r20.throughputIpm * 2.0);
}

TEST(ExperimentTest, SyncConfigurationIssuesNoLockStatements) {
  // Sync servlets keep critical sections in the JVM: the database sees
  // fewer statements per interaction (no LOCK/UNLOCK round trips), though
  // it takes more individual short implicit locks.
  auto p = smallParams(Configuration::WsServletDb, App::Bookstore, 1, 30);
  const auto nonSync = runExperiment(p);
  p.config = Configuration::WsServletDbSync;
  const auto sync = runExperiment(p);
  const double nonSyncPerInteraction =
      static_cast<double>(nonSync.queries) / static_cast<double>(nonSync.interactions);
  const double syncPerInteraction =
      static_cast<double>(sync.queries) / static_cast<double>(sync.interactions);
  EXPECT_GT(nonSyncPerInteraction, syncPerInteraction + 0.3);
}

TEST(ExperimentTest, SweepReturnsOneResultPerPoint) {
  auto p = smallParams(Configuration::WsPhpDb, App::Auction, 1, 10);
  const auto results = sweepClients(p, {10, 30});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[1].throughputIpm, results[0].throughputIpm);
}

TEST(ExperimentTest, MixNamesResolve) {
  EXPECT_STREQ(mixName(App::Bookstore, 1), "shopping");
  EXPECT_STREQ(mixName(App::Bookstore, 2), "ordering");
  EXPECT_STREQ(mixName(App::Auction, 0), "browsing");
  EXPECT_STREQ(mixName(App::Auction, 1), "bidding");
}

TEST(ExperimentTest, InvalidParamsAreRejectedBeforeTheDatasetCache) {
  const auto valid = [] {
    auto p = smallParams(Configuration::WsPhpDb, App::Auction, 1, 10);
    p.dataSeed = 0x1A11D;  // a key no run has built
    return p;
  };
  const auto builds = DatasetCache::global().builds();
  const std::vector<std::function<void(ExperimentParams&)>> bad = {
      [](ExperimentParams& p) { p.measure = 0; },  // was a -nan ipm row
      [](ExperimentParams& p) { p.measure = -sim::kSecond; },
      [](ExperimentParams& p) { p.rampUp = -1; },
      [](ExperimentParams& p) { p.rampDown = -1; },
      [](ExperimentParams& p) { p.clients = -5; },
      [](ExperimentParams& p) { p.auctionHistoryScale = 0; },
      [](ExperimentParams& p) { p.auctionHistoryScale = -0.1; },
      [](ExperimentParams& p) { p.auctionHistoryScale = std::nan(""); },
      [](ExperimentParams& p) {
        p.auctionHistoryScale = std::numeric_limits<double>::infinity();
      },
      [](ExperimentParams& p) {
        p.app = App::Bookstore;
        p.bookstoreScale = 0;
      },
      // A mix the app does not have (mixName says "?"): it used to run with
      // another app's weights, or read past an empty weight vector.
      [](ExperimentParams& p) { p.mix = 2; },
      [](ExperimentParams& p) { p.mix = -1; },
      [](ExperimentParams& p) {
        p.app = App::BulletinBoard;
        p.mix = 2;
      },
      [](ExperimentParams& p) {
        p.app = App::Bookstore;
        p.mix = 3;
      },
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    auto p = valid();
    bad[i](p);
    EXPECT_THROW(p.validate(), std::invalid_argument) << "case " << i;
    EXPECT_THROW(runExperiment(p), std::invalid_argument) << "case " << i;
  }
  EXPECT_EQ(DatasetCache::global().builds(), builds) << "rejected before any get()";

  auto openLoop = valid();
  openLoop.clients = 0;  // open-loop runs set their load elsewhere
  EXPECT_NO_THROW(openLoop.validate());
  auto otherApp = valid();
  otherApp.bookstoreScale = 0;  // only the run's own dataset scale counts
  EXPECT_NO_THROW(otherApp.validate());
}

TEST(ExperimentTest, BrowsingMixHasNoWrites) {
  auto result = runExperiment(smallParams(Configuration::WsPhpDb, App::Auction, 0, 40));
  EXPECT_EQ(result.readWriteInteractions, 0u);
}

// ----------------------------------------------------------------- workload

TEST(ClientFarmTest, ThinkTimeGovernsThroughput) {
  // At low load, throughput ~= clients / (think + response) with think = 7 s.
  auto p = smallParams(Configuration::WsPhpDb, App::Auction, 1, 70);
  p.measure = 120 * sim::kSecond;
  const auto r = runExperiment(p);
  const double perClientRate = r.throughputIpm / 60.0 / 70.0;  // interactions/s/client
  EXPECT_NEAR(perClientRate, 1.0 / 7.0, 0.03);
}

TEST(ClientFarmTest, ResponseTimesRecorded) {
  auto p = smallParams(Configuration::WsPhpDb, App::Auction, 1, 40);
  const auto r = runExperiment(p);
  EXPECT_GT(r.meanResponseSeconds, 0.001);
  EXPECT_GE(r.p90ResponseSeconds, r.meanResponseSeconds * 0.5);
  EXPECT_LT(r.meanResponseSeconds, 1.0);  // unloaded system answers fast
}

}  // namespace
}  // namespace mwsim::core
