/// Tests for the obs:: metrics layer:
///
///  * registry semantics (well-known names, counts that components keep
///    themselves and the registry reads in place);
///  * the metrics pump's aligned series, utilization differentiation,
///    partial intervals at window edges between ticks, and the stepping
///    invariant — runTo in one-second steps dispatches exactly the events
///    of one runUntil;
///  * machine usage over a measurement window, from the pump's snapshots;
///  * attaching the report leaves results bit-identical, sequentially and
///    under parallel sweeps;
///  * the Little's-law consistency check (|L - lambda*W| / L < 5% on a
///    steady closed-loop run) — which validates the instruments themselves;
///  * bottleneck verdicts: scenario runs flip the verdict mid-run (the
///    surviving web replica's CPU during a crash window) and admission
///    shedding is called out on flash-crowd plateaus.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "net/network.hpp"
#include "obs/analyzer.hpp"
#include "obs/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/pump.hpp"
#include "trace/collector.hpp"

namespace mwsim {
namespace {

using sim::kSecond;

// ------------------------------------------------------------- instruments

TEST(MetricsRegistryTest, WellKnownCountersAreRegisteredByName) {
  obs::MetricsRegistry registry;
  registry.stmtCacheHit.add(2);
  // A count a component keeps itself (like the open-loop farm's sheds) is
  // read in place, so the registry always sees its current value.
  std::uint64_t shed = 7;
  registry.addCounterProbe("wl.shed", [&shed] { return shed; });
  shed = 9;
  bool sawHit = false;
  bool sawShed = false;
  for (const auto& c : registry.counters()) {
    if (c.name == "db.stmt_cache.hit") {
      sawHit = true;
      EXPECT_EQ(c.read(), 2u);
    }
    if (c.name == "wl.shed") {
      sawShed = true;
      EXPECT_EQ(c.read(), 9u);
    }
  }
  EXPECT_TRUE(sawHit);
  EXPECT_TRUE(sawShed);
}

TEST(MetricsRegistryTest, CacheIdentityIsPerRunFirstSeen) {
  obs::MetricsRegistry registry;
  int a = 0, b = 0;
  registry.recordStatementUse(&a);  // first use in this run: miss
  registry.recordStatementUse(&a);  // hit
  registry.recordStatementUse(&b);  // miss
  EXPECT_EQ(registry.stmtCacheMiss.value(), 2u);
  EXPECT_EQ(registry.stmtCacheHit.value(), 1u);
}

// -------------------------------------------------------------------- pump

TEST(MetricsPumpTest, SamplesAlignedUtilizationSeries) {
  sim::Simulation simulation;
  sim::CpuResource cpu(simulation, 1);
  obs::MetricsRegistry registry;
  registry.addUtilizationProbe("m/cpu", obs::ResourceKind::Cpu, 1.0,
                               [&cpu] { return cpu.busyCoreSeconds(); });
  obs::MetricsPump pump(simulation, registry);
  // Busy during [2, 5).
  simulation.spawn([](sim::Simulation& s, sim::CpuResource& c) -> sim::Task<> {
    co_await s.delay(2 * kSecond);
    co_await c.consume(3 * kSecond);
  }(simulation, cpu));
  pump.runTo(8 * kSecond);
  pump.finish();
  const obs::MetricsReport report = pump.buildReport(0, 8 * kSecond);
  ASSERT_EQ(report.times.size(), 9u);  // baseline + one per second
  EXPECT_EQ(report.times.front(), 0);
  EXPECT_EQ(report.times.back(), 8 * kSecond);
  ASSERT_EQ(report.utilization.size(), 1u);
  const auto& s = report.utilization[0];
  EXPECT_EQ(s.name, "m/cpu");
  EXPECT_NEAR(report.meanUtilization(s, 2 * kSecond, 5 * kSecond), 1.0, 1e-9);
  EXPECT_NEAR(report.meanUtilization(s, 0, 8 * kSecond), 3.0 / 8.0, 1e-9);
  EXPECT_NEAR(report.fractionAbove(s, 0.9, 0, 8 * kSecond), 3.0 / 8.0, 1e-9);
}

TEST(MetricsPumpTest, FinishFlushesFinalPartialInterval) {
  sim::Simulation simulation;
  sim::CpuResource cpu(simulation, 1);
  obs::MetricsRegistry registry;
  registry.addUtilizationProbe("m/cpu", obs::ResourceKind::Cpu, 1.0,
                               [&cpu] { return cpu.busyCoreSeconds(); });
  obs::MetricsPump pump(simulation, registry);
  simulation.spawn([](sim::CpuResource& c) -> sim::Task<> {
    co_await c.consume(10 * kSecond);
  }(cpu));
  // The pump fired at t=1 and t=2; the test then advances the simulation
  // itself to t = 2.5 s, mid-period. finish() must record the [2, 2.5)
  // tail, so a run that stops between ticks keeps its trailing activity.
  pump.runTo(2 * kSecond);
  simulation.runUntil(2 * kSecond + kSecond / 2);
  pump.finish();
  EXPECT_EQ(pump.sampleCount(), 4u);
  pump.finish();  // no time has passed: records nothing
  const obs::MetricsReport report = pump.buildReport(0, 3 * kSecond);
  ASSERT_EQ(report.times.size(), 4u);
  EXPECT_EQ(report.times.back(), 2 * kSecond + kSecond / 2);
  const auto& s = report.utilization[0];
  // The partial tail is still fully busy: utilization 1.0 over 0.5 s.
  EXPECT_NEAR((s.cumulative[3] - s.cumulative[2]) / 0.5, 1.0, 1e-9);
}

TEST(MetricsPumpTest, CountersAndGaugesSnapshotPerTick) {
  sim::Simulation simulation;
  obs::MetricsRegistry registry;
  // The count and the level are kept by the simulated process, as a
  // component keeps its own; the registry only reads them.
  std::uint64_t work = 0;
  double level = 0.0;
  registry.addCounterProbe("work.done", [&work] { return work; });
  registry.addGaugeProbe("work.level", [&level] { return level; });
  obs::MetricsPump pump(simulation, registry);
  simulation.spawn([](sim::Simulation& s, std::uint64_t& w, double& l) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await s.delay(kSecond);
      w += 10;
      l = 0.5 * (i + 1);
    }
  }(simulation, work, level));
  pump.runTo(5 * kSecond);
  pump.finish();
  const obs::MetricsReport report = pump.buildReport(0, 5 * kSecond);
  EXPECT_EQ(report.counterTotal("work.done"), 50u);
  EXPECT_EQ(report.counterDelta("work.done", kSecond, 3 * kSecond), 20u);
  const obs::MetricsReport::GaugeSeries* gauge = report.findGauge("work.level");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->values, (std::vector<double>{0.0, 0.5, 1.0, 1.5, 2.0, 2.5}));
}

/// A seeded mix of delays, CPU jobs on one shared processor-sharing CPU
/// and critical sections on one contended resource. Every step appends
/// (time, tag) to `log`; some steps end exactly on a whole second.
struct SteppingWorld {
  sim::Simulation simulation{99};
  sim::CpuResource cpu{simulation, 2};
  sim::Resource lock{simulation, 1, "lock"};
  std::vector<std::pair<sim::SimTime, int>> log;

  SteppingWorld() {
    for (int w = 0; w < 12; ++w) simulation.spawn(worker(w));
  }
  ~SteppingWorld() { simulation.shutdown(); }

  sim::Task<> worker(int id) {
    sim::Rng rng(sim::deriveSeed(7, static_cast<std::uint64_t>(id)));
    for (int step = 0;; ++step) {
      switch (rng.uniformInt(0, 3)) {
        case 0:
          co_await simulation.delay(sim::fromMillis(static_cast<double>(rng.uniformInt(1, 900))));
          break;
        case 1:  // up to the next whole second: a tick instant
          co_await simulation.delay(kSecond - simulation.now() % kSecond);
          break;
        case 2:
          co_await cpu.consume(sim::fromMillis(static_cast<double>(rng.uniformInt(1, 400))));
          break;
        default: {
          sim::ResourceHold hold = co_await lock.acquire();
          co_await simulation.delay(sim::fromMillis(static_cast<double>(rng.uniformInt(1, 200))));
          break;
        }
      }
      log.emplace_back(simulation.now(), id * 10'000 + step);
    }
  }
};

TEST(MetricsPumpTest, SteppedRunDispatchesTheEventsOfOneRunUntil) {
  const sim::SimTime end = 17 * kSecond + 333 * sim::kMillisecond;  // not a tick
  SteppingWorld plain;
  plain.simulation.runUntil(end);

  SteppingWorld stepped;
  obs::MetricsRegistry registry;
  registry.addUtilizationProbe("cpu", obs::ResourceKind::Cpu, 2.0,
                               [&stepped] { return stepped.cpu.busyCoreSeconds(); });
  registry.addUtilizationProbe("lock", obs::ResourceKind::Lock, 1.0,
                               [&stepped] { return stepped.lock.busyUnitSeconds(); });
  obs::MetricsPump pump(stepped.simulation, registry);
  pump.runTo(end);

  ASSERT_GT(plain.log.size(), 200u);
  std::size_t onTick = 0;
  for (const auto& [time, tag] : plain.log) {
    if (time % kSecond == 0) ++onTick;
  }
  EXPECT_GT(onTick, 20u) << "the workload must put events on tick instants";
  EXPECT_EQ(plain.log, stepped.log);
  EXPECT_EQ(plain.simulation.eventsProcessed(), stepped.simulation.eventsProcessed());
  EXPECT_EQ(stepped.simulation.now(), end);
  // The baseline, one snapshot per whole second, and the target itself.
  ASSERT_EQ(pump.sampleCount(), 19u);
  EXPECT_EQ(pump.times().back(), end);
}

// ----------------------------------------------------------- machine usage

TEST(UsageWindowTest, CapturesCpuAndNic) {
  sim::Simulation simulation;
  net::Network network(simulation);
  net::Machine m(simulation, "m");
  net::Machine peer(simulation, "peer");
  obs::MetricsRegistry registry;
  obs::addMachineProbes(registry, m);
  obs::MetricsPump pump(simulation, registry);
  simulation.spawn([](sim::Simulation& s, net::Network& n, net::Machine& m,
                      net::Machine& peer) -> sim::Task<> {
    co_await s.delay(kSecond);
    co_await m.compute(2 * kSecond);
    co_await n.send(m, peer, 1'250'000);  // 10 Mbit, 0.1 s on the 100 Mbit/s link
  }(simulation, network, m, peer));
  // Both window edges fall between the pump's ticks.
  const sim::SimTime from = kSecond / 2;
  const sim::SimTime to = 10 * kSecond + kSecond / 2;
  pump.runTo(from);
  pump.runTo(to);
  const obs::MetricsReport report = pump.buildReport(from, to);
  const stats::MachineUsage u = obs::machineUsage(report, m, "tier");
  EXPECT_EQ(u.name, "m");
  EXPECT_EQ(u.tier, "tier");
  EXPECT_EQ(u.cores, 1);
  EXPECT_NEAR(u.cpuUtilization, 0.2, 1e-9);  // 2 s busy of 10 s
  EXPECT_NEAR(u.nicMbps, 1.0, 1e-9);         // 10 Mbit over 10 s
  EXPECT_NEAR(u.nicUtilization, 0.01, 1e-9);
  EXPECT_EQ(u.nicPackets, net::Nic::packetsFor(1'250'000));
  simulation.shutdown();
}

TEST(UsageWindowTest, WindowExcludesWorkOutsideIt) {
  sim::Simulation simulation;
  net::Machine m(simulation, "m");
  obs::MetricsRegistry registry;
  obs::addMachineProbes(registry, m);
  obs::MetricsPump pump(simulation, registry);
  simulation.spawn([](net::Machine& m) -> sim::Task<> { co_await m.compute(5 * kSecond); }(m));
  pump.runTo(5 * kSecond);  // all work happens before the window
  pump.runTo(15 * kSecond);
  const obs::MetricsReport report = pump.buildReport(5 * kSecond, 15 * kSecond);
  EXPECT_NEAR(obs::machineUsage(report, m, "m").cpuUtilization, 0.0, 1e-9);
  EXPECT_NEAR(report.meanUtilization(*report.findUtilization("m/cpu"), 0, 5 * kSecond), 1.0,
              1e-9);
  simulation.shutdown();
}

// ------------------------------------------------- observation-only runs

core::ExperimentParams tinyParams(core::App app) {
  core::ExperimentParams p;
  p.app = app;
  p.mix = 1;
  p.clients = 25;
  p.rampUp = 5 * kSecond;
  p.measure = 20 * kSecond;
  p.rampDown = 2 * kSecond;
  p.bookstoreScale = 0.02;
  p.auctionHistoryScale = 0.01;
  p.bbsHistoryScale = 0.01;
  return p;
}

/// Bit-exact equality across every simulated (non-observational) field the
/// benches print — same contract as determinism_test's expectIdentical.
void expectIdentical(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  EXPECT_EQ(a.throughputIpm, b.throughputIpm);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.meanResponseSeconds, b.meanResponseSeconds);
  EXPECT_EQ(a.p90ResponseSeconds, b.p90ResponseSeconds);
  ASSERT_EQ(a.usage.size(), b.usage.size());
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    EXPECT_EQ(a.usage[i].name, b.usage[i].name);
    EXPECT_EQ(a.usage[i].cpuUtilization, b.usage[i].cpuUtilization);
    EXPECT_EQ(a.usage[i].nicMbps, b.usage[i].nicMbps);
  }
  EXPECT_EQ(a.lockAcquisitions, b.lockAcquisitions);
  EXPECT_EQ(a.lockWaitSeconds, b.lockWaitSeconds);
  EXPECT_EQ(a.lockManagerWaitSeconds, b.lockManagerWaitSeconds);
  EXPECT_EQ(a.webErrors, b.webErrors);
}

TEST(MetricsObservationOnlyTest, Fig05ConfigMetricsOnIsByteIdenticalToOff) {
  auto p = tinyParams(core::App::Bookstore);
  p.config = core::Configuration::WsServletDb;  // a fig05 LOCK TABLES curve
  const auto off = core::runExperiment(p);
  p.metrics.enabled = true;
  const auto on = core::runExperiment(p);
  expectIdentical(off, on);
  EXPECT_EQ(off.metrics, nullptr);
  ASSERT_NE(on.metrics, nullptr);
  EXPECT_FALSE(on.metrics->times.empty());
}

TEST(MetricsObservationOnlyTest, Fig11ConfigMetricsOnIsByteIdenticalToOff) {
  auto p = tinyParams(core::App::Auction);
  p.config = core::Configuration::WsPhpDb;  // a fig11 curve
  const auto off = core::runExperiment(p);
  p.metrics.enabled = true;
  const auto on = core::runExperiment(p);
  expectIdentical(off, on);
}

TEST(MetricsObservationOnlyTest, ParallelSweepMetricsMatchSequential) {
  auto base = tinyParams(core::App::Auction);
  base.metrics.enabled = true;
  const std::vector<core::Configuration> configs{core::Configuration::WsPhpDb,
                                                 core::Configuration::WsServletDb};
  const std::vector<int> clients{15, 30};
  core::SweepOptions parallel;
  parallel.jobs = 4;
  const auto a = core::sweepGrid(base, configs, clients, core::SweepOptions{});
  const auto b = core::sweepGrid(base, configs, clients, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].size(), b[c].size());
    for (std::size_t i = 0; i < a[c].size(); ++i) {
      expectIdentical(a[c][i], b[c][i]);
      ASSERT_NE(a[c][i].metrics, nullptr);
      ASSERT_NE(b[c][i].metrics, nullptr);
      // The whole serialized report — series, verdict, cache hit/miss
      // counters — must be jobs-invariant, byte for byte.
      EXPECT_EQ(obs::metricsJson(*a[c][i].metrics), obs::metricsJson(*b[c][i].metrics));
    }
  }
}

// ------------------------------------------------------------ Little's law

TEST(MetricsAnalyzerTest, LittlesLawHoldsOnSteadyClosedLoopRun) {
  auto p = tinyParams(core::App::Auction);
  p.config = core::Configuration::WsPhpDb;
  p.measure = 30 * kSecond;
  p.metrics.enabled = true;
  const auto result = core::runExperiment(p);
  ASSERT_NE(result.metrics, nullptr);
  const auto& little = result.metrics->verdict.little;
  ASSERT_FALSE(little.empty());
  bool checked = false;
  for (const auto& r : little) {
    // Only resources with a meaningful sample: sparse servers see too few
    // completions for the window edges to wash out.
    if (r.lambda * 30.0 < 500.0) continue;
    checked = true;
    EXPECT_LT(r.relError, 0.05)
        << r.name << ": L=" << r.L << " lambda=" << r.lambda << " W=" << r.W;
  }
  EXPECT_TRUE(checked) << "no resource saw enough completions to check";
}

// ---------------------------------------------------------------- verdicts

TEST(MetricsAnalyzerTest, FailoverVerdictFlipsToSurvivorWebCpu) {
  // Two web replicas, crash the second one mid-measurement: during the
  // blackout all traffic lands on the surviving "WebServer", whose CPU
  // becomes the window's bottleneck (the auction site is generator-bound).
  // The client count offers ~1.3x one web machine's capacity, so the pair
  // is comfortable (~65% each) until the crash pegs the survivor.
  core::ExperimentParams p = tinyParams(core::App::Auction);
  p.config = core::Configuration::WsPhpDb;
  p.clients = 1400;
  p.rampUp = 10 * kSecond;
  p.measure = 40 * kSecond;
  p.metrics.enabled = true;
  core::Topology topo = core::canonicalTopology(core::Configuration::WsPhpDb);
  topo.web.replicas = 2;
  p.topology = topo;
  const double crashSec = 20.0;
  const double recoverSec = 36.0;
  p.scenario.events = {
      scenario::replicaCrash(sim::fromSeconds(crashSec), scenario::Tier::Web, 1),
      scenario::replicaRecover(sim::fromSeconds(recoverSec), scenario::Tier::Web, 1),
  };
  p.scenario.requestRetries = 2;
  p.seed = core::pointSeed(p.seed, p.app, p.mix, p.config, p.clients,
                           p.scenario.seedTag());
  const auto result = core::runExperiment(p);
  ASSERT_NE(result.metrics, nullptr);
  const obs::Verdict during =
      obs::analyze(*result.metrics, nullptr, sim::fromSeconds(crashSec),
                   sim::fromSeconds(recoverSec));
  EXPECT_EQ(during.resource, "WebServer/cpu")
      << "crash window: " << during.oneLine();
  EXPECT_TRUE(during.saturated) << during.oneLine();
  // Before the crash the two replicas split the load evenly; neither web
  // CPU can be as hot as the survivor is during the blackout.
  const obs::Verdict before =
      obs::analyze(*result.metrics, nullptr, 0, sim::fromSeconds(crashSec));
  const auto* survivorSeries = result.metrics->findUtilization("WebServer/cpu");
  ASSERT_NE(survivorSeries, nullptr);
  EXPECT_LT(result.metrics->meanUtilization(*survivorSeries, 0,
                                            sim::fromSeconds(crashSec)),
            during.utilization);
  (void)before;
}

TEST(MetricsAnalyzerTest, FlashCrowdShedNoteExplainsPlateau) {
  // Open-loop arrivals far past capacity with a tight admission cap: the
  // verdict's note must attribute the completed-throughput plateau to
  // admission shedding.
  core::ExperimentParams p = tinyParams(core::App::Auction);
  p.config = core::Configuration::WsPhpDb;
  p.clients = 0;
  p.measure = 30 * kSecond;
  p.metrics.enabled = true;
  p.scenario.mode = scenario::ArrivalMode::OpenLoop;
  p.scenario.arrivals = scenario::RateSchedule::constant(30.0);
  p.scenario.maxInFlightSessions = 20;
  p.seed = core::pointSeed(p.seed, p.app, p.mix, p.config, p.clients,
                           p.scenario.seedTag());
  const auto result = core::runExperiment(p);
  ASSERT_NE(result.metrics, nullptr);
  const obs::Verdict& v = result.metrics->verdict;
  EXPECT_NE(v.note.find("admission shed"), std::string::npos) << v.oneLine();
  EXPECT_GT(result.metrics->counterTotal("wl.shed"), 0u);
}

TEST(MetricsAnalyzerTest, CounterTracksMergeIntoChromeTrace) {
  auto p = tinyParams(core::App::Bookstore);
  p.config = core::Configuration::WsServletDbSync;
  p.metrics.enabled = true;
  p.trace.enabled = true;
  const auto result = core::runExperiment(p);
  ASSERT_NE(result.trace, nullptr);
  ASSERT_NE(result.metrics, nullptr);
  const std::string extra = obs::counterTrackEvents(*result.metrics);
  EXPECT_NE(extra.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(extra.find("util:Database/cpu"), std::string::npos);
  const std::string json = trace::chromeTraceJson(*result.trace, extra);
  // The merged stream carries both span events and counter tracks, and the
  // fragment lands inside the traceEvents array (valid JSON bracketing).
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(json.find("]}\n", json.find("util:")), json.size() - 3);
}

TEST(MetricsAnalyzerTest, MetricsJsonCarriesVerdictAndSeries) {
  auto p = tinyParams(core::App::Auction);
  p.config = core::Configuration::WsPhpDb;
  p.metrics.enabled = true;
  const auto result = core::runExperiment(p);
  ASSERT_NE(result.metrics, nullptr);
  const std::string json = obs::metricsJson(*result.metrics);
  EXPECT_NE(json.find("\"verdict\""), std::string::npos);
  EXPECT_NE(json.find("\"one_line\": \"bottleneck="), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
  EXPECT_NE(json.find("WebServer/cpu"), std::string::npos);
  EXPECT_NE(json.find("\"little\""), std::string::npos);
}

}  // namespace
}  // namespace mwsim
