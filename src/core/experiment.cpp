#include "core/experiment.hpp"

#include <cmath>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>

#include "core/dataset_cache.hpp"
#include "core/parallel.hpp"

#include "apps/auction/auction.hpp"
#include "apps/auction/auction_ejb.hpp"
#include "apps/auction/schema.hpp"
#include "apps/bbs/bbs.hpp"
#include "apps/bbs/schema.hpp"
#include "apps/bookstore/bookstore.hpp"
#include "apps/bookstore/bookstore_ejb.hpp"
#include "apps/bookstore/schema.hpp"
#include "middleware/db_cluster.hpp"
#include "middleware/dispatch.hpp"
#include "middleware/ejb.hpp"
#include "middleware/php_module.hpp"
#include "middleware/servlet_engine.hpp"
#include "middleware/web_server.hpp"
#include "obs/analyzer.hpp"
#include "obs/pump.hpp"
#include "scenario/timeline.hpp"
#include "workload/client.hpp"
#include "workload/open_loop.hpp"

namespace mwsim::core {

const char* mixName(App app, int mix) {
  switch (app) {
    case App::Bookstore:
      switch (mix) {
        case 0: return "browsing";
        case 1: return "shopping";
        case 2: return "ordering";
      }
      break;
    case App::Auction:
      switch (mix) {
        case 0: return "browsing";
        case 1: return "bidding";
      }
      break;
    case App::BulletinBoard:
      switch (mix) {
        case 0: return "browsing";
        case 1: return "submission";
      }
      break;
  }
  return "?";
}

namespace {

/// Tier names are also the replica-0 machine names, so single-replica
/// topologies report under exactly the legacy names.
constexpr const char* kWebTier = "WebServer";
constexpr const char* kDbTier = "Database";
constexpr const char* kServletTier = "Servlet Container";
constexpr const char* kEjbTier = "EJB Server";

std::string instanceName(const char* tier, int replica) {
  return replica == 0 ? std::string(tier)
                      : std::string(tier) + "#" + std::to_string(replica + 1);
}

std::vector<std::unique_ptr<net::Machine>> makeTier(sim::Simulation& simulation,
                                                    const char* tier,
                                                    const TierSpec& spec) {
  std::vector<std::unique_ptr<net::Machine>> out;
  out.reserve(static_cast<std::size_t>(spec.replicas));
  for (int i = 0; i < spec.replicas; ++i) {
    out.push_back(std::make_unique<net::Machine>(simulation, instanceName(tier, i),
                                                 spec.coresFor(i), spec.nicBitsPerSecond));
  }
  return out;
}

/// Per-replica middleware seed: replica 0 keeps the legacy derivation so a
/// one-replica tier is bit-identical to the pre-topology construction.
std::uint64_t replicaSeed(std::uint64_t seed, int replica) {
  return replica == 0 ? seed
                      : sim::deriveSeed(seed, 0x5E71E7ULL + static_cast<std::uint64_t>(replica));
}

/// Registers the saturation instruments for one machine: CPU utilization,
/// run-queue depth, and the Little's-law triple; NIC utilization, queue,
/// throughput, and effective bandwidth (tracks LinkDegrade events).
void addMachineProbes(obs::MetricsRegistry& registry, const net::Machine& m) {
  const std::string& n = m.name();
  registry.addUtilizationProbe(n + "/cpu", obs::ResourceKind::Cpu,
                               static_cast<double>(m.cpu().cores()),
                               [&m] { return m.cpu().busyCoreSeconds(); });
  registry.addGaugeProbe(n + "/cpu.runq",
                         [&m] { return static_cast<double>(m.cpu().activeJobs()); });
  registry.addLittleProbe(n + "/cpu", [&m] { return m.cpu().jobIntegralSeconds(); },
                          [&m] { return m.cpu().jobsCompleted(); },
                          [&m] { return m.cpu().sojournSeconds(); });
  registry.addUtilizationProbe(n + "/nic", obs::ResourceKind::Nic, 1.0,
                               [&m] { return m.nic().busySeconds(); });
  registry.addGaugeProbe(n + "/nic.queue",
                         [&m] { return static_cast<double>(m.nic().queueLength()); });
  registry.addUtilizationProbe(
      n + "/nic.mbps", obs::ResourceKind::Rate, 1.0,
      [&m] { return static_cast<double>(m.nic().bytesTransferred()) * 8.0 / 1e6; });
  registry.addGaugeProbe(n + "/nic.effective_mbps",
                         [&m] { return m.nic().effectiveBitsPerSecond() / 1e6; });
}

/// Registers the database-side instruments for one backend: the global
/// lock-manager mutex (utilization ~1.0 is the LOCK TABLES wall), table-lock
/// queue depth and grant rate, and the statement throughput.
void addBackendProbes(obs::MetricsRegistry& registry, mw::DatabaseServer& backend) {
  const std::string& n = backend.machine().name();
  const sim::Mutex& lm = backend.lockManager();
  registry.addUtilizationProbe(n + "/lock-manager", obs::ResourceKind::Lock, 1.0,
                               [&lm] { return lm.busyUnitSeconds(); });
  registry.addGaugeProbe(n + "/lock-manager.queue",
                         [&lm] { return static_cast<double>(lm.queueLength()); });
  registry.addUtilizationProbe(n + "/lock-manager.grants", obs::ResourceKind::Rate, 1.0,
                               [&lm] { return static_cast<double>(lm.acquisitions()); });
  registry.addGaugeProbe(n + "/table-lock.queue", [&backend] {
    double q = 0.0;
    for (const auto& [table, lock] : backend.tableLocks()) {
      (void)table;
      q += static_cast<double>(lock->queueLength());
    }
    return q;
  });
  registry.addUtilizationProbe(n + "/table-lock.grants", obs::ResourceKind::Rate, 1.0,
                               [&backend] {
                                 double g = 0.0;
                                 for (const auto& [table, lock] : backend.tableLocks()) {
                                   (void)table;
                                   g += static_cast<double>(lock->readAcquisitions() +
                                                            lock->writeAcquisitions());
                                 }
                                 return g;
                               });
  registry.addUtilizationProbe(
      "db.statements." + n, obs::ResourceKind::Rate, 1.0,
      [&backend] { return static_cast<double>(backend.statementsProcessed()); });
}

/// One run on the given database copies, one per database backend: wires
/// the topology around them, runs the phases and collects the result. Every
/// object that refers to a copy is gone once this returns.
ExperimentResult simulate(const ExperimentParams& params, const Topology& topo,
                          std::span<db::Database> databases) {
  sim::Simulation simulation(params.seed);
  net::Network network(simulation);

  // Machines. The client farm gets an effectively infinite NIC — the paper
  // uses "enough client emulation machines" that clients never bottleneck;
  // traffic to clients still loads the web server's own NIC.
  net::Machine clients(simulation, "clients", /*cores=*/64, /*nic=*/1e12);
  auto webMachines = makeTier(simulation, kWebTier, topo.web);
  auto dbMachines = makeTier(simulation, kDbTier, topo.db);
  std::vector<std::unique_ptr<net::Machine>> servletMachines;
  if (topo.hasServletTier()) {
    servletMachines = makeTier(simulation, kServletTier, topo.servlet);
  }
  std::vector<std::unique_ptr<net::Machine>> ejbMachines;
  if (topo.hasEjbTier()) {
    ejbMachines = makeTier(simulation, kEjbTier, topo.ejb);
  }

  apps::bookstore::Scale bookScale;
  bookScale.scale = params.bookstoreScale;
  apps::auction::Scale auctionScale;
  auctionScale.historyScale = params.auctionHistoryScale;
  apps::bbs::Scale bbsScale;
  bbsScale.historyScale = params.bbsHistoryScale;
  std::size_t databaseBytes = 0;
  for (std::size_t i = 0; i < dbMachines.size(); ++i) {
    // Coarse memory accounting (paper §5.1 / §6.1): each replica holds its
    // own full copy of the tables plus server overhead — replicated
    // databases multiply the footprint, they do not share it.
    const std::size_t bytes = databases[i].approxBytes();
    databaseBytes += bytes;
    dbMachines[i]->addMemory(topo.db.memoryBytes != 0
                                 ? topo.db.memoryBytes
                                 : static_cast<std::int64_t>(bytes) + 48'000'000);
  }
  for (auto& m : webMachines) {
    // The web server's processes plus the static-image buffer cache
    // (images live on disk for the non-bookstore apps).
    m->addMemory(topo.web.memoryBytes != 0
                     ? topo.web.memoryBytes
                     : (params.app == App::Bookstore ? 70'000'000 + 183'000'000
                                                     : 110'000'000));
  }
  for (auto& m : servletMachines) {
    m->addMemory(topo.servlet.memoryBytes != 0 ? topo.servlet.memoryBytes : 95'000'000);
  }
  for (auto& m : ejbMachines) {
    m->addMemory(topo.ejb.memoryBytes != 0 ? topo.ejb.memoryBytes : 190'000'000);
  }

  std::vector<net::Machine*> dbMachinePtrs;
  for (auto& m : dbMachines) dbMachinePtrs.push_back(m.get());
  mw::DbCluster dbCluster(simulation, params.cost, topo.dbPolicy, dbMachinePtrs, databases);

  // Business logic.
  std::unique_ptr<mw::SqlBusinessLogic> sqlLogic;
  std::unique_ptr<mw::EjbBusinessLogic> ejbLogic;
  const bool hasEjb = topo.generator == GeneratorKind::Ejb;
  switch (params.app) {
    case App::Bookstore:
      if (hasEjb) ejbLogic = std::make_unique<apps::bookstore::BookstoreEjbLogic>(bookScale);
      else sqlLogic = std::make_unique<apps::bookstore::BookstoreLogic>(bookScale);
      break;
    case App::Auction:
      if (hasEjb) ejbLogic = std::make_unique<apps::auction::AuctionEjbLogic>(auctionScale);
      else sqlLogic = std::make_unique<apps::auction::AuctionLogic>(auctionScale);
      break;
    case App::BulletinBoard:
      if (hasEjb) ejbLogic = std::make_unique<apps::bbs::BbsEjbLogic>(bbsScale);
      else sqlLogic = std::make_unique<apps::bbs::BbsLogic>(bbsScale);
      break;
  }

  // Dynamic-content generators. Tiers that run one engine per replica
  // (dedicated servlet containers) get a dispatching wrapper; single-engine
  // tiers take the direct path, event-identical to the legacy construction.
  net::Machine& web0 = *webMachines[0];
  sim::NamedMutexSet servletMonitors(simulation);  // shared across JVM replicas
  std::vector<std::unique_ptr<mw::DynamicContentGenerator>> engines;
  std::unique_ptr<mw::DispatchingGenerator> dispatcher;
  mw::DynamicContentGenerator* generator = nullptr;
  switch (topo.generator) {
    case GeneratorKind::Php:
      engines.push_back(std::make_unique<mw::PhpModule>(
          simulation, network, web0, dbCluster, *sqlLogic, params.cost, params.seed));
      break;
    case GeneratorKind::Servlet:
      if (topo.servletColocated) {
        // One engine shared by all web replicas; each request's JVM work
        // runs on the replica that took it (request.web).
        engines.push_back(std::make_unique<mw::ServletEngine>(
            simulation, network, web0, web0, dbCluster, *sqlLogic, topo.syncLocking,
            params.cost, params.seed, &servletMonitors));
      } else {
        for (std::size_t s = 0; s < servletMachines.size(); ++s) {
          engines.push_back(std::make_unique<mw::ServletEngine>(
              simulation, network, web0, *servletMachines[s], dbCluster, *sqlLogic,
              topo.syncLocking, params.cost,
              replicaSeed(params.seed, static_cast<int>(s)), &servletMonitors));
        }
      }
      break;
    case GeneratorKind::Ejb: {
      std::vector<net::Machine*> ejbPtrs;
      for (auto& m : ejbMachines) ejbPtrs.push_back(m.get());
      for (std::size_t s = 0; s < servletMachines.size(); ++s) {
        engines.push_back(std::make_unique<mw::EjbGenerator>(
            simulation, network, web0, *servletMachines[s], ejbPtrs, dbCluster,
            *ejbLogic, params.cost, replicaSeed(params.seed, static_cast<int>(s))));
      }
      break;
    }
  }
  if (engines.size() == 1) {
    generator = engines.front().get();
  } else {
    std::vector<mw::DynamicContentGenerator*> children;
    for (auto& e : engines) children.push_back(e.get());
    dispatcher =
        std::make_unique<mw::DispatchingGenerator>(std::move(children), topo.servletDispatch);
    generator = dispatcher.get();
  }

  std::vector<std::unique_ptr<mw::WebServer>> webServers;
  for (auto& m : webMachines) {
    webServers.push_back(
        std::make_unique<mw::WebServer>(simulation, *m, network, clients, params.cost));
    webServers.back()->setGenerator(generator);
  }
  // The balancer exists for replicated web tiers (as before), and also
  // whenever the scenario needs failover handling — crash events or request
  // timeouts must fail requests gracefully even with a single replica.
  mw::HttpService* frontend = webServers.front().get();
  std::unique_ptr<mw::LoadBalancer> balancer;
  if (webServers.size() > 1 || params.scenario.needsFailover()) {
    std::vector<mw::HttpService*> replicas;
    for (auto& w : webServers) replicas.push_back(w.get());
    balancer = std::make_unique<mw::LoadBalancer>(
        simulation, std::move(replicas), topo.webDispatch,
        mw::FailoverPolicy{params.scenario.requestTimeout,
                           params.scenario.requestRetries});
    frontend = balancer.get();
  }

  // Platform event timeline. Installed (validated + driver spawned) before
  // the workload starts; a scenario without events spawns nothing, leaving
  // the event sequence untouched.
  scenario::Timeline timeline(params.scenario.events);
  if (!timeline.empty()) {
    scenario::PlatformHooks hooks;
    for (auto& m : webMachines) hooks.web.push_back(m.get());
    for (auto& m : servletMachines) hooks.servlet.push_back(m.get());
    for (auto& m : ejbMachines) hooks.ejb.push_back(m.get());
    for (auto& m : dbMachines) hooks.db.push_back(m.get());
    hooks.balancer = balancer.get();
    timeline.install(simulation, hooks);
  }

  // Workload.
  const wl::MixMatrix mix = [&] {
    switch (params.app) {
      case App::Bookstore:
        return apps::bookstore::mixMatrix(static_cast<apps::bookstore::Mix>(params.mix));
      case App::Auction:
        return apps::auction::mixMatrix(static_cast<apps::auction::Mix>(params.mix));
      default:
        return apps::bbs::mixMatrix(static_cast<apps::bbs::Mix>(params.mix));
    }
  }();
  wl::WorkloadStats stats;
  std::shared_ptr<stats::TimeSeries> series;
  if (params.scenario.seriesInterval > 0) {
    series = std::make_shared<stats::TimeSeries>(params.scenario.seriesInterval);
    stats.series = series.get();
  }
  trace::Collector collector(params.trace);
  wl::ClientFarm farm(simulation, *frontend, mix, params.clients, stats, params.seed,
                      7 * sim::kSecond, 15 * sim::kMinute,
                      collector.enabled() ? &collector : nullptr);
  std::unique_ptr<wl::OpenLoopFarm> openFarm;
  if (params.scenario.openLoop()) {
    openFarm = std::make_unique<wl::OpenLoopFarm>(
        simulation, *frontend, mix, params.scenario, stats, params.seed,
        collector.enabled() ? &collector : nullptr);
    openFarm->start();
  } else {
    farm.start();
  }

  // Usage metering, in the paper's figure order, one entry per instance.
  stats::UsageWindow usage;
  for (auto& m : webMachines) usage.addMachine(m.get(), kWebTier);
  for (auto& m : dbMachines) usage.addMachine(m.get(), kDbTier);
  for (auto& m : servletMachines) usage.addMachine(m.get(), kServletTier);
  for (auto& m : ejbMachines) usage.addMachine(m.get(), kEjbTier);

  // Metrics layer (src/obs/): per-run registry, saturation probes across
  // every layer, and the sampling pump. Everything here only *reads*
  // simulation state, and the pump drives runUntil in period-sized steps
  // instead of spawning a simulated process — so enabling metrics cannot
  // perturb the event sequence (asserted byte-identical in metrics_test).
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::MetricsPump> pump;
  if constexpr (obs::kEnabled) {
    if (params.metrics.enabled) {
      registry = std::make_unique<obs::MetricsRegistry>();
      simulation.setMetrics(registry.get());
      for (auto& m : webMachines) addMachineProbes(*registry, *m);
      for (auto& m : dbMachines) addMachineProbes(*registry, *m);
      for (auto& m : servletMachines) addMachineProbes(*registry, *m);
      for (auto& m : ejbMachines) addMachineProbes(*registry, *m);
      for (std::size_t b = 0; b < dbCluster.size(); ++b) {
        addBackendProbes(*registry, dbCluster.backend(b));
      }
      if (dbCluster.size() > 1) {
        sim::Mutex* ws = dbCluster.writeStream();
        registry->addUtilizationProbe("db-cluster/write-stream",
                                      obs::ResourceKind::Stream, 1.0,
                                      [ws] { return ws->busyUnitSeconds(); });
        registry->addGaugeProbe("db-cluster/write-stream.queue", [ws] {
          return static_cast<double>(ws->queueLength());
        });
        std::vector<std::string> backendNames;
        for (std::size_t b = 0; b < dbCluster.size(); ++b) {
          backendNames.push_back(dbCluster.backend(b).machine().name());
        }
        registry->initBackendReads(backendNames);
      }
      for (std::size_t i = 0; i < webServers.size(); ++i) {
        const mw::WebServer& w = *webServers[i];
        const std::string n = webMachines[i]->name();
        registry->addUtilizationProbe(
            n + "/httpd-pool", obs::ResourceKind::Pool,
            static_cast<double>(w.processPool().capacity()),
            [&w] { return w.processPool().busyUnitSeconds(); });
        registry->addGaugeProbe(n + "/httpd-pool.queue", [&w] {
          return static_cast<double>(w.processPool().queueLength());
        });
      }
      if (balancer) {
        const mw::LoadBalancer* lb = balancer.get();
        for (std::size_t i = 0; i < lb->replicaCount(); ++i) {
          registry->addGaugeProbe("lb/inflight." + webMachines[i]->name(),
                                  [lb, i] {
                                    return static_cast<double>(lb->picker().inflight(i));
                                  });
        }
      }
      registry->addGaugeProbe("kernel/pending-events", [&simulation] {
        return static_cast<double>(simulation.pendingEvents());
      });
      stats.responseHist = &registry->histogram("response_sec");
      // The pump takes its baseline snapshot now: every instrument must be
      // registered above this line.
      pump = std::make_unique<obs::MetricsPump>(simulation, *registry,
                                                params.metrics.period);
    }
  }

  // Phases: ramp-up, measurement, ramp-down (paper §4.5). With metrics on,
  // the pump splits each runUntil into period-sized steps; runUntil(t) runs
  // all events with timestamp <= t and then advances the clock to t, so the
  // split dispatches the identical event sequence.
  const auto advanceTo = [&](sim::SimTime t) {
    if (pump) {
      pump->runTo(t);
    } else {
      simulation.runUntil(t);
    }
  };
  advanceTo(params.rampUp);
  stats.measuring = true;
  collector.setMeasuring(true);
  usage.start(simulation.now());
  advanceTo(params.rampUp + params.measure);
  stats.measuring = false;
  collector.setMeasuring(false);
  usage.stop(simulation.now());
  advanceTo(params.rampUp + params.measure + params.rampDown);
  if (pump) pump->finish();  // tail-flush a partial final interval
  // Tear down all client processes while every referenced object is alive.
  simulation.shutdown();

  ExperimentResult result;
  const double minutes = sim::toSeconds(params.measure) / 60.0;
  result.interactions = stats.completedInteractions;
  result.readWriteInteractions = stats.completedReadWrite;
  result.queries = stats.totalQueries;
  result.throughputIpm = static_cast<double>(stats.completedInteractions) / minutes;
  result.meanResponseSeconds = stats.responseSeconds.mean();
  result.p90ResponseSeconds = stats.responseSeconds.percentile(90);
  result.usage = usage.usage();
  result.tierUsage = stats::aggregateByTier(result.usage);
  for (const auto& [key, traffic] : network.matrix()) result.traffic[key] = traffic;
  for (std::size_t b = 0; b < dbCluster.size(); ++b) {
    const mw::DatabaseServer& backend = dbCluster.backend(b);
    for (const auto& [table, lock] : backend.tableLocks()) {
      (void)table;
      result.lockAcquisitions += lock->readAcquisitions() + lock->writeAcquisitions();
      result.contendedLockAcquisitions += lock->contendedAcquisitions();
      result.lockWaitSeconds += sim::toSeconds(lock->totalWait());
    }
    result.lockManagerWaitSeconds += sim::toSeconds(backend.lockManager().totalWait());
  }
  result.databaseBytes = databaseBytes;
  for (const auto& w : webServers) result.webErrors += w->errorCount();
  if (balancer) {
    result.webErrors += balancer->errorCount();
    result.reroutedRequests = balancer->rerouteCount();
    result.timedOutRequests = balancer->timeoutCount();
  }
  if (openFarm) {
    result.openLoopArrivals = openFarm->arrivals();
    result.shedSessions = openFarm->shedSessions();
  }
  result.series = std::move(series);
  if (collector.enabled()) {
    result.trace = std::make_shared<const trace::Report>(collector.report());
  }
  if (pump) {
    const sim::SimTime from = params.rampUp;
    const sim::SimTime to = params.rampUp + params.measure;
    obs::MetricsReport report = pump->buildReport(from, to);
    report.verdict = obs::analyze(report, result.trace.get(), from, to);
    result.metrics = std::make_shared<const obs::MetricsReport>(std::move(report));
    simulation.setMetrics(nullptr);
  }
  return result;
}

}  // namespace

double ExperimentParams::datasetScale() const {
  switch (app) {
    case App::Bookstore: return bookstoreScale;
    case App::Auction: return auctionHistoryScale;
    case App::BulletinBoard: return bbsHistoryScale;
  }
  return bookstoreScale;
}

void ExperimentParams::validate() const {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("ExperimentParams: " + what);
  };
  if (measure <= 0) reject("measure must be positive");
  if (rampUp < 0) reject("rampUp must not be negative");
  if (rampDown < 0) reject("rampDown must not be negative");
  if (clients < 0) reject("clients must not be negative");
  const double scale = datasetScale();
  if (!std::isfinite(scale) || scale <= 0) {
    reject("the dataset scale must be finite and positive, got " + std::to_string(scale));
  }
}

ExperimentResult runExperiment(const ExperimentParams& params) {
  params.validate();
  const Topology topo =
      params.topology ? *params.topology : canonicalTopology(params.config);
  validateTopology(topo);

  // Database content: every backend gets its own private copy of the cached
  // prototype for (app, scale, population seed) — identical to populating
  // each from scratch with the same Rng, minus the population cost on every
  // run but the first and the copying cost once the cache has pooled a copy
  // per backend (see DatasetCache).
  const double scale = params.datasetScale();
  const std::uint64_t dataSeed =
      params.dataSeed != 0 ? params.dataSeed : sim::deriveSeed(params.seed, /*tag=*/0xDB);
  std::vector<db::Database> databases;
  databases.reserve(static_cast<std::size_t>(topo.db.replicas));
  for (int i = 0; i < topo.db.replicas; ++i) {
    databases.push_back(DatasetCache::global().get(params.app, scale, dataSeed));
  }
  ExperimentResult result = simulate(params, topo, databases);
  for (db::Database& copy : databases) {
    DatasetCache::global().put(params.app, scale, dataSeed, std::move(copy));
  }
  return result;
}

std::uint64_t pointSeed(std::uint64_t rootSeed, App app, int mix, Configuration config,
                        int clients, std::uint64_t scenarioTag) {
  // Chained SplitMix64 steps over the point's *full* coordinates.
  // The pre-fix derivation hashed only (config, clients), so figure benches
  // sharing those coordinates — e.g. the bookstore's shopping and browsing
  // sweeps at one client count — ran correlated random streams. The
  // scenario tag closed the same class of gap for scenario sweeps: without
  // it, an open-loop point reused the closed-loop point's streams at equal
  // (app, mix, config, clients). Tag 0 (scenario off) adds no step, so
  // every pre-scenario sweep keeps its exact seeds.
  std::uint64_t s = sim::deriveSeed(rootSeed, 0xA44ULL + static_cast<std::uint64_t>(app));
  s = sim::deriveSeed(s, 0x313ULL + static_cast<std::uint64_t>(mix));
  s = sim::deriveSeed(s, 0x5EED0000ULL + static_cast<std::uint64_t>(config));
  s = sim::deriveSeed(s, static_cast<std::uint64_t>(clients));
  return scenarioTag == 0 ? s : sim::deriveSeed(s, scenarioTag);
}

ExperimentParams pointParams(const ExperimentParams& base, Configuration config,
                             int clients) {
  ExperimentParams p = base;
  p.config = config;
  p.clients = clients;
  p.seed = pointSeed(base.seed, base.app, base.mix, config, clients,
                     base.scenario.seedTag());
  // All points of one sweep share the sweep's dataset: the population seed
  // stays tied to the *root* seed (exactly what a standalone run with
  // dataSeed = 0 derives), not to the per-point seed.
  if (p.dataSeed == 0) p.dataSeed = sim::deriveSeed(base.seed, /*tag=*/0xDB);
  return p;
}

std::vector<ExperimentResult> runMany(const std::vector<ExperimentParams>& points,
                                      const SweepOptions& opts) {
  std::vector<ExperimentResult> out(points.size());
  std::mutex progressMu;
  parallelFor(points.size(), opts.jobs, [&](std::size_t i) {
    out[i] = runExperiment(points[i]);
    if (opts.onResult) {
      std::lock_guard lock(progressMu);
      opts.onResult(i, points[i], out[i]);
    }
  });
  return out;
}

std::vector<ExperimentResult> sweepClients(const ExperimentParams& base,
                                           const std::vector<int>& clientCounts,
                                           const SweepOptions& opts) {
  std::vector<ExperimentParams> points;
  points.reserve(clientCounts.size());
  for (int clients : clientCounts) {
    points.push_back(pointParams(base, base.config, clients));
  }
  return runMany(points, opts);
}

std::vector<std::vector<ExperimentResult>> sweepGrid(
    const ExperimentParams& base, const std::vector<Configuration>& configs,
    const std::vector<int>& clientCounts, const SweepOptions& opts) {
  std::vector<ExperimentParams> points;
  points.reserve(configs.size() * clientCounts.size());
  for (Configuration config : configs) {
    for (int clients : clientCounts) {
      points.push_back(pointParams(base, config, clients));
    }
  }
  auto flat = runMany(points, opts);
  std::vector<std::vector<ExperimentResult>> grid(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    grid[c].assign(std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(
                                               c * clientCounts.size())),
                   std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(
                                               (c + 1) * clientCounts.size())));
  }
  return grid;
}

}  // namespace mwsim::core
