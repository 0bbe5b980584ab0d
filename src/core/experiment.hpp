#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "middleware/cost_model.hpp"
#include "net/network.hpp"
#include "obs/report.hpp"
#include "scenario/spec.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "stats/timeseries.hpp"
#include "stats/usage.hpp"
#include "trace/collector.hpp"

namespace mwsim::core {

/// Which benchmark application drives the run. BulletinBoard is the RUBBoS
/// benchmark the paper skipped, implemented here to test its §7 prediction
/// that the results mirror the auction site.
enum class App { Bookstore, Auction, BulletinBoard };

/// Parameters for one measurement run (one point on a throughput curve).
struct ExperimentParams {
  Configuration config = Configuration::WsPhpDb;
  /// Explicit topology override. Unset runs canonicalTopology(config) — the
  /// paper's configuration on single machines; set it to scale tiers out
  /// (replicas, cores, NICs, dispatch policies). `config` still names the
  /// run and seeds the sweep-point hash.
  std::optional<Topology> topology;
  App app = App::Bookstore;
  /// Bookstore: 0 browsing, 1 shopping, 2 ordering. Auction: 0 browsing,
  /// 1 bidding.
  int mix = 1;
  int clients = 100;
  std::uint64_t seed = 1;
  /// Seed the database-population Rng is constructed with. 0 (the default)
  /// derives it from `seed`, which is what standalone runs want; the sweep
  /// helpers pin it to the sweep's root seed so every point shares one
  /// cached dataset while still getting an independent simulation stream
  /// (see pointParams and DatasetCache).
  std::uint64_t dataSeed = 0;

  /// Measurement phases (paper §4.5: 1/20/1 min for the bookstore and
  /// 5/30/5 for the auction site; the simulator reaches steady state
  /// quickly, so shorter windows give stable results). This default is the
  /// single source of truth — BenchOptions derives its ramp-up from it.
  sim::Duration rampUp = 60 * sim::kSecond;
  sim::Duration measure = 5 * sim::kMinute;
  sim::Duration rampDown = 30 * sim::kSecond;

  /// Database scale knobs (see apps/*/schema.hpp). 1.0 = the paper's sizes.
  double bookstoreScale = 0.25;
  double auctionHistoryScale = 0.10;
  double bbsHistoryScale = 0.05;

  mw::CostModel cost;

  /// Per-request tracing (off by default). Enabling it never changes
  /// simulated results: spans observe virtual time the scheduler already
  /// decided.
  trace::Options trace;

  /// Metrics layer (off by default): typed instruments sampled into aligned
  /// time series by the metrics pump, plus the bottleneck verdict. Like
  /// tracing, observation-only — a metrics-on run is byte-identical to a
  /// metrics-off run (the pump steps runUntil instead of spawning a
  /// sampling process), and like seriesInterval it stays out of the
  /// sweep-point seed derivation.
  obs::Options metrics;

  /// Scenario engine (src/scenario/): arrival mode, failover policy, and
  /// the platform event timeline. The default is "scenario off", which
  /// keeps runs byte-identical to the pre-scenario simulator. With
  /// ArrivalMode::OpenLoop the `clients` field is ignored (load is set by
  /// scenario.arrivals) but still part of the sweep-point coordinates.
  scenario::Spec scenario;

  /// The scale knob of `app`'s dataset, which keys the dataset cache.
  double datasetScale() const;

  /// Throws std::invalid_argument unless `measure` is positive, `rampUp`,
  /// `rampDown` and `clients` are not negative (open-loop runs use 0
  /// clients), and datasetScale() is finite and positive. runExperiment
  /// calls it before touching the dataset cache.
  void validate() const;
};

/// Everything a bench needs to print one figure row.
struct ExperimentResult {
  double throughputIpm = 0.0;  // interactions per minute
  std::uint64_t interactions = 0;
  std::uint64_t readWriteInteractions = 0;
  std::uint64_t queries = 0;
  double meanResponseSeconds = 0.0;
  double p90ResponseSeconds = 0.0;

  /// Per-machine usage over the measurement window, in the paper's order:
  /// WebServer, Database, Servlet Container, EJB Server (absent tiers are
  /// omitted). Replicated tiers contribute one entry per instance
  /// ("WebServer", "WebServer#2", ...), grouped per tier in that order.
  std::vector<stats::MachineUsage> usage;

  /// Usage aggregated over each tier's replicas (see stats::aggregateByTier).
  /// Identical to `usage` rows for single-replica tiers apart from `name`
  /// being the tier name.
  std::vector<stats::MachineUsage> tierUsage;

  /// Traffic between machine pairs over the whole run (bytes/packets).
  std::map<std::pair<std::string, std::string>, net::LinkTraffic> traffic;

  /// Lock contention at the database over the whole run.
  std::uint64_t lockAcquisitions = 0;
  std::uint64_t contendedLockAcquisitions = 0;
  double lockWaitSeconds = 0.0;
  /// Wait on the server's global lock-manager mutex (LOCK_open). Tracked
  /// separately from table-lock wait: folding it in silently understated the
  /// fig05 drain stalls before this field existed.
  double lockManagerWaitSeconds = 0.0;

  /// Dataset bytes across every database replica's own clone.
  std::size_t databaseBytes = 0;

  /// Dynamic-content requests answered with an error page: web replicas'
  /// 500 pages plus the load balancer's failover errors (retry budget
  /// exhausted, timeout, no healthy replica). Nonzero means the run is
  /// degraded — cluster tests assert 0.
  std::uint64_t webErrors = 0;

  /// Failover accounting (scenario runs; all 0 with the scenario off).
  /// Attempts rerouted because the serving replica crashed mid-request:
  std::uint64_t reroutedRequests = 0;
  /// Requests that observed their deadline pass:
  std::uint64_t timedOutRequests = 0;
  /// Open-loop arrivals offered / shed by admission control:
  std::uint64_t openLoopArrivals = 0;
  std::uint64_t shedSessions = 0;

  /// Whole-run time series (only when params.scenario.seriesInterval > 0).
  /// Buckets cover the run from t=0 including ramp phases — a scenario's
  /// structure rarely aligns with the measurement window.
  std::shared_ptr<const stats::TimeSeries> series;

  /// Per-tier latency attribution (only when params.trace.enabled).
  /// shared_ptr keeps ExperimentResult cheaply copyable.
  std::shared_ptr<const trace::Report> trace;

  /// Sampled metrics series + bottleneck verdict (only when
  /// params.metrics.enabled and metrics are compiled in).
  std::shared_ptr<const obs::MetricsReport> metrics;

  /// Per-instance lookup by unique machine name ("WebServer", "WebServer#2").
  const stats::MachineUsage* machine(const std::string& name) const {
    for (const auto& u : usage) {
      if (u.name == name) return &u;
    }
    return nullptr;
  }

  /// Per-tier lookup by tier name (aggregated over replicas).
  const stats::MachineUsage* tier(const std::string& name) const {
    for (const auto& u : tierUsage) {
      if (u.name == name) return &u;
    }
    return nullptr;
  }
};

/// Runs one full experiment: validates the params, takes a private copy of
/// the populated database per database backend from the dataset cache,
/// builds the topology for the configuration, ramps up, measures, ramps
/// down, and returns the copies to the cache. Safe to call concurrently
/// from multiple threads — each call owns its whole simulation substrate.
ExperimentResult runExperiment(const ExperimentParams& params);

/// Seed for one sweep point, derived as hash(rootSeed, app, mix, config,
/// clients[, scenario]) — the point's *full* coordinates. Depending only on
/// those coordinates (never the point's position in the sweep, the jobs
/// count, or scheduling) makes every point's result independent of how the
/// sweep is shaped or parallelised; including app and mix keeps different
/// figures' random streams uncorrelated at equal (config, clients).
///
/// `scenarioTag` is scenario::Spec::seedTag(): 0 ("scenario off", the
/// default) leaves the derivation exactly as before, so every existing
/// sweep keeps its seeds; a non-zero tag folds the scenario's
/// behavior-affecting coordinates in, so open-loop or failure sweeps are
/// not seed-correlated with closed-loop sweeps at equal coordinates.
std::uint64_t pointSeed(std::uint64_t rootSeed, App app, int mix, Configuration config,
                        int clients, std::uint64_t scenarioTag = 0);

/// The params for one sweep point: base with (config, clients) applied,
/// seed = pointSeed over the full coordinates, and dataSeed pinned to the
/// base seed's population stream so all points share one cached dataset.
ExperimentParams pointParams(const ExperimentParams& base, Configuration config,
                             int clients);

/// Options for the batch runners below.
struct SweepOptions {
  /// Worker threads for independent points. <= 1 runs sequentially on the
  /// calling thread; 0/negative also mean sequential (benches map
  /// `--jobs 0` to defaultJobCount() before getting here).
  int jobs = 1;
  /// Optional progress hook, invoked once per finished point with its index
  /// in the batch. Calls are serialized, but arrive in completion order and
  /// possibly on worker threads.
  std::function<void(std::size_t index, const ExperimentParams& params,
                     const ExperimentResult& result)>
      onResult;
};

/// Runs a batch of independent experiments and returns results in input
/// order. With opts.jobs > 1 the points run concurrently; results are
/// bit-identical to a sequential run because every point's randomness comes
/// only from its own params.
std::vector<ExperimentResult> runMany(const std::vector<ExperimentParams>& points,
                                      const SweepOptions& opts = {});

/// Sweeps client counts and returns one result per count. Each point gets
/// its own derived seed (see pointSeed), so adding or reordering points
/// never perturbs the other points' results.
std::vector<ExperimentResult> sweepClients(const ExperimentParams& base,
                                           const std::vector<int>& clientCounts,
                                           const SweepOptions& opts = {});

/// Sweeps the full (configuration × client-count) grid; result[c][p] is
/// configs[c] at clientCounts[p], identical to nested sequential loops.
std::vector<std::vector<ExperimentResult>> sweepGrid(
    const ExperimentParams& base, const std::vector<Configuration>& configs,
    const std::vector<int>& clientCounts, const SweepOptions& opts = {});

const char* mixName(App app, int mix);

}  // namespace mwsim::core
