/// Extension — mid-run failover experiment the scenario engine enables:
/// a web replica crashes at t=T and recovers later, and the load balancer
/// must route around it. The paper only measures steady state; this bench
/// asks the operational questions instead — how deep is the throughput dip,
/// how much error traffic leaks out during the blackout, and how fast the
/// site recovers — and compares dispatch policies, since least-outstanding
/// should re-spread load faster than round-robin after a replica returns.
///
/// Setup: auction bidding on WsPhp-DB with a replicated web tier. The crash
/// kills one replica mid-measurement: its in-flight requests abort at their
/// next scheduling checkpoint and the balancer retries them on survivors
/// (bounded retries, optional per-request timeout), so the dip shows up as
/// a transient, not a collapse. The whole trajectory lands in a
/// stats::TimeSeries printed per policy.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "obs/analyzer.hpp"
#include "stats/report.hpp"

using namespace mwsim;

namespace {

struct Dip {
  double preIpm = 0.0;       // mean ok/min before the crash
  double minOutageIpm = 0.0; // worst bucket during the outage
  double recoverySec = -1.0; // first bucket >= 90% of preIpm after recovery
};

Dip analyze(const stats::TimeSeries& series, double crashSec, double recoverSec) {
  Dip dip;
  const auto& buckets = series.buckets();
  const double bucketSec = sim::toSeconds(series.interval());
  double preSum = 0.0;
  int preCount = 0;
  bool first = true;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double start = sim::toSeconds(series.bucketStart(i));
    const double ipm = series.okPerMinute(i);
    // Skip the first bucket: it covers the client farm's staggered start.
    if (start + bucketSec <= crashSec) {
      if (start > 0.0) {
        preSum += ipm;
        ++preCount;
      }
    } else if (start < recoverSec) {
      if (first || ipm < dip.minOutageIpm) dip.minOutageIpm = ipm;
      first = false;
    } else if (dip.recoverySec < 0.0 && preCount > 0 &&
               ipm >= 0.9 * (preSum / preCount)) {
      dip.recoverySec = start - recoverSec;
    }
  }
  if (preCount > 0) dip.preIpm = preSum / preCount;
  return dip;
}

}  // namespace

int main(int argc, char** argv) {
  bench::FigureSpec spec;
  spec.app = core::App::Auction;
  spec.mix = 1;  // bidding
  const auto config = core::Configuration::WsPhpDb;

  int webReplicas = 2;
  int clients = 1200;
  double crashSec = 80.0;
  double outageSec = 40.0;
  double timeoutMs = 2000.0;
  int retries = 2;
  double bucketSec = 10.0;
  bench::BenchOptions opts;
  cli::Parser parser("Extension: web replica crash and recovery vs dispatch policy");
  parser.add("--web-replicas", webReplicas, "web-tier replicas; the last one crashes")
      .add("--clients", clients, "closed-loop clients")
      .add("--crash-sec", crashSec, "crash time, simulated seconds from the run start")
      .add("--outage-sec", outageSec, "outage before the replica recovers, seconds")
      .add("--timeout-ms", timeoutMs, "per-request deadline, 0 = none")
      .add("--retries", retries, "reroute attempts per request")
      .add("--bucket-sec", bucketSec, "time-series bucket width, seconds");
  opts.parse(parser, argc, argv, bench::kCsv | bench::kBreakdown | bench::kNoMetrics);
  const double recoverSec = crashSec + outageSec;

  std::printf("== Extension: web-replica failover (auction, bidding mix, %s) ==\n",
              core::configurationName(config));
  std::printf("(web×%d, %d clients, crash WebServer#%d at t=%.0fs, recover t=%.0fs, "
              "timeout %.0fms, %d retries, measure %.0fs, ramp-up %.0fs, seed %llu)\n\n",
              webReplicas, clients, webReplicas, crashSec, recoverSec, timeoutMs,
              retries, opts.measureSec, opts.rampUpSec,
              static_cast<unsigned long long>(opts.seed));
  std::fflush(stdout);

  const std::vector<mw::Dispatch> policies{mw::Dispatch::RoundRobin,
                                           mw::Dispatch::LeastOutstanding};

  std::vector<core::ExperimentParams> points;
  for (mw::Dispatch policy : policies) {
    auto base = opts.baseParams(spec);
    core::Topology topo = core::canonicalTopology(config);
    topo.web.replicas = webReplicas;
    topo.webDispatch = policy;
    base.topology = topo;
    // The crash takes out the last replica, mid-measurement.
    base.scenario.events = {
        scenario::replicaCrash(sim::fromSeconds(crashSec), scenario::Tier::Web,
                               webReplicas - 1),
        scenario::replicaRecover(sim::fromSeconds(recoverSec), scenario::Tier::Web,
                                 webReplicas - 1),
    };
    base.scenario.requestTimeout = sim::fromMillis(timeoutMs);
    base.scenario.requestRetries = retries;
    base.scenario.seriesInterval = sim::fromSeconds(bucketSec);
    if (opts.tracing()) base.trace.enabled = true;
    points.push_back(core::pointParams(base, config, clients));
  }
  const auto results = core::runMany(points, opts.sweepOptions());

  stats::TextTable table({"dispatch", "ipm", "errors", "rerouted", "timeouts",
                          "pre-crash ok/min", "outage min ok/min", "recovery s"});
  std::string csv =
      "dispatch,ipm,errors,rerouted,timeouts,pre_ipm,outage_min_ipm,recovery_sec\n";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& r = results[i];
    const char* name = mw::dispatchName(policies[i]);
    const Dip dip = r.series ? analyze(*r.series, crashSec, recoverSec) : Dip{};
    const std::string rec =
        dip.recoverySec < 0 ? "-" : stats::fmt(dip.recoverySec, 0);
    table.addRow({name, stats::fmt(r.throughputIpm, 0), std::to_string(r.webErrors),
                  std::to_string(r.reroutedRequests), std::to_string(r.timedOutRequests),
                  stats::fmt(dip.preIpm, 0), stats::fmt(dip.minOutageIpm, 0), rec});
    csv += std::string(name) + "," + stats::fmt(r.throughputIpm, 0) + "," +
           std::to_string(r.webErrors) + "," + std::to_string(r.reroutedRequests) + "," +
           std::to_string(r.timedOutRequests) + "," + stats::fmt(dip.preIpm, 0) + "," +
           stats::fmt(dip.minOutageIpm, 0) + "," + rec + "\n";
  }
  std::printf("%s\n", table.str().c_str());
  if (opts.csv) std::printf("%s\n", csv.c_str());

  for (std::size_t i = 0; i < policies.size(); ++i) {
    if (results[i].series) {
      bench::printTimeSeries(mw::dispatchName(policies[i]), *results[i].series);
    }
  }

  // Windowed bottleneck verdicts: the verdict flips mid-run — during the
  // blackout the surviving web replica's CPU is the wall (the crashed
  // replica's own CPU idles, so it cannot win the window).
  const double endSec = opts.rampUpSec + opts.measureSec + 5.0;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    if (!results[i].metrics) continue;
    const obs::MetricsReport& mr = *results[i].metrics;
    const char* name = mw::dispatchName(policies[i]);
    std::printf("\nwindowed verdicts (%s):\n", name);
    const auto window = [&](const char* label, double fromSec, double toSec) {
      const obs::Verdict v = obs::analyze(mr, nullptr, sim::fromSeconds(fromSec),
                                          sim::fromSeconds(toSec));
      std::printf("  verdict[%s]: %s\n", label, v.oneLine().c_str());
    };
    window("pre-crash", 0.0, crashSec);
    window("crash window", crashSec, recoverSec);
    window("post-recovery", recoverSec, endSec);
  }
  std::fflush(stdout);

  std::printf("\nexpected: the dip bottoms out near the survivors' capacity (not zero "
              "— rerouted requests complete within the retry budget), errors stay "
              "bounded by the in-flight work lost at the crash instant, and "
              "throughput is back to ~pre-crash level within a bucket or two of "
              "recovery.\n");
  std::fflush(stdout);

  if (opts.breakdown) {
    for (std::size_t i = 0; i < policies.size(); ++i) {
      if (results[i].trace != nullptr) {
        std::string name = std::string(core::configurationName(config)) + " " +
                           mw::dispatchName(policies[i]) + " (crash scenario)";
        bench::printBreakdown(name.c_str(), clients, *results[i].trace);
      }
    }
  }
  return 0;
}
