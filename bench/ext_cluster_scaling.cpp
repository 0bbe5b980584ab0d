/// Extension — cluster scaling experiment the paper motivates but never
/// runs: §6 attributes each architecture's ceiling to one saturated tier,
/// which predicts that replicating the bottleneck tier moves the knee. This
/// bench sweeps web-tier replica counts (default 1/2/4, auction bidding mix
/// on WsPhp-DB, whose knee is web-CPU-bound) and prints one throughput
/// curve per replica count, the located knee, and which tier limits it —
/// with --breakdown adding the per-tier latency attribution at each knee.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "stats/report.hpp"

using namespace mwsim;

namespace {

/// The tier whose utilization caps the curve: highest CPU across tiers,
/// unless the web NIC is hotter than every CPU (the paper's fig07 case).
std::string limitingTier(const core::ExperimentResult& r) {
  const stats::MachineUsage* hottest = nullptr;
  for (const auto& tier : r.tierUsage) {
    if (hottest == nullptr || tier.cpuUtilization > hottest->cpuUtilization) {
      hottest = &tier;
    }
  }
  if (hottest == nullptr) return "?";
  const auto* web = r.tier("WebServer");
  if (web != nullptr && web->nicUtilization > hottest->cpuUtilization) {
    return "WebServer NIC";
  }
  return hottest->name + " CPU";
}

}  // namespace

int main(int argc, char** argv) {
  bench::FigureSpec spec;
  spec.app = core::App::Auction;
  spec.mix = 1;  // bidding
  const auto config = core::Configuration::WsPhpDb;

  std::vector<int> webReplicas{1, 2, 4};
  int dbReplicas = 1;
  mw::DbPolicy dbPolicy = mw::DbPolicy::MasterReplica;
  std::vector<int> clients{400, 800, 1200, 1600, 2400, 3200, 4800, 6000};
  bench::BenchOptions opts;
  cli::Parser parser("Extension: throughput vs load for replicated web tiers");
  parser.add("--web-replicas", webReplicas, "web-tier replica counts, one curve each")
      .add("--db-replicas", dbReplicas, "database replicas for every curve")
      .choice("--db-policy", dbPolicy,
              {{"master", mw::DbPolicy::MasterReplica}, {"shard", mw::DbPolicy::ShardedByKey}},
              "replicated-database routing")
      .add("--clients", clients, "client counts of every curve");
  opts.parse(parser, argc, argv, bench::kQuick | bench::kCsv | bench::kBreakdown);
  if (opts.quick) {
    std::vector<int> halved;
    for (std::size_t i = 0; i < clients.size(); i += 2) halved.push_back(clients[i]);
    clients = halved;
  }

  auto topologyFor = [&](int replicas) {
    core::Topology t = core::canonicalTopology(config);
    t.web.replicas = replicas;
    t.db.replicas = dbReplicas;
    t.dbPolicy = dbPolicy;
    return t;
  };

  std::printf("== Extension: cluster scaling (auction, bidding mix, %s) ==\n",
              core::configurationName(config));
  std::printf("(measure %.0fs, ramp-up %.0fs, seed %llu, db×%d %s)\n\n", opts.measureSec,
              opts.rampUpSec, static_cast<unsigned long long>(opts.seed), dbReplicas,
              mw::dbPolicyName(dbPolicy));
  std::fflush(stdout);

  // One flat batch across every (replica count, clients) point: the sweep
  // points are independent, so --jobs parallelism spans the whole grid.
  std::vector<core::ExperimentParams> points;
  for (int replicas : webReplicas) {
    for (int c : clients) {
      auto base = opts.baseParams(spec);
      base.topology = topologyFor(replicas);
      points.push_back(core::pointParams(base, config, c));
    }
  }
  const auto results = core::runMany(points, opts.sweepOptions());

  stats::TextTable table({"web replicas", "clients", "ipm", "mean RT ms", "limited by"});
  std::string csv = "web_replicas,clients,ipm,mean_rt_ms,limiting_tier\n";
  struct Knee {
    int replicas = 0;
    int clients = 0;
    double ipm = 0.0;
    std::string limit;
    std::size_t point = 0;
  };
  std::vector<Knee> knees;
  for (std::size_t ri = 0; ri < webReplicas.size(); ++ri) {
    Knee knee;
    knee.replicas = webReplicas[ri];
    for (std::size_t ci = 0; ci < clients.size(); ++ci) {
      const std::size_t i = ri * clients.size() + ci;
      const auto& r = results[i];
      const std::string limit = limitingTier(r);
      if (r.throughputIpm > knee.ipm) {
        knee.ipm = r.throughputIpm;
        knee.clients = clients[ci];
        knee.limit = limit;
        knee.point = i;
      }
      table.addRow({std::to_string(webReplicas[ri]), std::to_string(clients[ci]),
                    stats::fmt(r.throughputIpm, 0),
                    stats::fmt(r.meanResponseSeconds * 1e3, 0), limit});
      csv += std::to_string(webReplicas[ri]) + "," + std::to_string(clients[ci]) + "," +
             stats::fmt(r.throughputIpm, 0) + "," +
             stats::fmt(r.meanResponseSeconds * 1e3, 0) + "," + limit + "\n";
    }
    knees.push_back(knee);
  }
  std::printf("%s\n", table.str().c_str());
  if (opts.csv) std::printf("%s\n", csv.c_str());

  for (const auto& knee : knees) {
    std::printf("web×%d knee: %.0f ipm at %d clients, limited by %s\n", knee.replicas,
                knee.ipm, knee.clients, knee.limit.c_str());
  }
  std::printf("\nexpected: the single-web knee is web-CPU-bound, so web×2 roughly "
              "doubles the ceiling; by web×4 the limit migrates to another tier "
              "and further web replicas stop paying.\n");
  std::fflush(stdout);

  if (opts.breakdown) {
    for (const auto& knee : knees) {
      auto traced = points[knee.point];
      traced.trace.enabled = true;
      const auto r = core::runExperiment(traced);
      if (r.trace != nullptr) {
        std::string name = std::string(core::configurationName(config)) + " web×" +
                           std::to_string(knee.replicas);
        bench::printBreakdown(name.c_str(), knee.clients, *r.trace);
      }
    }
  }
  return 0;
}
