/// Extension — response-time analysis the paper omits.
///
/// The paper reports only throughput and utilization; a practitioner also
/// cares how latency degrades as each architecture saturates. This bench
/// sweeps the auction bidding mix and prints mean/p90 response times per
/// configuration — showing that the architectures' latency cliffs sit at
/// their throughput knees, and that EJB trades latency long before its
/// throughput ceiling.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/report.hpp"

using namespace mwsim;

int main(int argc, char** argv) {
  bench::FigureSpec spec;
  spec.app = core::App::Auction;
  spec.mix = 1;
  const auto opts = bench::BenchOptions::parse(
      "Extension: response times vs load (auction, bidding mix)", argc, argv);
  std::printf("== Extension: response times vs load (auction, bidding mix) ==\n\n");

  const std::vector<core::Configuration> configs{
      core::Configuration::WsPhpDb, core::Configuration::WsServletSepDb,
      core::Configuration::WsServletEjbDb};
  stats::TextTable table({"clients", "config", "ipm", "mean RT ms", "p90 RT ms"});
  const std::vector<int> clientCounts{400, 800, 1200, 1600};
  std::vector<core::ExperimentParams> points;
  for (int clients : clientCounts) {
    for (auto config : configs) {
      points.push_back(core::pointParams(opts.baseParams(spec), config, clients));
    }
  }
  const auto results = core::runMany(points, opts.sweepOptions());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = results[i];
    table.addRow({std::to_string(points[i].clients),
                  core::configurationName(points[i].config),
                  stats::fmt(r.throughputIpm, 0),
                  stats::fmt(r.meanResponseSeconds * 1e3, 0),
                  stats::fmt(r.p90ResponseSeconds * 1e3, 0)});
  }
  std::printf("%s\nexpected: every architecture answers in tens of milliseconds until "
              "its knee, then queueing dominates; EJB's latency departs first (lowest "
              "capacity), PHP next, the dedicated servlet machine last.\n",
              table.str().c_str());
  return 0;
}
