/// §6.1 resource observations — auction site, bidding mix at peak: the EJB
/// configuration exchanges ~2,000 small packets/s with the database
/// (~0.5 Mb/s); servlet<->database traffic ~1.8 Mb/s; memory ~110/95/390/190
/// MB on web/servlet/db/EJB.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/report.hpp"

using namespace mwsim;

int main(int argc, char** argv) {
  bench::FigureSpec spec;
  spec.id = "Table B (paper section 6.1)";
  spec.title = "Auction site resource usage at the bidding-mix peak";
  spec.paperExpectation =
      "EJB server <-> database: ~2,000 packets/s of single-value reads/updates at "
      "only ~0.5 Mb/s; servlet <-> database ~1.8 Mb/s; no disk/memory bottleneck";
  spec.app = core::App::Auction;
  spec.mix = 1;
  const auto opts = bench::BenchOptions::parse(spec.summary(), argc, argv);
  std::printf("== %s: %s ==\npaper: %s\n\n", spec.id, spec.title, spec.paperExpectation);

  struct Run {
    core::Configuration config;
    int clients;
  };
  const std::vector<Run> runs{Run{core::Configuration::WsServletSepDb, 1300},
                              Run{core::Configuration::WsServletEjbDb, 900}};
  std::vector<core::ExperimentParams> points;
  for (const Run& run : runs) {
    points.push_back(core::pointParams(opts.baseParams(spec), run.config, run.clients));
  }
  const auto results = core::runMany(points, opts.sweepOptions());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = results[i];

    std::printf("-- %s at %d clients: %.0f interactions/min --\n",
                core::configurationName(points[i].config), points[i].clients,
                r.throughputIpm);
    stats::TextTable machines({"machine", "cpu%", "nic Mb/s", "memory MB"});
    for (const auto& u : r.usage) {
      machines.addRow({u.name, stats::fmt(u.cpuUtilization * 100, 1),
                       stats::fmt(u.nicMbps, 2),
                       stats::fmt(static_cast<double>(u.memoryBytes) / 1e6, 0)});
    }
    std::printf("%s", machines.str().c_str());

    const double seconds = opts.measureSec + opts.rampUpSec + 5;
    stats::TextTable links({"link", "Mb/s", "packets/s"});
    for (const auto& [key, t] : r.traffic) {
      links.addRow({key.first + " -> " + key.second,
                    stats::fmt(static_cast<double>(t.bytes) * 8 / seconds / 1e6, 3),
                    stats::fmt(static_cast<double>(t.packets) / seconds, 0)});
    }
    std::printf("%s\n", links.str().c_str());
  }
  return 0;
}
