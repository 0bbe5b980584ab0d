/// §5.1 resource observations — online bookstore, shopping mix at peak:
/// memory per machine (paper: ~410 MB on the database, ~70 MB of web-server
/// processes plus the image buffer cache), network traffic (heaviest
/// web<->clients, under 3.5 Mb/s), and lock statistics.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/report.hpp"

using namespace mwsim;

int main(int argc, char** argv) {
  bench::FigureSpec spec;
  spec.id = "Table A (paper section 5.1)";
  spec.title = "Online bookstore resource usage at the shopping-mix peak";
  spec.paperExpectation =
      "database memory ~410 MB steady; web server ~70 MB of processes plus buffer "
      "cache; client traffic < 3.5 Mb/s (mostly images); disk and network never the "
      "bottleneck";
  spec.app = core::App::Bookstore;
  spec.mix = 1;
  const auto opts = bench::BenchOptions::parse(spec.summary(), argc, argv);
  std::printf("== %s: %s ==\npaper: %s\n\n", spec.id, spec.title, spec.paperExpectation);

  const std::vector<core::Configuration> configs{core::Configuration::WsPhpDb,
                                                 core::Configuration::WsServletSepDb};
  std::vector<core::ExperimentParams> points;
  for (auto config : configs) {
    points.push_back(core::pointParams(opts.baseParams(spec), config, 700));
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

    const double minutes = opts.measureSec / 60.0;
    stats::TextTable links({"link", "Mb/s", "packets/s", "messages/s"});
    for (const auto& [key, t] : r.traffic) {
      const double seconds = minutes * 60.0;
      links.addRow({key.first + " -> " + key.second,
                    stats::fmt(static_cast<double>(t.bytes) * 8 / seconds / 1e6, 3),
                    stats::fmt(static_cast<double>(t.packets) / seconds, 0),
                    stats::fmt(static_cast<double>(t.messages) / seconds, 0)});
    }
    std::printf("%s", links.str().c_str());
    std::printf("database size: %.0f MB; lock acquisitions: %llu (%llu contended, "
                "%.1f s total wait)\n\n",
                static_cast<double>(r.databaseBytes) / 1e6,
                static_cast<unsigned long long>(r.lockAcquisitions),
                static_cast<unsigned long long>(r.contendedLockAcquisitions),
                r.lockWaitSeconds);
  }
  std::printf("note: traffic rates are averaged over the whole run (ramp included); "
              "the paper reports measurement-phase rates.\n");
  return 0;
}
