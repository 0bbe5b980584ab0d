/// Ablation — AJP relay cost (DESIGN.md design decision 4).
///
/// Sweeps the per-byte cost of relaying dynamic content between the web
/// server and the servlet engine; shows how the IPC overhead the paper
/// profiles in §6.1 drives the PHP-vs-co-located-servlet gap, and that a
/// dedicated servlet machine is insulated from the web-side half of it.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/report.hpp"

using namespace mwsim;

int main(int argc, char** argv) {
  bench::FigureSpec spec;
  spec.app = core::App::Auction;
  spec.mix = 1;
  const auto opts = bench::BenchOptions::parse(
      "Ablation: AJP per-byte relay cost (auction, bidding mix, 1100 clients)", argc, argv);
  std::printf("== Ablation: AJP per-byte relay cost (auction, bidding mix, 1100 clients) ==\n\n");

  stats::TextTable table({"ajpPerByteUs", "WsPhp-DB", "WsServlet-DB", "Ws-Servlet-DB"});
  const std::vector<double> ajpCosts{0.0, 0.03, 0.10, 0.30};
  const std::vector<core::Configuration> configs{core::Configuration::WsPhpDb,
                                                 core::Configuration::WsServletDb,
                                                 core::Configuration::WsServletSepDb};
  std::vector<core::ExperimentParams> points;
  for (double ajp : ajpCosts) {
    for (auto config : configs) {
      core::ExperimentParams params =
          core::pointParams(opts.baseParams(spec), config, 1100);
      params.cost.ajpPerByteUs = ajp;
      points.push_back(params);
    }
  }
  const auto results = core::runMany(points, opts.sweepOptions());
  for (std::size_t a = 0; a < ajpCosts.size(); ++a) {
    std::vector<std::string> row{stats::fmt(ajpCosts[a], 2)};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      row.push_back(stats::fmt(results[a * configs.size() + c].throughputIpm, 0));
    }
    table.addRow(row);
  }
  std::printf("%s\nexpected: PHP is insensitive; the co-located servlet configuration "
              "degrades fastest (pays the relay on the bottleneck machine, twice).\n",
              table.str().c_str());
  return 0;
}
