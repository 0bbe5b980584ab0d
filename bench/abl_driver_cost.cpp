/// Ablation — JDBC driver cost (DESIGN.md: type 4 interpreted driver vs
/// PHP's native driver). Sweeps the per-query JDBC cost and reports the
/// PHP : co-located-servlet peak ratio, the paper's §6.1 explanation for
/// the 33% bidding-mix gap.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/report.hpp"

using namespace mwsim;

int main(int argc, char** argv) {
  bench::FigureSpec spec;
  spec.app = core::App::Auction;
  spec.mix = 1;
  const auto opts = bench::BenchOptions::parse(
      "Ablation: type-4 JDBC per-query cost (auction, bidding mix, 1100 clients)", argc, argv);
  std::printf(
      "== Ablation: type-4 JDBC per-query cost (auction, bidding mix, 1100 clients) ==\n\n");

  const std::vector<double> jdbcCosts{90.0, 280.0, 560.0, 1120.0};
  std::vector<core::ExperimentParams> points;
  points.push_back(
      core::pointParams(opts.baseParams(spec), core::Configuration::WsPhpDb, 1100));
  for (double jdbc : jdbcCosts) {
    core::ExperimentParams params =
        core::pointParams(opts.baseParams(spec), core::Configuration::WsServletDb, 1100);
    params.cost.jdbcPerQueryUs = jdbc;
    points.push_back(params);
  }
  const auto results = core::runMany(points, opts.sweepOptions());

  const auto& php = results[0];
  std::printf("WsPhp-DB baseline (native driver): %.0f ipm\n\n", php.throughputIpm);

  stats::TextTable table({"jdbcPerQueryUs", "WsServlet-DB ipm", "PHP/servlet ratio"});
  for (std::size_t i = 0; i < jdbcCosts.size(); ++i) {
    const auto& servlet = results[i + 1];
    table.addRow({stats::fmt(jdbcCosts[i], 0), stats::fmt(servlet.throughputIpm, 0),
                  stats::fmt(php.throughputIpm / servlet.throughputIpm, 2)});
  }
  std::printf("%s\nexpected: the ratio crosses the paper's ~1.33 near the calibrated "
              "per-query cost; at native-driver cost the gap shrinks toward the "
              "container overhead alone.\n",
              table.str().c_str());
  return 0;
}
