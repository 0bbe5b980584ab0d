/// Ablation — database per-row scan cost (DESIGN.md design decision 1:
/// execution-derived query costing). Scales the per-row CPU coefficient and
/// shows the bookstore peak move while the front-end-bound auction peak
/// barely reacts — the paper's back-end vs front-end contrast in one table.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/report.hpp"

using namespace mwsim;

int main(int argc, char** argv) {
  const auto opts = bench::BenchOptions::parse(
      "Ablation: per-row scan cost (bookstore shopping vs auction bidding)", argc, argv);
  std::printf(
      "== Ablation: per-row scan cost (WsPhp-DB; bookstore shopping 700 clients vs "
      "auction bidding 1100 clients) ==\n\n");

  stats::TextTable table({"dbPerRowExaminedUs", "bookstore ipm", "auction ipm"});
  const std::vector<double> rowCosts{2.25, 4.5, 9.0, 18.0};
  std::vector<core::ExperimentParams> points;
  for (double perRow : rowCosts) {
    bench::FigureSpec book;
    book.app = core::App::Bookstore;
    book.mix = 1;
    core::ExperimentParams params =
        core::pointParams(opts.baseParams(book), core::Configuration::WsPhpDb, 700);
    params.cost.dbPerRowExaminedUs = perRow;
    points.push_back(params);

    bench::FigureSpec auction;
    auction.app = core::App::Auction;
    auction.mix = 1;
    core::ExperimentParams aParams =
        core::pointParams(opts.baseParams(auction), core::Configuration::WsPhpDb, 1100);
    aParams.cost.dbPerRowExaminedUs = perRow;
    points.push_back(aParams);
  }
  const auto results = core::runMany(points, opts.sweepOptions());
  for (std::size_t i = 0; i < rowCosts.size(); ++i) {
    table.addRow({stats::fmt(rowCosts[i], 2),
                  stats::fmt(results[2 * i].throughputIpm, 0),
                  stats::fmt(results[2 * i + 1].throughputIpm, 0)});
  }
  std::printf("%s\nexpected: the database-bound bookstore scales inversely with the "
              "row cost; the auction site, whose bottleneck is the content "
              "generator, is nearly flat.\n",
              table.str().c_str());
  return 0;
}
