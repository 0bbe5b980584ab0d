/// Ablation — LOCK TABLES handler-reopen cost (DESIGN.md design decisions
/// 2/3). Sweeps the per-table cost MySQL 3.23 pays around explicit locks;
/// at zero the sync and non-sync bookstore configurations converge, which
/// is exactly the paper's claim about *why* Java-monitor locking wins.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/report.hpp"

using namespace mwsim;

int main(int argc, char** argv) {
  bench::FigureSpec spec;
  spec.app = core::App::Bookstore;
  spec.mix = 1;
  const auto opts = bench::BenchOptions::parse(
      "Ablation: LOCK TABLES per-table reopen cost (bookstore, shopping mix, 700 clients)",
      argc, argv);
  std::printf(
      "== Ablation: LOCK TABLES per-table reopen cost (bookstore, shopping mix, "
      "700 clients) ==\n\n");

  stats::TextTable table(
      {"dbLockPerTableUs", "WsPhp-DB", "WsServlet-DB(sync)", "sync advantage"});
  const std::vector<double> lockCosts{0.0, 1300.0, 2600.0, 5200.0};
  std::vector<core::ExperimentParams> points;
  for (double lockUs : lockCosts) {
    for (auto config :
         {core::Configuration::WsPhpDb, core::Configuration::WsServletDbSync}) {
      core::ExperimentParams params =
          core::pointParams(opts.baseParams(spec), config, 700);
      params.cost.dbLockPerTableUs = lockUs;
      points.push_back(params);
    }
  }
  const auto results = core::runMany(points, opts.sweepOptions());
  for (std::size_t i = 0; i < lockCosts.size(); ++i) {
    const auto& php = results[2 * i];
    const auto& sync = results[2 * i + 1];
    table.addRow({stats::fmt(lockCosts[i], 0), stats::fmt(php.throughputIpm, 0),
                  stats::fmt(sync.throughputIpm, 0),
                  stats::fmt((sync.throughputIpm / php.throughputIpm - 1.0) * 100, 1) + "%"});
  }
  std::printf("%s\nexpected: the sync advantage grows with the explicit-lock cost and "
              "vanishes when it is free (the paper measures ~28%% at the shopping-mix "
              "peak).\n",
              table.str().c_str());
  return 0;
}
