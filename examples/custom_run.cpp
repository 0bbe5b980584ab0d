/// custom_run — run any single configuration/app/mix/load point and print
/// the paper-style metrics. This is the swiss-army knife for exploring the
/// simulator beyond the canned figures:
///
///   custom_run --config Ws-Servlet-DB --app auction --mix bidding --clients 1200
///
/// `custom_run --help` lists every flag with its default.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/cli.hpp"
#include "core/experiment.hpp"
#include "stats/report.hpp"

using namespace mwsim;

namespace {

void printResult(const core::ExperimentParams& params, const core::ExperimentResult& result) {
  std::printf("configuration: %s  app: %s  mix: %s  clients: %d\n",
              core::configurationName(params.config),
              params.app == core::App::Bookstore  ? "bookstore"
              : params.app == core::App::Auction ? "auction"
                                                 : "bulletin-board",
              core::mixName(params.app, params.mix), params.clients);
  std::printf("throughput: %.0f interactions/min (%llu interactions, %.1f%% read-write)\n",
              result.throughputIpm,
              static_cast<unsigned long long>(result.interactions),
              result.interactions
                  ? 100.0 * static_cast<double>(result.readWriteInteractions) /
                        static_cast<double>(result.interactions)
                  : 0.0);
  std::printf("response time: mean %.3f s, p90 %.3f s\n", result.meanResponseSeconds,
              result.p90ResponseSeconds);
  std::printf("db: %llu queries, %llu lock acquisitions (%llu contended, %.1f s waited)\n",
              static_cast<unsigned long long>(result.queries),
              static_cast<unsigned long long>(result.lockAcquisitions),
              static_cast<unsigned long long>(result.contendedLockAcquisitions),
              result.lockWaitSeconds);
  stats::TextTable table({"machine", "cpu%", "nic Mb/s", "nic util", "mem MB"});
  for (const auto& u : result.usage) {
    table.addRow({u.name, stats::fmt(u.cpuUtilization * 100.0),
                  stats::fmt(u.nicMbps, 2), stats::fmtPct(u.nicUtilization),
                  stats::fmt(static_cast<double>(u.memoryBytes) / 1e6, 1)});
  }
  std::printf("%s", table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentParams params;
  params.app = core::App::Auction;
  params.clients = 300;
  std::vector<std::pair<std::string, core::Configuration>> configs;
  for (auto c : core::allConfigurations()) configs.emplace_back(core::configurationName(c), c);
  // Empty keeps the app's main mix (params.mix = 1: shopping, bidding or submission).
  std::string mix;
  const auto mixOfApp = [&] {
    for (int m = 0; m < 3; ++m) {
      if (mix == core::mixName(params.app, m)) return m;
    }
    return -1;
  };
  double rampUpSec = sim::toSeconds(params.rampUp);
  double measureSec = sim::toSeconds(params.measure);
  double rampDownSec = sim::toSeconds(params.rampDown);
  cli::Parser("Run one configuration, app, mix and load point; print paper-style metrics")
      .choice("--config", params.config, configs, "middleware configuration")
      .choice("--app", params.app,
              {{"bookstore", core::App::Bookstore},
               {"auction", core::App::Auction},
               {"bbs", core::App::BulletinBoard}},
              "benchmark application")
      .choice("--mix", mix, {"browsing", "shopping", "ordering", "bidding", "submission"},
              "workload mix of the app (default: shopping, bidding or submission)")
      .add("--clients", params.clients, "emulated browsers")
      .add("--seed", params.seed, "simulation seed")
      .add("--rampup-sec", rampUpSec, "ramp-up, simulated seconds")
      .add("--measure-sec", measureSec, "measurement window, simulated seconds")
      .add("--rampdown-sec", rampDownSec, "ramp-down, simulated seconds")
      .add("--bookstore-scale", params.bookstoreScale, "bookstore database scale, 1 = the paper's")
      .add("--auction-scale", params.auctionHistoryScale, "auction history scale, 1 = the paper's")
      .add("--bbs-scale", params.bbsHistoryScale, "bulletin-board history scale")
      .check([&] {
        return mix.empty() || mixOfApp() >= 0 ? std::string()
                                              : "--mix " + mix + " is not a mix of that --app";
      })
      .parse(argc, argv);
  if (!mix.empty()) params.mix = mixOfApp();
  params.rampUp = sim::fromSeconds(rampUpSec);
  params.measure = sim::fromSeconds(measureSec);
  params.rampDown = sim::fromSeconds(rampDownSec);

  const core::ExperimentResult result = core::runExperiment(params);
  printResult(params, result);
  return 0;
}
