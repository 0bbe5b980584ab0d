/// auction_demo — "where should the servlet engine run?"
///
/// The capacity-planning question behind the paper's §6: an eBay-style
/// auction site whose front end is the bottleneck. The demo loads the
/// bidding mix at increasing client counts in three deployments — PHP in
/// the web server, servlets co-located with the web server, and servlets on
/// a dedicated machine — and shows the crossover the paper reports: PHP
/// beats co-located servlets, but a second front-end machine beats both.

#include <cstdio>

#include "bench/cli.hpp"
#include "core/experiment.hpp"
#include "stats/report.hpp"

int main(int argc, char** argv) {
  using namespace mwsim;
  std::vector<int> loads{600, 1100, 1500};
  cli::Parser("Auction bidding mix: PHP vs co-located vs dedicated servlet engine")
      .add("--clients", loads, "emulated-browser counts, one table row each")
      .parse(argc, argv);

  core::ExperimentParams params;
  params.app = core::App::Auction;
  params.mix = 1;  // bidding — the representative auction mix
  params.rampUp = 30 * sim::kSecond;
  params.measure = 80 * sim::kSecond;
  params.rampDown = 5 * sim::kSecond;

  const std::vector<core::Configuration> deployments{
      core::Configuration::WsPhpDb,
      core::Configuration::WsServletDb,
      core::Configuration::WsServletSepDb,
  };

  std::printf("Auction site, bidding mix — front-end deployment comparison\n\n");
  stats::TextTable table(
      {"clients", "WsPhp-DB", "WsServlet-DB", "Ws-Servlet-DB", "winner"});
  for (int clients : loads) {
    params.clients = clients;
    std::vector<double> ipm;
    for (auto config : deployments) {
      params.config = config;
      ipm.push_back(core::runExperiment(params).throughputIpm);
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < ipm.size(); ++i) {
      if (ipm[i] > ipm[best]) best = i;
    }
    table.addRow({std::to_string(clients), stats::fmt(ipm[0], 0), stats::fmt(ipm[1], 0),
                  stats::fmt(ipm[2], 0), core::configurationName(deployments[best])});
  }
  std::printf("%s\n", table.str().c_str());

  // Show where the CPU goes at high load for the dedicated deployment.
  params.config = core::Configuration::WsServletSepDb;
  params.clients = loads.back();
  const auto r = core::runExperiment(params);
  std::printf("At %d clients on %s:\n", params.clients,
              core::configurationName(params.config));
  for (const auto& u : r.usage) {
    std::printf("  %-18s %5.1f%% CPU  %6.2f Mb/s\n", u.name.c_str(),
                u.cpuUtilization * 100, u.nicMbps);
  }
  std::printf("\nPHP's in-process execution wins while one machine must do everything;\n"
              "once the front end saturates, servlets' ability to run on their own\n"
              "machine buys the highest peak — the paper's central auction-site result.\n");
  return 0;
}
