/// timeline_demo — sysstat-style per-second timeline of an overload event.
///
/// The paper's methodology (§4.5) samples CPU/network once a second with
/// sysstat and inspects the series post-mortem ("100% utilized throughout
/// the peak plateau"). This example reproduces that workflow: it loads the
/// bookstore's shopping mix past its knee and prints the per-second
/// database and web-server CPU series around the measurement window.

#include <cstdio>

#include "apps/bookstore/bookstore.hpp"
#include "apps/bookstore/schema.hpp"
#include "bench/cli.hpp"
#include "middleware/php_module.hpp"
#include "middleware/web_server.hpp"
#include "obs/machine.hpp"
#include "obs/pump.hpp"
#include "workload/client.hpp"

int main(int argc, char** argv) {
  using namespace mwsim;
  int clients = 500;
  cli::Parser("Per-second web and database CPU of the bookstore loaded past its knee")
      .add("--clients", clients, "emulated browsers")
      .parse(argc, argv);

  mw::CostModel cost;
  sim::Simulation simulation(7);
  net::Network network(simulation);
  net::Machine clientFarm(simulation, "clients", 64, 1e12);
  net::Machine web(simulation, "WebServer");
  net::Machine dbMachine(simulation, "Database");

  db::Database database;
  apps::bookstore::Scale scale;
  scale.scale = 0.1;
  apps::bookstore::createSchema(database);
  sim::Rng dataRng(1);
  apps::bookstore::populate(database, scale, dataRng);
  mw::DatabaseServer dbServer(simulation, dbMachine, database, cost);
  mw::DbCluster dbCluster(dbServer);

  apps::bookstore::BookstoreLogic logic(scale);
  mw::PhpModule php(simulation, network, web, dbCluster, logic, cost, 7);
  mw::WebServer webServer(simulation, web, network, clientFarm, cost);
  webServer.setGenerator(&php);

  const auto mix = apps::bookstore::mixMatrix(apps::bookstore::Mix::Shopping);
  wl::WorkloadStats stats;
  wl::ClientFarm farm(simulation, webServer, mix, clients, stats, 7);
  farm.start();

  // The metrics pump steps the simulation and snapshots both machines
  // once a simulated second.
  obs::MetricsRegistry registry;
  obs::addMachineProbes(registry, web);
  obs::addMachineProbes(registry, dbMachine);
  obs::MetricsPump pump(simulation, registry);

  const sim::SimTime horizon = 90 * sim::kSecond;
  stats.measuring = true;
  pump.runTo(horizon);
  simulation.shutdown();

  const obs::MetricsReport report = pump.buildReport(0, horizon);
  const auto& webCpu = *report.findUtilization("WebServer/cpu");
  const auto& dbCpu = *report.findUtilization("Database/cpu");
  std::printf("bookstore shopping mix, %d clients (PHP configuration)\n", clients);
  std::printf("%-6s %-10s %-10s\n", "sec", "web cpu%", "db cpu%");
  for (std::size_t i = 1; i < report.times.size(); i += 5) {
    const sim::SimTime from = report.times[i - 1];
    const sim::SimTime to = report.times[i];
    std::printf("%-6lld %-10.0f %-10.0f\n", static_cast<long long>(to / sim::kSecond),
                report.meanUtilization(webCpu, from, to) * 100,
                report.meanUtilization(dbCpu, from, to) * 100);
  }
  std::printf("\nfraction of seconds 30..90 with db cpu >= 90%%: %.0f%%\n",
              report.fractionAbove(dbCpu, 0.9, 30 * sim::kSecond, horizon) * 100);
  std::printf("completed interactions: %llu; web-server error pages: %llu\n",
              static_cast<unsigned long long>(stats.completedInteractions),
              static_cast<unsigned long long>(webServer.errorCount()));
  return 0;
}
