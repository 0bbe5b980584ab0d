/// Extension — kernel scaling sweep toward the million-client goal.
///
/// The paper's experiments stop near the capacity knee of one machine
/// (hundreds of emulated browsers); the roadmap's north star is simulating
/// the *same* closed-loop population at million-client scale. This bench
/// measures the simulation kernel itself on a macro-shaped workload
/// (TPC-W-style think times feeding a pooled, processor-shared service
/// tier, the same shape as BM_ManyClients) while sweeping the client count
/// toward the memory/throughput wall, reporting sustained events/sec and
/// peak RSS at each population.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "sim/cpu.hpp"
#include "sim/resource.hpp"
#include "sim/sim.hpp"

using namespace mwsim;
using namespace mwsim::sim;

namespace {

/// Peak resident set size in MiB, from /proc/self/status (Linux).
double peakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// One closed-loop client: exponential think, acquire a pool slot, then a
/// processor-shared CPU burst — the event mix (timer + queue + completion)
/// of the paper's emulated-browser workloads, stripped of app logic.
Task<> client(Simulation& s, CpuResource& cpu, Resource& pool, Rng& rng) {
  for (;;) {
    co_await s.delay(fromSeconds(rng.exponential(7.0)));
    ResourceHold hold = co_await pool.acquire();
    co_await cpu.consume(fromMicros(rng.uniformReal(200.0, 5000.0)));
  }
}

struct Point {
  long clients;
  std::uint64_t events;
  double wallSeconds;
  double eventsPerSec;
  double rssMib;
};

Point runPoint(long clients, double warmupSeconds, double simSeconds,
               std::uint64_t seed) {
  Simulation sim(seed);
  // Service capacity scales with the population so the event mix keeps the
  // same shape at every size instead of collapsing into pure think timers.
  const int cores = static_cast<int>(clients / 128 < 2 ? 2 : clients / 128);
  const int poolCap = static_cast<int>(clients / 64 < 16 ? 16 : clients / 64);
  CpuResource cpu(sim, cores);
  Resource pool(sim, poolCap, "pool", trace::Category::CpuQueue);
  Rng rng(seed + 41);
  for (long i = 0; i < clients; ++i) sim.spawn(client(sim, cpu, pool, rng));

  sim.runUntil(fromSeconds(warmupSeconds));
  const std::uint64_t before = sim.eventsProcessed();
  const auto t0 = std::chrono::steady_clock::now();
  sim.runUntil(fromSeconds(warmupSeconds + simSeconds));
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t events = sim.eventsProcessed() - before;
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  Point p;
  p.clients = clients;
  p.events = events;
  p.wallSeconds = wall;
  p.eventsPerSec = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  p.rssMib = peakRssMib();
  sim.shutdown();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<long> clients = {1000, 10000, 100000, 1000000};
  double simSeconds = 5.0;
  double warmupSeconds = 10.0;
  std::uint64_t seed = 1;
  std::string jsonPath;
  cli::Parser("Kernel events/sec and peak RSS vs closed-loop client population")
      .add("--clients", clients, "populations to sweep")
      .add("--sim-seconds", simSeconds, "measured window of simulated time per point")
      .add("--warmup-seconds", warmupSeconds, "simulated warmup before measuring")
      .add("--seed", seed, "simulation seed")
      .add("--json", jsonPath, "also write the rows as JSON to this file")
      .parse(argc, argv);

  std::printf("# kernel large-scale sweep: seed=%llu warmup=%gs window=%gs\n",
              static_cast<unsigned long long>(seed), warmupSeconds, simSeconds);
  std::printf("%10s %14s %10s %14s %10s\n", "clients", "events", "wall_s",
              "events_per_s", "rss_mib");
  std::vector<Point> points;
  for (long n : clients) {
    const Point p = runPoint(n, warmupSeconds, simSeconds, seed);
    points.push_back(p);
    std::printf("%10ld %14llu %10.3f %14.0f %10.1f\n", p.clients,
                static_cast<unsigned long long>(p.events), p.wallSeconds,
                p.eventsPerSec, p.rssMib);
    std::fflush(stdout);
  }

  if (!jsonPath.empty()) {
    std::FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "  {\"clients\": %ld, \"events\": %llu, \"wall_s\": %.3f, "
                   "\"events_per_s\": %.0f, \"rss_mib\": %.1f}%s\n",
                   p.clients, static_cast<unsigned long long>(p.events),
                   p.wallSeconds, p.eventsPerSec, p.rssMib,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }
  return 0;
}
