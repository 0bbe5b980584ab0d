/// Extension — open-loop flash-crowd experiment. The paper's closed-loop
/// client emulator self-throttles: when the site slows down, so do the
/// clients. A real traffic surge does not — sessions keep arriving at the
/// offered rate regardless of how the site is doing. This bench offers an
/// open-loop Poisson session stream whose rate follows a flash-crowd shape
/// (base rate, then a ramp to surgeMultiplier × base, hold, decay) and
/// sweeps the surge multiplier: below the knee, completed throughput tracks
/// the offered rate; past it, admission control sheds the excess and the
/// site keeps serving at capacity instead of collapsing.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "obs/analyzer.hpp"
#include "stats/report.hpp"

using namespace mwsim;

int main(int argc, char** argv) {
  bench::FigureSpec spec;
  spec.app = core::App::Auction;
  spec.mix = 1;  // bidding
  const auto config = core::Configuration::WsPhpDb;

  double baseRate = 2.0;
  std::vector<double> surges{1, 2, 4, 8};
  double surgeStart = 90.0;
  double rampSec = 15.0;
  double holdSec = 60.0;
  double decaySec = 30.0;
  int maxSessions = 400;
  double bucketSec = 10.0;
  bench::BenchOptions opts;
  cli::Parser parser("Extension: open-loop surge sweep, shedding vs collapse");
  parser.add("--base-rate", baseRate, "base session arrivals per second")
      .add("--surge", surges, "surge multipliers of the base rate, one run each")
      .add("--surge-start", surgeStart, "surge start, simulated seconds from the run start")
      .add("--ramp-sec", rampSec, "ramp from the base to the peak rate, seconds")
      .add("--hold-sec", holdSec, "time at the peak rate, seconds")
      .add("--decay-sec", decaySec, "decay back to the base rate, seconds")
      .add("--max-sessions", maxSessions, "admission cap on active sessions")
      .add("--bucket-sec", bucketSec, "time-series bucket width, seconds");
  opts.parse(parser, argc, argv, bench::kCsv | bench::kNoMetrics);

  std::printf("== Extension: open-loop flash crowd (auction, bidding mix, %s) ==\n",
              core::configurationName(config));
  std::printf("(base %.1f sessions/s, surge at t=%.0fs ramp %.0fs hold %.0fs decay "
              "%.0fs, cap %d sessions, measure %.0fs, ramp-up %.0fs, seed %llu)\n\n",
              baseRate, surgeStart, rampSec, holdSec, decaySec, maxSessions,
              opts.measureSec, opts.rampUpSec,
              static_cast<unsigned long long>(opts.seed));
  std::fflush(stdout);

  std::vector<core::ExperimentParams> points;
  for (double surge : surges) {
    auto base = opts.baseParams(spec);
    base.scenario.mode = scenario::ArrivalMode::OpenLoop;
    base.scenario.arrivals = scenario::RateSchedule::flashCrowd(
        baseRate, surge, surgeStart, rampSec, holdSec, decaySec);
    base.scenario.maxInFlightSessions = maxSessions;
    base.scenario.seriesInterval = sim::fromSeconds(bucketSec);
    points.push_back(core::pointParams(base, config, /*clients=*/0));
  }
  const auto results = core::runMany(points, opts.sweepOptions());

  stats::TextTable table({"surge ×", "peak rate/s", "ipm", "arrivals", "shed",
                          "shed %", "errors", "mean RT ms", "p90 RT ms"});
  std::string csv =
      "surge,peak_rate,ipm,arrivals,shed,shed_pct,errors,mean_rt_ms,p90_rt_ms\n";
  for (std::size_t i = 0; i < surges.size(); ++i) {
    const auto& r = results[i];
    const double shedPct =
        r.openLoopArrivals == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.shedSessions) /
                  static_cast<double>(r.openLoopArrivals);
    table.addRow({stats::fmt(surges[i], 1), stats::fmt(baseRate * surges[i], 1),
                  stats::fmt(r.throughputIpm, 0), std::to_string(r.openLoopArrivals),
                  std::to_string(r.shedSessions), stats::fmt(shedPct, 1),
                  std::to_string(r.webErrors),
                  stats::fmt(r.meanResponseSeconds * 1e3, 0),
                  stats::fmt(r.p90ResponseSeconds * 1e3, 0)});
    csv += stats::fmt(surges[i], 1) + "," + stats::fmt(baseRate * surges[i], 1) + "," +
           stats::fmt(r.throughputIpm, 0) + "," + std::to_string(r.openLoopArrivals) +
           "," + std::to_string(r.shedSessions) + "," + stats::fmt(shedPct, 1) + "," +
           std::to_string(r.webErrors) + "," +
           stats::fmt(r.meanResponseSeconds * 1e3, 0) + "," +
           stats::fmt(r.p90ResponseSeconds * 1e3, 0) + "\n";
  }
  std::printf("%s\n", table.str().c_str());
  if (opts.csv) std::printf("%s\n", csv.c_str());

  for (std::size_t i = 0; i < surges.size(); ++i) {
    if (results[i].series) {
      std::string label = "surge ×" + stats::fmt(surges[i], 1);
      bench::printTimeSeries(label.c_str(), *results[i].series);
    }
  }

  // Surge-window verdicts: past the knee the verdict's note attributes the
  // completed-throughput plateau to admission shedding, not just the
  // saturated resource.
  std::printf("\nsurge-window verdicts:\n");
  for (std::size_t i = 0; i < surges.size(); ++i) {
    if (!results[i].metrics) continue;
    const obs::Verdict v = obs::analyze(
        *results[i].metrics, nullptr, sim::fromSeconds(surgeStart),
        sim::fromSeconds(surgeStart + rampSec + holdSec + decaySec));
    std::printf("  verdict[surge ×%s]: %s\n", stats::fmt(surges[i], 1).c_str(),
                v.oneLine().c_str());
  }
  std::fflush(stdout);

  std::printf("\nexpected: at low surge, throughput tracks the offered rate and "
              "nothing sheds; past the knee the admission cap sheds the excess "
              "while completed throughput plateaus at capacity (response times "
              "bounded by the cap) — degradation by refusal, not collapse.\n");
  std::fflush(stdout);
  return 0;
}
