#pragma once

#include <cstdint>
#include <optional>

#include "obs/metrics.hpp"
#include "scenario/arrival.hpp"
#include "scenario/spec.hpp"
#include "workload/client.hpp"

namespace mwsim::wl {

/// Open-loop session generator: sessions arrive by a (possibly
/// non-homogeneous) Poisson process following the scenario's RateSchedule,
/// independent of how the system keeps up — the load shape a flash crowd
/// actually presents, as opposed to the closed loop's self-throttling
/// population.
///
/// Each arriving session walks the same Markov mix as a closed-loop client:
/// it starts at the mix's initial state, continues after each successful
/// interaction with probability `continueProb` (think time in between), and
/// abandons on an error page. Admission control caps concurrently active
/// sessions at `maxInFlightSessions`; arrivals beyond the cap are shed and
/// counted (overload degrades by refusing work, not by accumulating
/// unbounded session state).
class OpenLoopFarm {
 public:
  OpenLoopFarm(sim::Simulation& simulation, mw::HttpService& webServer,
               const MixMatrix& mix, const scenario::Spec& spec, WorkloadStats& stats,
               std::uint64_t seed, trace::Collector* collector = nullptr)
      : sim_(simulation), web_(webServer), mix_(mix), spec_(spec),
        process_(spec.arrivals), stats_(stats), seed_(seed), collector_(collector) {}

  /// Spawns the arrival driver process.
  void start() { sim_.spawn(arrivalLoop()); }

  /// Sessions offered by the arrival process (admitted + shed).
  std::uint64_t arrivals() const noexcept { return arrivals_; }
  /// Arrivals refused by admission control.
  std::uint64_t shedSessions() const noexcept { return shed_; }
  /// Sessions currently active.
  int activeSessions() const noexcept { return active_; }

  /// Registers counter probes over the arrivals and the shed sessions.
  void addProbes(obs::MetricsRegistry& registry) const {
    registry.addCounterProbe("wl.arrivals", [this] { return arrivals_; });
    registry.addCounterProbe("wl.shed", [this] { return shed_; });
  }

 private:
  sim::Task<> arrivalLoop() {
    sim::Rng rng(sim::deriveSeed(seed_, 0xA221A1ULL));
    double tSec = sim::toSeconds(sim_.now());
    for (;;) {
      const double nextSec = process_.next(tSec, rng);
      if (nextSec < 0.0) co_return;  // schedule exhausted
      tSec = nextSec;
      const sim::Duration wait = sim::fromSeconds(nextSec) - sim_.now();
      if (wait > 0) co_await sim_.delay(wait);
      ++arrivals_;
      if (active_ >= spec_.maxInFlightSessions) {
        ++shed_;
        if (stats_.series != nullptr) stats_.series->recordShed(sim_.now());
        continue;
      }
      ++active_;
      sim_.spawn(sessionLoop(nextSessionId_++));
    }
  }

  sim::Task<> sessionLoop(std::uint64_t sessionId) {
    sim::Rng rng(sim::deriveSeed(seed_, 0x0BE25ULL + sessionId));
    mw::ClientSession session;
    std::size_t state = mix_.initialState();
    for (;;) {
      mw::Request request{mix_.stateName(state), &session};
      const sim::SimTime start = sim_.now();
      mw::InteractionResult result{};
      // One path, as in ClientFarm: tracing only observes.
      std::optional<trace::Trace> traced;
      if (collector_ != nullptr && collector_->enabled() && collector_->measuring()) {
        traced.emplace(request.interaction, static_cast<int>(sessionId));
      }
      {
        trace::SpanScope rootSpan(sim_, traced ? &*traced : nullptr, "interaction");
        result = co_await web_.serve(request);
      }
      if (traced) collector_->add(std::move(*traced));
      stats_.record(mix_.isReadWrite(state), sim::toSeconds(sim_.now() - start), result,
                    sim_.now());
      // An error page ends the session — the user gives up. This is what
      // lets overload shed load open-loop: failed sessions leave instead of
      // hammering the site from inside the admission cap.
      if (result.page.error) break;
      if (!rng.bernoulli(spec_.continueProb)) break;
      co_await sim_.delay(sim::fromSeconds(
          rng.exponential(sim::toSeconds(spec_.openThinkMean))));
      state = mix_.next(state, rng);
    }
    --active_;
  }

  sim::Simulation& sim_;
  mw::HttpService& web_;
  const MixMatrix& mix_;
  const scenario::Spec& spec_;
  scenario::ArrivalProcess process_;
  WorkloadStats& stats_;
  std::uint64_t seed_;
  trace::Collector* collector_ = nullptr;
  std::uint64_t arrivals_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t nextSessionId_ = 0;
  int active_ = 0;
};

}  // namespace mwsim::wl
