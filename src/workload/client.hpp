#pragma once

#include <optional>
#include <string>

#include "middleware/web_server.hpp"
#include "stats/histogram.hpp"
#include "stats/timeseries.hpp"
#include "trace/collector.hpp"
#include "trace/scope.hpp"
#include "workload/mix.hpp"

namespace mwsim::wl {

/// Workload counters, recorded only while `measuring` is on (the paper's
/// measurement phase between ramp-up and ramp-down). The optional time
/// series, by contrast, covers the whole run: a scenario's structure (the
/// surge, the crash, the recovery) rarely aligns with the measurement
/// window.
struct WorkloadStats {
  bool measuring = false;
  std::uint64_t completedInteractions = 0;
  std::uint64_t completedReadWrite = 0;
  std::uint64_t totalQueries = 0;
  stats::Histogram responseSeconds;
  /// When non-null, every completion lands in a fixed-interval bucket too.
  stats::TimeSeries* series = nullptr;

  void record(bool readWrite, double responseSecs, const mw::InteractionResult& result,
              sim::SimTime now) {
    if (series != nullptr) {
      series->recordCompletion(now, responseSecs, result.page.error);
    }
    if (!measuring) return;
    ++completedInteractions;
    if (readWrite) ++completedReadWrite;
    totalQueries += static_cast<std::uint64_t>(result.page.queryCount);
    responseSeconds.record(responseSecs);
  }
};

/// Closed-loop client-browser emulator (paper §4.1): each of `clientCount`
/// emulated browsers runs back-to-back sessions; within a session it walks
/// the mix's Markov chain with exponentially distributed think times
/// (mean 7 s) and session lengths (mean 15 min), per TPC-W clauses
/// 5.3.1.1 / 6.2.1.2.
class ClientFarm {
 public:
  /// `collector`, when non-null and enabled, receives a span tree for every
  /// interaction that starts and completes inside the measurement window.
  ClientFarm(sim::Simulation& simulation, mw::HttpService& webServer, const MixMatrix& mix,
             int clientCount, WorkloadStats& stats, std::uint64_t seed,
             sim::Duration thinkMean = 7 * sim::kSecond,
             sim::Duration sessionMean = 15 * sim::kMinute,
             trace::Collector* collector = nullptr)
      : sim_(simulation), web_(webServer), mix_(mix), clients_(clientCount), stats_(stats),
        seed_(seed), thinkMean_(thinkMean), sessionMean_(sessionMean),
        collector_(collector) {}

  /// Spawns every client process. Clients stagger their starts over one
  /// think time so arrivals do not all align at t=0.
  void start() {
    for (int c = 0; c < clients_; ++c) {
      sim_.spawn(clientLoop(c));
    }
  }

 private:
  sim::Task<> clientLoop(int clientId) {
    sim::Rng rng(sim::deriveSeed(seed_, 0xC11E27ULL + static_cast<std::uint64_t>(clientId)));
    co_await sim_.delay(sim::fromSeconds(
        rng.uniformReal(0.0, sim::toSeconds(thinkMean_))));
    for (;;) {  // back-to-back sessions
      mw::ClientSession session;
      std::size_t state = mix_.initialState();
      const sim::SimTime sessionEnd =
          sim_.now() + sim::fromSeconds(rng.exponential(sim::toSeconds(sessionMean_)));
      while (sim_.now() < sessionEnd) {
        mw::Request request{mix_.stateName(state), &session};
        const sim::SimTime start = sim_.now();
        mw::InteractionResult result{};
        std::optional<trace::Trace> traced;
        if (collector_ != nullptr && collector_->enabled() && collector_->measuring()) {
          traced.emplace(request.interaction, clientId);
        }
        {
          // Tracing must not perturb the simulation: there is one path,
          // and with no trace the root scope is a no-op, so a traced
          // interaction awaits exactly what an untraced one does.
          trace::SpanScope rootSpan(sim_, traced ? &*traced : nullptr, "interaction");
          result = co_await web_.serve(request);
        }
        // add() drops the trace if the measurement window closed while the
        // interaction was in flight, keeping aggregates in-window.
        if (traced) collector_->add(std::move(*traced));
        stats_.record(mix_.isReadWrite(state), sim::toSeconds(sim_.now() - start), result,
                      sim_.now());
        co_await sim_.delay(
            sim::fromSeconds(rng.exponential(sim::toSeconds(thinkMean_))));
        state = mix_.next(state, rng);
      }
    }
  }

  sim::Simulation& sim_;
  mw::HttpService& web_;
  const MixMatrix& mix_;
  int clients_;
  WorkloadStats& stats_;
  std::uint64_t seed_;
  sim::Duration thinkMean_;
  sim::Duration sessionMean_;
  trace::Collector* collector_ = nullptr;
};

}  // namespace mwsim::wl
