#pragma once

#include <cassert>

#include "middleware/application.hpp"
#include "middleware/cost_model.hpp"
#include "middleware/failure.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/resource.hpp"
#include "trace/scope.hpp"

namespace mwsim::mw {

/// Apache-style web server: a bounded process pool, static image serving,
/// and a pluggable dynamic-content generator.
///
/// serve() models one complete client interaction over a persistent HTTP
/// connection: request upload, dynamic generation, embedded-image fetches,
/// and response download. The process slot is held for the whole
/// interaction (keep-alive semantics).
class WebServer final : public HttpService {
 public:
  WebServer(sim::Simulation& simulation, net::Machine& machine, net::Network& network,
            net::Machine& clientFarm, const CostModel& cost)
      : sim_(simulation), machine_(machine), net_(network), clients_(clientFarm), cost_(cost),
        // Waiting for an httpd slot is queueing for compute capacity, not
        // lock contention, so it traces as cpu-queue.
        processPool_(simulation, cost.webProcessLimit, machine.name() + ".httpd",
                     trace::Category::CpuQueue) {}

  void setGenerator(DynamicContentGenerator* generator) { generator_ = generator; }

  net::Machine& machine() noexcept { return machine_; }
  const sim::Resource& processPool() const noexcept { return processPool_; }

  /// Dynamic-content requests that failed and were answered with an error
  /// page.
  std::uint64_t errorCount() const noexcept { return errors_; }

  /// Registers the httpd process pool's occupancy and queue depth, named
  /// after this server's machine.
  void addProbes(obs::MetricsRegistry& registry) const {
    const std::string& n = machine_.name();
    const sim::Resource& pool = processPool_;
    registry.addUtilizationProbe(n + "/httpd-pool", obs::ResourceKind::Pool,
                                 static_cast<double>(pool.capacity()),
                                 [&pool] { return pool.busyUnitSeconds(); });
    registry.addGaugeProbe(n + "/httpd-pool.queue",
                           [&pool] { return static_cast<double>(pool.queueLength()); });
  }

  /// Serves one interaction. `request` must stay alive until the returned
  /// task completes (callers co_await immediately; do not pass a temporary
  /// — GCC 12 miscompiles by-value coroutine parameters initialized from
  /// braced temporaries).
  sim::Task<InteractionResult> serve(const Request& request) override {
    assert(generator_ != nullptr);
    // A request dispatched to an already-dead replica (possible only in a
    // brief race before the balancer's health view updates) fails at once.
    if (!machine_.up()) throw ReplicaDown(machine_.name());
    const std::uint64_t epoch = machine_.epoch();

    co_await net_.send(clients_, machine_, cost_.httpRequestBytes);
    checkpoint(epoch, request);

    trace::SpanScope webSpan(sim_, "web");
    sim::ResourceHold process = co_await processPool_.acquire();
    checkpoint(epoch, request);
    co_await machine_.compute(sim::fromMicros(
        cost_.webRequestUs + cost_.webPerActiveProcessUs * processPool_.inUse()));
    checkpoint(epoch, request);

    // Generators can be shared across web replicas; stamping the request
    // with this replica's machine routes the generator's web-side work here.
    Request routed = request;
    routed.web = &machine_;

    Page page;
    try {
      page = co_await generator_->generate(routed);
    } catch (const ReplicaDown&) {
      throw;  // failover concerns the balancer, not the error-page path
    } catch (const RequestTimeout&) {
      throw;
    } catch (const std::exception&) {
      // A failed script/servlet produces a 500 error page; the server (and
      // the client's session) keeps going — one bad interaction must not
      // take the site down.
      ++errors_;
      page = Page{};
      page.htmlBytes = 600;  // terse error body
      page.error = true;
    }
    checkpoint(epoch, request);

    if (page.secure) {
      co_await machine_.compute(sim::fromMicros(cost_.webSslUs));
    }

    // Embedded images: served from the buffer cache over the same
    // connection (one request's worth of CPU per image).
    if (page.imageCount > 0) {
      co_await machine_.compute(
          sim::fromMicros(cost_.webStaticImageUs * page.imageCount));
    }

    const std::size_t bodyBytes = page.htmlBytes + page.imageBytes;
    co_await machine_.compute(
        sim::fromMicros(cost_.webPerResponseByteUs * static_cast<double>(bodyBytes)));
    checkpoint(epoch, request);

    const std::size_t wireBytes =
        bodyBytes + cost_.httpResponseHeaderBytes * (1 + static_cast<std::size_t>(page.imageCount));
    co_await net_.send(machine_, clients_, wireBytes);
    checkpoint(epoch, request);

    co_return InteractionResult{page, wireBytes};
  }

 private:
  /// Scenario checkpoint, reached after every co_await in serve(): a
  /// request notices its replica crashed (machine epoch changed under it —
  /// the down machine's resources keep running in virtual time, so the
  /// request still reaches its next resume point) or its deadline passed,
  /// and unwinds via the failover exceptions the load balancer handles.
  /// Both checks are no-ops in scenario-off runs (epoch never changes,
  /// deadline is negative), which keeps them byte-identical to before.
  void checkpoint(std::uint64_t epoch, const Request& request) const {
    if (machine_.epoch() != epoch) throw ReplicaDown(machine_.name());
    if (request.deadline >= 0 && sim_.now() >= request.deadline) {
      throw RequestTimeout(request.interaction);
    }
  }

  sim::Simulation& sim_;
  net::Machine& machine_;
  net::Network& net_;
  net::Machine& clients_;
  const CostModel& cost_;
  sim::Resource processPool_;
  DynamicContentGenerator* generator_ = nullptr;
  std::uint64_t errors_ = 0;
};

}  // namespace mwsim::mw
