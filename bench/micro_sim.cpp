/// Microbenchmarks for the discrete-event kernel (google-benchmark):
/// events/second and coroutine round-trip costs bound how much simulated
/// traffic the figure benches can push per wall-clock second.
#include <benchmark/benchmark.h>

#include "obs/metrics.hpp"
#include "sim/sim.hpp"
#include "trace/scope.hpp"
#include "trace/span.hpp"

namespace {

using namespace mwsim::sim;

void BM_ScheduleDispatch(benchmark::State& state) {
  Simulation sim;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    sim.schedule(kMicrosecond, [&] { ++counter; });
    sim.run();
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_ScheduleDispatch);

void BM_CoroutineDelayRoundTrip(benchmark::State& state) {
  Simulation sim;
  // One long-lived process that sleeps in a loop; each iteration = one
  // suspend + event + resume.
  struct Driver {
    static Task<> loop(Simulation& s, std::uint64_t& n) {
      for (;;) {
        co_await s.delay(kMicrosecond);
        ++n;
      }
    }
  };
  std::uint64_t iterations = 0;
  sim.spawn(Driver::loop(sim, iterations));
  SimTime t = 0;
  for (auto _ : state) {
    t += kMicrosecond;
    sim.runUntil(t);
  }
  benchmark::DoNotOptimize(iterations);
  sim.shutdown();
}
BENCHMARK(BM_CoroutineDelayRoundTrip);

void BM_CpuProcessorSharing(benchmark::State& state) {
  Simulation sim;
  CpuResource cpu(sim, 1);
  struct Driver {
    static Task<> burn(Simulation&, CpuResource& c) {
      for (;;) {
        co_await c.consume(10 * kMicrosecond);
      }
    }
  };
  for (int i = 0; i < 8; ++i) sim.spawn(Driver::burn(sim, cpu));
  SimTime t = 0;
  for (auto _ : state) {
    t += kMillisecond;
    sim.runUntil(t);
  }
  benchmark::DoNotOptimize(cpu.jobsCompleted());
  sim.shutdown();
}
BENCHMARK(BM_CpuProcessorSharing);

void BM_ResourceAcquireRelease(benchmark::State& state) {
  Simulation sim;
  Resource res(sim, 4);
  struct Driver {
    static Task<> cycle(Simulation& s, Resource& r) {
      for (;;) {
        ResourceHold hold = co_await r.acquire();
        co_await s.delay(kMicrosecond);
      }
    }
  };
  for (int i = 0; i < 16; ++i) sim.spawn(Driver::cycle(sim, res));
  SimTime t = 0;
  for (auto _ : state) {
    t += 100 * kMicrosecond;
    sim.runUntil(t);
  }
  benchmark::DoNotOptimize(res.acquisitions());
  sim.shutdown();
}
BENCHMARK(BM_ResourceAcquireRelease);

void BM_RwLockReaderChurn(benchmark::State& state) {
  Simulation sim;
  RwLock lock(sim);
  struct Driver {
    static Task<> read(Simulation& s, RwLock& l) {
      for (;;) {
        LockHold h = co_await l.lockRead();
        co_await s.delay(kMicrosecond);
      }
    }
    static Task<> write(Simulation& s, RwLock& l) {
      for (;;) {
        co_await s.delay(20 * kMicrosecond);
        LockHold h = co_await l.lockWrite();
        co_await s.delay(2 * kMicrosecond);
      }
    }
  };
  for (int i = 0; i < 8; ++i) sim.spawn(Driver::read(sim, lock));
  sim.spawn(Driver::write(sim, lock));
  SimTime t = 0;
  for (auto _ : state) {
    t += 100 * kMicrosecond;
    sim.runUntil(t);
  }
  benchmark::DoNotOptimize(lock.readAcquisitions());
  sim.shutdown();
}
BENCHMARK(BM_RwLockReaderChurn);

void BM_ManyClients(benchmark::State& state) {
  // Macro-shaped kernel benchmark: a closed-loop population the size of a
  // figure-bench point (and beyond), where most clients are in think time
  // and a bounded set is in flight through a pool + processor-sharing CPU.
  // This is the event mix the figure benches and cluster sweeps put on the
  // kernel, so events/sec here bounds how much simulated traffic one
  // wall-clock second can carry.
  const int clients = static_cast<int>(state.range(0));
  Simulation sim;
  CpuResource cpu(sim, 8);
  Resource pool(sim, 128, "pool", mwsim::trace::Category::CpuQueue);
  struct Driver {
    static Task<> client(Simulation& s, CpuResource& c, Resource& p, Rng& rng) {
      for (;;) {
        co_await s.delay(fromSeconds(rng.exponential(7.0)));  // think time
        ResourceHold hold = co_await p.acquire();
        co_await c.consume(fromMicros(rng.uniformReal(200.0, 5000.0)));
      }
    }
  };
  Rng rng(42);
  for (int i = 0; i < clients; ++i) sim.spawn(Driver::client(sim, cpu, pool, rng));
  sim.runUntil(10 * kSecond);  // spread the population across its think phase
  const std::uint64_t before = sim.eventsProcessed();
  SimTime t = sim.now();
  for (auto _ : state) {
    t += 50 * kMillisecond;
    sim.runUntil(t);
  }
  const auto events = static_cast<double>(sim.eventsProcessed() - before);
  state.counters["events/s"] = benchmark::Counter(events, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  sim.shutdown();
}
BENCHMARK(BM_ManyClients)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_TracedDelayRoundTrip(benchmark::State& state) {
  // BM_CoroutineDelayRoundTrip with a span open across every suspension:
  // measures the per-event cost of the tracing hooks when a request is
  // actually traced (span capture at suspend, category add, restore at
  // dispatch); the difference from BM_CoroutineDelayRoundTrip is that cost.
  Simulation sim;
  mwsim::trace::Trace trace("bench", 0);
  struct Driver {
    static Task<> loop(Simulation& s, mwsim::trace::Trace& tr, std::uint64_t& n) {
      mwsim::trace::SpanScope span(s, &tr, "bench");
      for (;;) {
        co_await s.delay(kMicrosecond);
        ++n;
      }
    }
  };
  std::uint64_t iterations = 0;
  sim.spawn(Driver::loop(sim, trace, iterations));
  SimTime t = 0;
  for (auto _ : state) {
    t += kMicrosecond;
    sim.runUntil(t);
  }
  benchmark::DoNotOptimize(iterations);
  sim.shutdown();
}
BENCHMARK(BM_TracedDelayRoundTrip);

void BM_MetricsCpuProcessorSharing(benchmark::State& state) {
  // BM_CpuProcessorSharing with a metrics registry attached and a probe
  // registered but not sampled, as in an experiment run between the pump's
  // samples. The kernel never calls into the registry, so this should time
  // the same as BM_CpuProcessorSharing.
  Simulation sim;
  mwsim::obs::MetricsRegistry registry;
  sim.setMetrics(&registry);
  CpuResource cpu(sim, 1);
  registry.addUtilizationProbe("cpu", mwsim::obs::ResourceKind::Cpu, 1.0,
                               [&cpu] { return cpu.busyCoreSeconds(); });
  struct Driver {
    static Task<> burn(Simulation&, CpuResource& c) {
      for (;;) {
        co_await c.consume(10 * kMicrosecond);
      }
    }
  };
  for (int i = 0; i < 8; ++i) sim.spawn(Driver::burn(sim, cpu));
  SimTime t = 0;
  for (auto _ : state) {
    t += kMillisecond;
    sim.runUntil(t);
  }
  benchmark::DoNotOptimize(cpu.jobsCompleted());
  sim.setMetrics(nullptr);
  sim.shutdown();
}
BENCHMARK(BM_MetricsCpuProcessorSharing);

}  // namespace

BENCHMARK_MAIN();
