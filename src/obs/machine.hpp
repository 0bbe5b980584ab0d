#pragma once

#include <cassert>
#include <string>
#include <utility>

#include "net/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "stats/usage.hpp"

namespace mwsim::obs {

/// Registers the saturation instruments for one machine: CPU utilization,
/// run-queue depth, and the Little's-law triple; NIC utilization, queue,
/// throughput, and effective bandwidth (tracks LinkDegrade events); and the
/// raw NIC byte and packet counts that machineUsage() differences.
inline void addMachineProbes(MetricsRegistry& registry, const net::Machine& m) {
  const std::string& n = m.name();
  registry.addUtilizationProbe(n + "/cpu", ResourceKind::Cpu,
                               static_cast<double>(m.cpu().cores()),
                               [&m] { return m.cpu().busyCoreSeconds(); });
  registry.addGaugeProbe(n + "/cpu.runq",
                         [&m] { return static_cast<double>(m.cpu().activeJobs()); });
  registry.addLittleProbe(n + "/cpu", [&m] { return m.cpu().jobIntegralSeconds(); },
                          [&m] { return m.cpu().jobsCompleted(); },
                          [&m] { return m.cpu().sojournSeconds(); });
  registry.addUtilizationProbe(n + "/nic", ResourceKind::Nic, 1.0,
                               [&m] { return m.nic().busySeconds(); });
  registry.addGaugeProbe(n + "/nic.queue",
                         [&m] { return static_cast<double>(m.nic().queueLength()); });
  registry.addUtilizationProbe(
      n + "/nic.mbps", ResourceKind::Rate, 1.0,
      [&m] { return static_cast<double>(m.nic().bytesTransferred()) * 8.0 / 1e6; });
  registry.addGaugeProbe(n + "/nic.effective_mbps",
                         [&m] { return m.nic().effectiveBitsPerSecond() / 1e6; });
  registry.addCounterProbe(n + "/nic.bytes", [&m] { return m.nic().bytesTransferred(); });
  registry.addCounterProbe(n + "/nic.packets",
                           [&m] { return m.nic().packetsTransferred(); });
}

/// One machine's usage over the report's measurement window — the
/// simulated equivalent of the paper's sysstat figures — differenced from
/// the snapshots at the window's two edges (MetricsPump::runTo samples
/// both, tick or not). `m` must have been registered with
/// addMachineProbes; `tier` groups replicas for stats::aggregateByTier.
inline stats::MachineUsage machineUsage(const MetricsReport& report, const net::Machine& m,
                                        std::string tier) {
  const std::size_t a = report.snapshotAtOrBefore(report.windowStart);
  const std::size_t b = report.snapshotAtOrBefore(report.windowEnd);
  assert(report.times[a] == report.windowStart && report.times[b] == report.windowEnd);
  const std::string& n = m.name();
  const auto& cpu = report.findUtilization(n + "/cpu")->cumulative;
  const auto& bytes = report.findCounter(n + "/nic.bytes")->cumulative;
  const auto& packets = report.findCounter(n + "/nic.packets")->cumulative;
  const double seconds = sim::toSeconds(report.windowEnd - report.windowStart);
  stats::MachineUsage u;
  u.name = n;
  u.tier = std::move(tier);
  u.cores = m.cpu().cores();
  u.cpuUtilization = (cpu[b] - cpu[a]) / (seconds * m.cpu().cores());
  const double bits = static_cast<double>(bytes[b] - bytes[a]) * 8.0;
  u.nicMbps = bits / seconds / 1e6;
  u.nicUtilization = bits / seconds / m.nic().bandwidthBitsPerSecond();
  u.nicPackets = packets[b] - packets[a];
  u.memoryBytes = m.memoryBytes();
  return u;
}

}  // namespace mwsim::obs
