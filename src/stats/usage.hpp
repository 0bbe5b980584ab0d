#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mwsim::stats {

/// Per-machine resource usage over a measurement window — the simulated
/// equivalent of the paper's sysstat sampling (obs::machineUsage computes
/// it from the metrics pump's snapshots). Also used (via aggregateByTier)
/// for one row per *tier*, where `name` is the tier name and the figures
/// are combined over the tier's replicas.
struct MachineUsage {
  std::string name;
  std::string tier;             // tier this machine belongs to (aggregateByTier key)
  int cores = 1;
  double cpuUtilization = 0.0;  // fraction of cores busy, 0..1
  double nicMbps = 0.0;         // combined send+receive megabits/s
  double nicUtilization = 0.0;  // fraction of link bandwidth
  std::uint64_t nicPackets = 0;
  std::int64_t memoryBytes = 0;
};

/// Collapses per-instance usage to one row per tier, preserving first-seen
/// tier order. CPU utilization is the core-weighted mean (the tier's busy
/// fraction of its combined cores); NIC utilization is the plain mean over
/// instances (replicas have one link each); traffic, packets and memory sum.
inline std::vector<MachineUsage> aggregateByTier(
    const std::vector<MachineUsage>& perInstance) {
  std::vector<MachineUsage> out;
  std::vector<int> instances;
  for (const MachineUsage& u : perInstance) {
    MachineUsage* t = nullptr;
    std::size_t idx = 0;
    for (; idx < out.size(); ++idx) {
      if (out[idx].tier == u.tier) {
        t = &out[idx];
        break;
      }
    }
    if (t == nullptr) {
      out.emplace_back();
      instances.push_back(0);
      t = &out.back();
      t->name = u.tier;
      t->tier = u.tier;
      t->cores = 0;
      idx = out.size() - 1;
    }
    t->cpuUtilization = (t->cpuUtilization * t->cores + u.cpuUtilization * u.cores) /
                        (t->cores + u.cores);
    t->nicUtilization =
        (t->nicUtilization * instances[idx] + u.nicUtilization) / (instances[idx] + 1);
    t->cores += u.cores;
    t->nicMbps += u.nicMbps;
    t->nicPackets += u.nicPackets;
    t->memoryBytes += u.memoryBytes;
    ++instances[idx];
  }
  return out;
}

}  // namespace mwsim::stats
