// Schedule-exhaustive model checking of the lock subsystem.
//
// Enumerates every causally distinct schedule of a set of miniature lock
// workloads (DFS over the kernel's tie-break and waiter-grant choice points,
// sleep-set reduced) and checks deadlock-freedom, writer priority and
// bounded writer wait on each. Exits nonzero if a green scenario violates a
// property, if exploration fails to complete, or — with --expect-deadlock —
// if the deadlock known to lurk in the reversed lock-order scenario is NOT
// found.
//
// Modes:
//   --mode dfs      exhaustive exploration (default)
//   --mode default  one canonical schedule per scenario (bit-identical to a
//                   plain simulation run — the production tie-break order)
//   --mode random   --runs N randomized schedules per scenario

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"

namespace mc = mwsim::mc;
namespace cli = mwsim::cli;

namespace {

struct Options {
  std::string mode = "dfs";
  std::string scenario;
  bool noReduction = false;
  bool list = false;
  bool expectDeadlock = false;
  std::uint64_t maxSchedules = 1u << 20;
  std::uint64_t runs = 256;
  std::uint64_t seed = 1;
};

struct Entry {
  std::unique_ptr<mc::Scenario> scenario;
  bool green;  // properties must hold on every schedule
};

/// The --scenario one; without it, the green ones, plus the red ones under
/// --expect-deadlock.
bool picked(const Entry& e, const Options& opt) {
  if (!opt.scenario.empty()) return opt.scenario == e.scenario->name();
  return e.green || opt.expectDeadlock;
}

void printStats(const mc::ExploreStats& st) {
  std::printf(
      "    schedules=%" PRIu64 " pruned=%" PRIu64 " choice-points=%" PRIu64
      " max-alternatives=%zu classes=%zu max-writer-wait=%" PRId64
      "ns complete=%s violations=%" PRIu64 "\n",
      st.schedules, st.prunedBranches, st.choicePoints, st.maxAlternatives,
      st.signatures.size(), st.maxWriterWait, st.complete ? "yes" : "no",
      st.violationCount);
  for (const mc::RecordedViolation& v : st.violations) {
    std::printf("    VIOLATION [%s] schedule #%" PRIu64 ": %s\n",
                v.property.c_str(), v.schedule, v.detail.c_str());
    std::printf("      trace:");
    for (const mc::ChoiceRecord& c : v.trace) {
      std::printf(" %zu/%zu", c.chosen, c.alternatives);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The green scenarios, then the two red ones with known counterexamples.
  std::vector<Entry> all;
  for (auto& s : mc::greenScenarios()) all.push_back({std::move(s), true});
  all.push_back({mc::makeLockTables(/*reversedOrder=*/true), false});
  all.push_back({mc::makeMyisamRw(/*readerPreferenceMutation=*/true), false});
  std::vector<std::string> names;
  for (const Entry& e : all) names.emplace_back(e.scenario->name());
  Options opt;
  cli::Parser("Schedule-exhaustive model checking of the lock subsystem")
      .choice("--mode", opt.mode, {"dfs", "default", "random"},
              "exhaustive, the production schedule, or randomized schedules")
      .choice("--scenario", opt.scenario, names, "explore only this scenario (see --list)")
      .add("--list", opt.list, "list the scenarios and exit")
      .add("--no-reduction", opt.noReduction, "explore without sleep-set reduction")
      .add("--max-schedules", opt.maxSchedules, "schedule budget per scenario (dfs)")
      .add("--runs", opt.runs, "randomized schedules per scenario (random)")
      .add("--seed", opt.seed, "exploration seed")
      .add("--expect-deadlock", opt.expectDeadlock,
           "also explore the red scenarios and fail unless a deadlock is found (dfs)")
      .parse(argc, argv);

  if (opt.list) {
    for (const Entry& e : all) {
      std::printf("%-26s %s  # %s\n", e.scenario->name(),
                  e.green ? "[green]" : "[red]  ", e.scenario->description());
    }
    return 0;
  }

  int failures = 0;
  bool deadlockFound = false;

  for (const Entry& e : all) {
    if (!picked(e, opt)) continue;
    mc::Explorer explorer;
    mc::ExploreStats st;
    if (opt.mode == "random") {
      st = explorer.sample(*e.scenario, opt.runs, opt.seed);
      std::printf("[%s] random x%" PRIu64 " (seed %" PRIu64 ")\n",
                  e.scenario->name(), opt.runs, opt.seed);
    } else if (opt.mode == "default") {
      // One schedule under the canonical strategy: maxSchedules=1 executes
      // exactly the production (time, seq) order and stops.
      mc::ExploreOptions eo;
      eo.maxSchedules = 1;
      eo.seed = opt.seed;
      st = explorer.explore(*e.scenario, eo);
      std::printf("[%s] default schedule\n", e.scenario->name());
    } else {
      mc::ExploreOptions eo;
      eo.maxSchedules = opt.maxSchedules;
      eo.reduction = !opt.noReduction;
      eo.seed = opt.seed;
      st = explorer.explore(*e.scenario, eo);
      std::printf("[%s] dfs%s\n", e.scenario->name(),
                  opt.noReduction ? " (no reduction)" : "");
    }
    printStats(st);

    for (const mc::RecordedViolation& v : st.violations) {
      if (v.property == "deadlock-freedom") deadlockFound = true;
    }
    if (e.green && st.violationCount > 0) {
      std::fprintf(stderr, "FAIL: green scenario %s violated properties\n",
                   e.scenario->name());
      ++failures;
    }
    if (e.green && opt.mode == "dfs" && !st.complete) {
      std::fprintf(stderr, "FAIL: exploration of %s did not complete\n",
                   e.scenario->name());
      ++failures;
    }
  }

  if (opt.expectDeadlock && opt.mode == "dfs" && !deadlockFound) {
    std::fprintf(stderr,
                 "FAIL: --expect-deadlock but no deadlock schedule found\n");
    ++failures;
  }

  if (failures == 0) std::printf("mc_explore: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
