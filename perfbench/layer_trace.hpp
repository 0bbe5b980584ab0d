#pragma once

/// Per-layer trace of the simulator, recorded from outside it.
///
/// layer_trace.cpp defines GNU ld `--wrap` replacements for the public entry
/// points of each layer (the list lives in CMakeLists.txt), so every call
/// from the unchanged mwsim libraries into those functions passes through
/// here. Each wrapped call always updates the counts below, which costs a
/// few additions; while tracing is on it also records one span.

#include <cstdint>
#include <vector>

namespace perfbench {

/// The wrapped entry points, one per layer boundary.
enum class Layer : std::uint8_t {
  Run,         // core::runExperiment
  DatasetGet,  // core::DatasetCache::get
  Populate,    // apps::{bookstore,auction,bbs}::populate
  Parse,       // db::parseSql
  Plan,        // db::buildPlan
  Exec,        // db::Executor::execute(const PlannedStatement&, span)
  RunUntil,    // sim::Simulation::runUntil
  Analyze,     // obs::analyze
};
inline constexpr int kLayerCount = 8;
const char* layerName(Layer layer);

/// Statement class of an Exec span (None for every other layer). LOCK TABLES
/// and UNLOCK TABLES never reach the executor: mw::DatabaseServer serves them.
enum class StmtClass : std::uint8_t { None, Select, Write };

struct Span {
  std::int64_t startNs = 0;  // steady_clock
  std::int64_t endNs = 0;
  std::int64_t childNs = 0;  // time covered by direct children
  std::int32_t parent = -1;  // index of the enclosing span on this thread
  std::uint32_t point = 0;   // experiment point (0 outside runExperiment)
  Layer layer = Layer::Run;
  StmtClass stmt = StmtClass::None;

  std::int64_t durNs() const { return endNs - startNs; }
  std::int64_t selfNs() const { return endNs - startNs - childNs; }
};

/// Work counted at the wrapped calls. Every pass of a sample must reproduce
/// the counts of the sample's first pass exactly.
struct Counts {
  std::uint64_t calls[kLayerCount] = {};
  std::uint64_t selects = 0;
  std::uint64_t writes = 0;  // INSERT, UPDATE, DELETE
  // Sums of db::ExecStats over every execute.
  std::uint64_t rowsExamined = 0;
  std::uint64_t bytesExamined = 0;
  std::uint64_t rowsReturned = 0;
  std::uint64_t rowsModified = 0;
  std::uint64_t rowsSorted = 0;
  std::uint64_t aggregatedGroups = 0;
  std::uint64_t indexedStatements = 0;
  std::uint64_t resultBytes = 0;
  std::uint64_t events = 0;  // kernel events dispatched inside runUntil

  std::uint64_t of(Layer layer) const { return calls[static_cast<int>(layer)]; }
  bool operator==(const Counts&) const = default;
};

/// Returns the counts gathered since the previous call and starts afresh.
Counts takeCounts();

/// Turns span recording on or off. Points run one at a time on one thread,
/// and the recorder assumes it.
void setTracing(bool on);

/// Spans recorded so far, in the order their calls began.
const std::vector<Span>& spans();

}  // namespace perfbench
