#include "layer_trace.hpp"

#include <chrono>
#include <span>
#include <string_view>

#include "apps/auction/schema.hpp"
#include "apps/bbs/schema.hpp"
#include "apps/bookstore/schema.hpp"
#include "core/dataset_cache.hpp"
#include "core/experiment.hpp"
#include "db/executor.hpp"
#include "db/parser.hpp"
#include "db/plan.hpp"
#include "obs/analyzer.hpp"
#include "sim/simulation.hpp"

// Symbol names of the wrapped definitions. The linker sends every call to
// <symbol> into __wrap_<symbol>, and __real_<symbol> reaches the original.
#define PERFBENCH_REAL(name) __asm__("__real_" PERFBENCH_SYM_##name)
#define PERFBENCH_WRAP(name) __asm__("__wrap_" PERFBENCH_SYM_##name)

namespace perfbench {

namespace {

struct State {
  bool tracing = false;
  Counts counts;
  std::vector<Span> spans;
  std::int32_t open = -1;  // innermost open span
  std::uint32_t point = 0;
  std::uint32_t lastPoint = 0;
};

State state;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counts one call and, while tracing, records its span from construction
/// to destruction (exceptions included).
class SpanScope {
 public:
  explicit SpanScope(Layer layer, StmtClass stmt = StmtClass::None) {
    ++state.counts.calls[static_cast<int>(layer)];
    if (!state.tracing) return;
    index_ = static_cast<std::int32_t>(state.spans.size());
    Span& s = state.spans.emplace_back();
    s.parent = state.open;
    s.point = state.point;
    s.layer = layer;
    s.stmt = stmt;
    state.open = index_;
    s.startNs = nowNs();
  }
  ~SpanScope() {
    if (index_ < 0) return;
    Span& s = state.spans[static_cast<std::size_t>(index_)];
    s.endNs = nowNs();
    state.open = s.parent;
    if (s.parent >= 0) state.spans[static_cast<std::size_t>(s.parent)].childNs += s.durNs();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int32_t index_ = -1;
};

StmtClass classify(mwsim::db::Statement::Kind kind) {
  using Kind = mwsim::db::Statement::Kind;
  switch (kind) {
    case Kind::Select: return StmtClass::Select;
    case Kind::Insert:
    case Kind::Update:
    case Kind::Delete: return StmtClass::Write;
    case Kind::LockTables:
    case Kind::UnlockTables: break;
  }
  return StmtClass::None;
}

void tally(StmtClass stmt, const mwsim::db::ExecStats& st) {
  Counts& c = state.counts;
  switch (stmt) {
    case StmtClass::Select: ++c.selects; break;
    case StmtClass::Write: ++c.writes; break;
    case StmtClass::None: break;
  }
  c.rowsExamined += st.rowsExamined;
  c.bytesExamined += st.bytesExamined;
  c.rowsReturned += st.rowsReturned;
  c.rowsModified += st.rowsModified;
  c.rowsSorted += st.rowsSorted;
  c.aggregatedGroups += st.aggregatedGroups;
  c.indexedStatements += st.usedIndex ? 1 : 0;
  c.resultBytes += st.resultBytes;
}

}  // namespace

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::Run: return "core.runExperiment";
    case Layer::DatasetGet: return "core.DatasetCache::get";
    case Layer::Populate: return "apps.populate";
    case Layer::Parse: return "db.parseSql";
    case Layer::Plan: return "db.buildPlan";
    case Layer::Exec: return "db.Executor::execute";
    case Layer::RunUntil: return "sim.Simulation::runUntil";
    case Layer::Analyze: return "obs.analyze";
  }
  return "?";
}

Counts takeCounts() {
  Counts out = state.counts;
  state.counts = Counts{};
  return out;
}

void setTracing(bool on) { state.tracing = on; }

const std::vector<Span>& spans() { return state.spans; }

// The wrappers. Member functions are declared as free functions taking
// `this` first, which is how the Itanium C++ ABI passes it.

namespace apps = mwsim::apps;
namespace core = mwsim::core;
namespace db = mwsim::db;
namespace obs = mwsim::obs;
namespace sim = mwsim::sim;
namespace trace = mwsim::trace;

core::ExperimentResult realRunExperiment(const core::ExperimentParams& params)
    PERFBENCH_REAL(RUN_EXPERIMENT);
core::ExperimentResult wrapRunExperiment(const core::ExperimentParams& params)
    PERFBENCH_WRAP(RUN_EXPERIMENT);
core::ExperimentResult wrapRunExperiment(const core::ExperimentParams& params) {
  state.point = ++state.lastPoint;
  struct PointEnd {
    ~PointEnd() { state.point = 0; }
  } pointEnd;
  SpanScope span(Layer::Run);
  return realRunExperiment(params);
}

db::Database realDatasetGet(core::DatasetCache* self, core::App app, double scale,
                            std::uint64_t dataSeed) PERFBENCH_REAL(DATASET_GET);
db::Database wrapDatasetGet(core::DatasetCache* self, core::App app, double scale,
                            std::uint64_t dataSeed) PERFBENCH_WRAP(DATASET_GET);
db::Database wrapDatasetGet(core::DatasetCache* self, core::App app, double scale,
                            std::uint64_t dataSeed) {
  SpanScope span(Layer::DatasetGet);
  return realDatasetGet(self, app, scale, dataSeed);
}

#define PERFBENCH_POPULATE(app, NAME)                                                   \
  void realPopulate_##app(db::Database&, const apps::app::Scale&, sim::Rng&)            \
      PERFBENCH_REAL(POPULATE_##NAME);                                                  \
  void wrapPopulate_##app(db::Database& database, const apps::app::Scale& scale,        \
                          sim::Rng& rng) PERFBENCH_WRAP(POPULATE_##NAME);               \
  void wrapPopulate_##app(db::Database& database, const apps::app::Scale& scale,        \
                          sim::Rng& rng) {                                              \
    SpanScope span(Layer::Populate);                                                    \
    realPopulate_##app(database, scale, rng);                                           \
  }
PERFBENCH_POPULATE(bookstore, BOOKSTORE)
PERFBENCH_POPULATE(auction, AUCTION)
PERFBENCH_POPULATE(bbs, BBS)
#undef PERFBENCH_POPULATE

std::shared_ptr<const db::Statement> realParseSql(std::string_view sql)
    PERFBENCH_REAL(PARSE_SQL);
std::shared_ptr<const db::Statement> wrapParseSql(std::string_view sql)
    PERFBENCH_WRAP(PARSE_SQL);
std::shared_ptr<const db::Statement> wrapParseSql(std::string_view sql) {
  SpanScope span(Layer::Parse);
  return realParseSql(sql);
}

std::shared_ptr<const db::Plan> realBuildPlan(const db::Statement& stmt,
                                              const db::Database& database)
    PERFBENCH_REAL(BUILD_PLAN);
std::shared_ptr<const db::Plan> wrapBuildPlan(const db::Statement& stmt,
                                              const db::Database& database)
    PERFBENCH_WRAP(BUILD_PLAN);
std::shared_ptr<const db::Plan> wrapBuildPlan(const db::Statement& stmt,
                                              const db::Database& database) {
  SpanScope span(Layer::Plan);
  return realBuildPlan(stmt, database);
}

db::ExecResult realExecute(db::Executor* self, const db::PlannedStatement& stmt,
                           std::span<const db::Value> params) PERFBENCH_REAL(EXECUTE);
db::ExecResult wrapExecute(db::Executor* self, const db::PlannedStatement& stmt,
                           std::span<const db::Value> params) PERFBENCH_WRAP(EXECUTE);
db::ExecResult wrapExecute(db::Executor* self, const db::PlannedStatement& stmt,
                           std::span<const db::Value> params) {
  const StmtClass cls = classify(stmt.stmt().kind);
  SpanScope span(Layer::Exec, cls);
  db::ExecResult result = realExecute(self, stmt, params);
  tally(cls, result.stats);
  return result;
}

void realRunUntil(sim::Simulation* self, sim::SimTime t) PERFBENCH_REAL(RUN_UNTIL);
void wrapRunUntil(sim::Simulation* self, sim::SimTime t) PERFBENCH_WRAP(RUN_UNTIL);
void wrapRunUntil(sim::Simulation* self, sim::SimTime t) {
  const std::uint64_t before = self->eventsProcessed();
  {
    SpanScope span(Layer::RunUntil);
    realRunUntil(self, t);
  }
  state.counts.events += self->eventsProcessed() - before;
}

obs::Verdict realAnalyze(const obs::MetricsReport& report, const trace::Report* traces,
                         sim::SimTime from, sim::SimTime to, obs::AnalyzerOptions options)
    PERFBENCH_REAL(ANALYZE);
obs::Verdict wrapAnalyze(const obs::MetricsReport& report, const trace::Report* traces,
                         sim::SimTime from, sim::SimTime to, obs::AnalyzerOptions options)
    PERFBENCH_WRAP(ANALYZE);
obs::Verdict wrapAnalyze(const obs::MetricsReport& report, const trace::Report* traces,
                         sim::SimTime from, sim::SimTime to, obs::AnalyzerOptions options) {
  SpanScope span(Layer::Analyze);
  return realAnalyze(report, traces, from, to, std::move(options));
}

}  // namespace perfbench
