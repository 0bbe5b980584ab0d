#include <gtest/gtest.h>

#include "middleware/app_context.hpp"
#include "middleware/database_server.hpp"
#include "middleware/db_session.hpp"
#include "middleware/ejb.hpp"
#include "middleware/php_module.hpp"
#include "middleware/servlet_engine.hpp"
#include "middleware/web_server.hpp"
#include "obs/machine.hpp"
#include "obs/pump.hpp"

namespace mwsim::mw {
namespace {

using sim::kMillisecond;
using sim::kSecond;
using sim::Task;

/// Shared fixture: a tiny inventory database plus machines for every tier.
class MiddlewareTest : public ::testing::Test {
 public:  // accessed from free coroutine lambdas
  MiddlewareTest()
      : simulation_(42),
        network_(simulation_),
        clients_(simulation_, "clients", 64, /*nic=*/1e12),
        web_(simulation_, "web"),
        servletMachine_(simulation_, "servlet"),
        ejbMachine_(simulation_, "ejb"),
        dbMachine_(simulation_, "db"),
        dbServer_(simulation_, dbMachine_, database_, cost_) {
    database_.createTable(db::SchemaBuilder("stock")
                              .intCol("id").primaryKey(true)
                              .stringCol("name")
                              .intCol("qty").indexed()
                              .build());
    db::Executor loader(database_);
    for (int i = 1; i <= 50; ++i) {
      const db::Value params[] = {db::Value("widget" + std::to_string(i)),
                                  db::Value(100 + i)};
      loader.query("INSERT INTO stock (name, qty) VALUES (?, ?)", params);
    }
  }

  ~MiddlewareTest() override { simulation_.shutdown(); }

  DbSession makeSession(net::Machine& host, DriverKind driver) {
    return DbSession(simulation_, network_, host, dbServer_, driver, cost_);
  }

  CostModel cost_;
  sim::Simulation simulation_;
  net::Network network_;
  net::Machine clients_;
  net::Machine web_;
  net::Machine servletMachine_;
  net::Machine ejbMachine_;
  net::Machine dbMachine_;
  db::Database database_;
  DatabaseServer dbServer_;
  /// Size-1 wrapper for the generators (they are written against the
  /// replicated database interface; one backend takes the legacy path).
  DbCluster dbCluster_{dbServer_};
};

TEST_F(MiddlewareTest, DbSessionRoundTripTakesTime) {
  sim::SimTime done = 0;
  std::int64_t qty = 0;
  simulation_.spawn([](MiddlewareTest& t, sim::SimTime& doneAt, std::int64_t& out) -> Task<> {
    DbSession db = t.makeSession(t.web_, DriverKind::NativeMySql);
    auto r = co_await db.execute("SELECT qty FROM stock WHERE id = 7");
    out = r.resultSet.intAt(0, "qty");
    doneAt = t.simulation_.now();
  }(*this, done, qty));
  simulation_.run();
  EXPECT_EQ(qty, 107);
  // Round trip: driver CPU + 2 network hops + DB CPU; must exceed the bare
  // propagation (200us) and be well under a millisecondish budget.
  EXPECT_GT(done, sim::fromMicros(200));
  EXPECT_LT(done, sim::fromMillis(5));
}

TEST_F(MiddlewareTest, JdbcDriverCostsMoreThanNative) {
  sim::SimTime nativeDone = 0;
  sim::SimTime jdbcDone = 0;
  auto probe = [](MiddlewareTest& t, DriverKind kind, sim::SimTime& out) -> Task<> {
    DbSession db = t.makeSession(t.web_, kind);
    for (int i = 0; i < 20; ++i) {
      co_await db.execute("SELECT * FROM stock WHERE id = 3");
    }
    out = t.simulation_.now();
  };
  {
    simulation_.spawn(probe(*this, DriverKind::NativeMySql, nativeDone));
    simulation_.run();
  }
  sim::Simulation sim2(43);
  net::Network net2(sim2);
  net::Machine host2(sim2, "web2");
  net::Machine dbm2(sim2, "db2");
  DatabaseServer srv2(sim2, dbm2, database_, cost_);
  sim2.spawn([](sim::Simulation& s, net::Network& n, net::Machine& h, DatabaseServer& srv,
                const CostModel& cost, sim::SimTime& out) -> Task<> {
    DbSession db(s, n, h, srv, DriverKind::Jdbc, cost);
    for (int i = 0; i < 20; ++i) {
      co_await db.execute("SELECT * FROM stock WHERE id = 3");
    }
    out = s.now();
  }(sim2, net2, host2, srv2, cost_, jdbcDone));
  sim2.run();
  EXPECT_GT(jdbcDone, nativeDone);
}

TEST_F(MiddlewareTest, ImplicitWriteLockSerializesWriters) {
  // Two writers updating the same table must not overlap their DB service;
  // with dbPerRowModified they serialize on the write lock.
  sim::SimTime firstDone = 0;
  sim::SimTime secondDone = 0;
  auto writer = [](MiddlewareTest& t, sim::SimTime& out) -> Task<> {
    DbSession db = t.makeSession(t.web_, DriverKind::NativeMySql);
    co_await db.execute("UPDATE stock SET qty = qty + 1 WHERE id = 1");
    out = t.simulation_.now();
  };
  simulation_.spawn(writer(*this, firstDone));
  simulation_.spawn(writer(*this, secondDone));
  simulation_.run();
  EXPECT_NE(firstDone, secondDone);
  EXPECT_EQ(dbServer_.tableLock("stock").writeAcquisitions(), 2u);
}

TEST_F(MiddlewareTest, ExplicitLockTablesHeldAcrossRoundTrips) {
  // Process A locks the table and sleeps between statements; process B's
  // read must wait until A unlocks.
  std::vector<std::string> order;
  simulation_.spawn([](MiddlewareTest& t, std::vector<std::string>& log) -> Task<> {
    DbSession db = t.makeSession(t.web_, DriverKind::NativeMySql);
    sim::Rng rng(1);
    AppContext ctx{t.simulation_, t.web_, db, LockStrategy::DatabaseLocks, nullptr, rng,
                   t.cost_};
    auto cs = co_await ctx.enterCritical(lockSet().write("stock"));
    log.push_back("locked");
    co_await db.execute("UPDATE stock SET qty = 0 WHERE id = 2");
    co_await t.simulation_.delay(50 * kMillisecond);  // think inside the CS
    co_await db.execute("UPDATE stock SET qty = 5 WHERE id = 2");
    co_await ctx.leaveCritical(std::move(cs));
    log.push_back("unlocked");
  }(*this, order));
  simulation_.spawn([](MiddlewareTest& t, std::vector<std::string>& log) -> Task<> {
    co_await t.simulation_.delay(5 * kMillisecond);
    DbSession db = t.makeSession(t.servletMachine_, DriverKind::Jdbc);
    auto r = co_await db.execute("SELECT qty FROM stock WHERE id = 2");
    log.push_back("read=" + r.resultSet.at(0, "qty").toDisplayString());
  }(*this, order));
  simulation_.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "locked");
  EXPECT_EQ(order[1], "unlocked");
  EXPECT_EQ(order[2], "read=5");  // reader saw the post-section value
}

TEST_F(MiddlewareTest, AppSyncMonitorsDoNotBlockDbReaders) {
  // With AppSync, the critical section holds a JVM monitor; a concurrent
  // plain reader is NOT blocked (only short implicit locks in the DB).
  std::vector<std::string> order;
  sim::NamedMutexSet monitors(simulation_);
  simulation_.spawn([](MiddlewareTest& t, sim::NamedMutexSet& mon,
                       std::vector<std::string>& log) -> Task<> {
    DbSession db = t.makeSession(t.servletMachine_, DriverKind::Jdbc);
    sim::Rng rng(1);
    AppContext ctx{t.simulation_, t.servletMachine_, db, LockStrategy::AppSync, &mon, rng,
                   t.cost_};
    auto cs = co_await ctx.enterCritical(lockSet().write("stock"));
    log.push_back("locked");
    co_await db.execute("UPDATE stock SET qty = 0 WHERE id = 2");
    co_await t.simulation_.delay(50 * kMillisecond);
    co_await db.execute("UPDATE stock SET qty = 5 WHERE id = 2");
    co_await ctx.leaveCritical(std::move(cs));
    log.push_back("unlocked");
  }(*this, monitors, order));
  simulation_.spawn([](MiddlewareTest& t, std::vector<std::string>& log) -> Task<> {
    co_await t.simulation_.delay(5 * kMillisecond);
    DbSession db = t.makeSession(t.web_, DriverKind::NativeMySql);
    co_await db.execute("SELECT qty FROM stock WHERE id = 2");
    log.push_back("read");
  }(*this, order));
  simulation_.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "locked");
  EXPECT_EQ(order[1], "read");  // reader proceeded inside the monitor window
  EXPECT_EQ(order[2], "unlocked");
}

TEST_F(MiddlewareTest, AppSyncMonitorsExcludeEachOther) {
  std::vector<int> order;
  sim::NamedMutexSet monitors(simulation_);
  auto worker = [](MiddlewareTest& t, sim::NamedMutexSet& mon, std::vector<int>& log,
                   int id) -> Task<> {
    DbSession db = t.makeSession(t.servletMachine_, DriverKind::Jdbc);
    sim::Rng rng(1);
    AppContext ctx{t.simulation_, t.servletMachine_, db, LockStrategy::AppSync, &mon, rng,
                   t.cost_};
    auto cs = co_await ctx.enterCritical(lockSet().write("stock"));
    log.push_back(id);
    co_await t.simulation_.delay(10 * kMillisecond);
    log.push_back(id);
    co_await ctx.leaveCritical(std::move(cs));
  };
  simulation_.spawn(worker(*this, monitors, order, 1));
  simulation_.spawn(worker(*this, monitors, order, 2));
  simulation_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 2}));
}

// Business logic stub: one indexed read, small page.
class StubLogic final : public SqlBusinessLogic {
 public:
  sim::Task<Page> invoke(std::string_view interaction, AppContext& ctx,
                         ClientSession&) override {
    Page page;
    if (interaction == "static") {
      page.htmlBytes = 2000;
      co_return page;
    }
    auto r = co_await ctx.query("SELECT * FROM stock WHERE id = 5");
    page.htmlBytes = 3000 + r.stats.resultBytes;
    page.imageCount = 2;
    page.imageBytes = 8000;
    page.queryCount = 1;
    if (interaction == "secure") page.secure = true;
    co_return page;
  }
};

TEST_F(MiddlewareTest, PhpPipelineServesPage) {
  StubLogic logic;
  WebServer ws(simulation_, web_, network_, clients_, cost_);
  PhpModule php(simulation_, network_, web_, dbCluster_, logic, cost_, 7);
  ws.setGenerator(&php);

  ClientSession session;
  InteractionResult result;
  simulation_.spawn([](WebServer& w, ClientSession& s, InteractionResult& out) -> Task<> {
    Request req{"view", &s};
    out = co_await w.serve(req);
  }(ws, session, result));
  simulation_.run();
  EXPECT_GT(result.page.htmlBytes, 3000u);
  EXPECT_GT(result.totalResponseBytes, result.page.htmlBytes + result.page.imageBytes);
  // All CPU burned on web + db machines only.
  EXPECT_GT(web_.cpu().busyCoreSeconds(), 0.0);
  EXPECT_GT(dbMachine_.cpu().busyCoreSeconds(), 0.0);
  EXPECT_EQ(servletMachine_.cpu().busyCoreSeconds(), 0.0);
}

TEST_F(MiddlewareTest, SecurePageChargesSsl) {
  StubLogic logic;
  WebServer ws(simulation_, web_, network_, clients_, cost_);
  PhpModule php(simulation_, network_, web_, dbCluster_, logic, cost_, 7);
  ws.setGenerator(&php);
  ClientSession session;

  auto run = [&](const std::string& name) {
    simulation_.spawn([](WebServer& w, ClientSession& s, std::string n) -> Task<> {
      Request req{n, &s};
      (void)co_await w.serve(req);
    }(ws, session, name));
    simulation_.run();
    return web_.cpu().busyCoreSeconds();
  };
  const double plain = run("view");
  const double withSsl = run("secure") - plain;
  EXPECT_GT(withSsl, plain - 1e-9);  // the secure run burned at least SSL extra
}

TEST_F(MiddlewareTest, RemoteServletMovesCpuOffWebServer) {
  StubLogic logic;

  // Co-located servlet engine.
  WebServer ws1(simulation_, web_, network_, clients_, cost_);
  ServletEngine co(simulation_, network_, web_, web_, dbCluster_, logic, false, cost_, 7);
  ws1.setGenerator(&co);
  ClientSession s1;
  simulation_.spawn([](WebServer& w, ClientSession& s) -> Task<> {
    Request req{"view", &s};
    for (int i = 0; i < 10; ++i) (void)co_await w.serve(req);
  }(ws1, s1));
  simulation_.run();
  const double webCpuColocated = web_.cpu().busyCoreSeconds();
  EXPECT_EQ(servletMachine_.cpu().busyCoreSeconds(), 0.0);

  // Dedicated servlet machine.
  WebServer ws2(simulation_, web_, network_, clients_, cost_);
  ServletEngine remote(simulation_, network_, web_, servletMachine_, dbCluster_, logic, false,
                       cost_, 7);
  ws2.setGenerator(&remote);
  ClientSession s2;
  simulation_.spawn([](WebServer& w, ClientSession& s) -> Task<> {
    Request req{"view", &s};
    for (int i = 0; i < 10; ++i) (void)co_await w.serve(req);
  }(ws2, s2));
  simulation_.run();
  const double webCpuRemote = web_.cpu().busyCoreSeconds() - webCpuColocated;
  EXPECT_GT(servletMachine_.cpu().busyCoreSeconds(), 0.0);
  EXPECT_LT(webCpuRemote, webCpuColocated * 0.7);
  // AJP traffic crossed the LAN.
  EXPECT_GT(network_.trafficBetween(web_, servletMachine_).bytes, 0u);
}

TEST_F(MiddlewareTest, ServletCostsMoreWebCpuThanPhpWhenColocated) {
  StubLogic logic;
  WebServer ws(simulation_, web_, network_, clients_, cost_);

  PhpModule php(simulation_, network_, web_, dbCluster_, logic, cost_, 7);
  ws.setGenerator(&php);
  ClientSession s1;
  simulation_.spawn([](WebServer& w, ClientSession& s) -> Task<> {
    Request req{"view", &s};
    for (int i = 0; i < 20; ++i) (void)co_await w.serve(req);
  }(ws, s1));
  simulation_.run();
  const double phpCpu = web_.cpu().busyCoreSeconds();

  ServletEngine servlet(simulation_, network_, web_, web_, dbCluster_, logic, false, cost_, 7);
  ws.setGenerator(&servlet);
  ClientSession s2;
  simulation_.spawn([](WebServer& w, ClientSession& s) -> Task<> {
    Request req{"view", &s};
    for (int i = 0; i < 20; ++i) (void)co_await w.serve(req);
  }(ws, s2));
  simulation_.run();
  const double servletCpu = web_.cpu().busyCoreSeconds() - phpCpu;
  EXPECT_GT(servletCpu, phpCpu * 1.15);
}

// --------------------------------------------------------------------- EJB

class StubEjbLogic final : public EjbBusinessLogic {
 public:
  sim::Task<Page> invoke(std::string_view, EjbContext& ctx, ClientSession&) override {
    Page page;
    // Finder over qty (indexed) + field reads: the classic entity-bean walk.
    auto items = co_await ctx.em.finder(
        "SELECT id FROM stock WHERE qty >= ? AND qty <= ?", sqlArgs(110, 120), "stock");
    for (auto h : items) {
      (void)co_await ctx.em.get(h, "name");
      (void)co_await ctx.em.get(h, "qty");
    }
    if (!items.empty()) {
      auto qty = co_await ctx.em.get(items.front(), "qty");
      co_await ctx.em.set(items.front(), "qty", db::Value(qty.asInt() - 1));
    }
    page.htmlBytes = 4000;
    page.imageCount = 1;
    page.imageBytes = 4000;
    co_return page;
  }
};

TEST_F(MiddlewareTest, EjbPipelineIssuesNPlusOneQueries) {
  StubEjbLogic logic;
  WebServer ws(simulation_, web_, network_, clients_, cost_);
  EjbGenerator gen(simulation_, network_, web_, servletMachine_, ejbMachine_, dbCluster_, logic,
                   cost_, 7);
  ws.setGenerator(&gen);
  ClientSession session;
  InteractionResult result;
  simulation_.spawn([](WebServer& w, ClientSession& s, InteractionResult& out) -> Task<> {
    Request req{"browse", &s};
    out = co_await w.serve(req);
  }(ws, session, result));
  simulation_.run();

  // 11 matching stock rows: 1 finder + 11 activations + 1 commit UPDATE.
  EXPECT_EQ(result.page.queryCount, 13);
  EXPECT_GT(result.page.dataBytes, 0u);
  // Every tier burned CPU; the EJB machine dominates the servlet machine.
  EXPECT_GT(ejbMachine_.cpu().busyCoreSeconds(), servletMachine_.cpu().busyCoreSeconds());
  EXPECT_GT(network_.trafficBetween(ejbMachine_, dbMachine_).packets, 20u);
}

TEST_F(MiddlewareTest, EntityManagerCachesWithinTransaction) {
  sim::SimTime ignored = 0;
  (void)ignored;
  std::uint64_t statements = 0;
  simulation_.spawn([](MiddlewareTest& t, std::uint64_t& out) -> Task<> {
    DbSession db = t.makeSession(t.ejbMachine_, DriverKind::Jdbc);
    EntityManager em(t.ejbMachine_, db, t.cost_);
    auto a = co_await em.find("stock", db::Value(5));
    auto b = co_await em.find("stock", db::Value(5));
    EXPECT_TRUE(a.has_value() && b.has_value() && *a == *b);
    out = em.statementsIssued();
  }(*this, statements));
  simulation_.run();
  EXPECT_EQ(statements, 1u);  // second find hit the tx cache
}

TEST_F(MiddlewareTest, EntityManagerCommitWritesDirtyEntitiesOnce) {
  std::int64_t finalQty = 0;
  std::uint64_t statements = 0;
  simulation_.spawn([](MiddlewareTest& t, std::int64_t& qty, std::uint64_t& stmts) -> Task<> {
    DbSession db = t.makeSession(t.ejbMachine_, DriverKind::Jdbc);
    EntityManager em(t.ejbMachine_, db, t.cost_);
    auto h = co_await em.find("stock", db::Value(9));
    co_await em.set(*h, "qty", db::Value(1));
    co_await em.set(*h, "qty", db::Value(2));
    co_await em.commit();
    stmts = em.statementsIssued();
    auto r = co_await db.execute("SELECT qty FROM stock WHERE id = 9");
    qty = r.resultSet.intAt(0, "qty");
  }(*this, finalQty, statements));
  simulation_.run();
  EXPECT_EQ(finalQty, 2);
  EXPECT_EQ(statements, 2u);  // 1 activation + 1 UPDATE
}

TEST_F(MiddlewareTest, EntityCreateAssignsAutoKey) {
  std::int64_t newId = 0;
  simulation_.spawn([](MiddlewareTest& t, std::int64_t& out) -> Task<> {
    DbSession db = t.makeSession(t.ejbMachine_, DriverKind::Jdbc);
    EntityManager em(t.ejbMachine_, db, t.cost_);
    std::vector<std::string> cols;
    cols.push_back("name");
    cols.push_back("qty");
    auto h = co_await em.create("stock", std::move(cols), sqlArgs("gizmo", 1));
    out = (co_await em.get(h, "id")).asInt();
  }(*this, newId));
  simulation_.run();
  EXPECT_EQ(newId, 51);
}

TEST_F(MiddlewareTest, WebServerProcessPoolBounds) {
  // A generator that sleeps; with pool capacity clamped to 2, the third
  // request queues.
  class SlowGen final : public DynamicContentGenerator {
   public:
    explicit SlowGen(sim::Simulation& s) : sim_(s) {}
    sim::Task<Page> generate(const Request&) override {
      co_await sim_.delay(100 * kMillisecond);
      co_return Page{1000, 0, 0, 0, false, 0};
    }
    sim::Simulation& sim_;
  };
  CostModel tight = cost_;
  tight.webProcessLimit = 2;
  WebServer ws(simulation_, web_, network_, clients_, tight);
  SlowGen gen(simulation_);
  ws.setGenerator(&gen);
  ClientSession s;
  std::vector<sim::SimTime> done;
  for (int i = 0; i < 3; ++i) {
    simulation_.spawn([](WebServer& w, ClientSession& cs, std::vector<sim::SimTime>& d,
                         sim::Simulation& sm) -> Task<> {
      Request req{"x", &cs};
      (void)co_await w.serve(req);
      d.push_back(sm.now());
    }(ws, s, done, simulation_));
  }
  simulation_.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_GT(done[2], done[0] + 90 * kMillisecond);  // third waited for a slot
}

TEST_F(MiddlewareTest, UsageWindowSeesDbCpu) {
  obs::MetricsRegistry registry;
  obs::addMachineProbes(registry, dbMachine_);
  obs::addMachineProbes(registry, web_);
  obs::MetricsPump pump(simulation_, registry);
  const sim::SimTime start = simulation_.now();
  simulation_.spawn([](MiddlewareTest& t) -> Task<> {
    DbSession db = t.makeSession(t.web_, DriverKind::NativeMySql);
    for (int i = 0; i < 200; ++i) {
      co_await db.execute("SELECT * FROM stock WHERE qty >= 100 AND qty <= 150");
    }
  }(*this));
  // Run to completion, then snapshot wherever the last query left the clock.
  simulation_.run();
  pump.finish();
  const obs::MetricsReport report = pump.buildReport(start, simulation_.now());
  const stats::MachineUsage db = obs::machineUsage(report, dbMachine_, "db");
  EXPECT_GT(db.cpuUtilization, 0.05);  // db was busy a solid fraction
  EXPECT_GT(db.nicMbps, 0.0);
  EXPECT_GT(obs::machineUsage(report, web_, "web").nicMbps, 0.0);
}

}  // namespace
}  // namespace mwsim::mw

namespace mwsim::mw {
namespace {

TEST_F(MiddlewareTest, GeneratorFailureProducesErrorPage) {
  // Failure injection: a generator that throws on specific interactions
  // must yield a 500-style error page without killing the server.
  class FlakyGen final : public DynamicContentGenerator {
   public:
    explicit FlakyGen(sim::Simulation& s) : sim_(s) {}
    sim::Task<Page> generate(const Request& r) override {
      co_await sim_.delay(sim::kMillisecond);
      if (r.interaction == "boom") throw std::runtime_error("script crashed");
      Page page;
      page.htmlBytes = 2000;
      co_return page;
    }
    sim::Simulation& sim_;
  };

  WebServer ws(simulation_, web_, network_, clients_, cost_);
  FlakyGen gen(simulation_);
  ws.setGenerator(&gen);
  ClientSession session;
  std::vector<bool> errors;
  for (const char* name : {"ok", "boom", "ok", "boom", "ok"}) {
    simulation_.spawn([](WebServer& w, ClientSession& s, const char* n,
                         std::vector<bool>& out) -> Task<> {
      Request req{n, &s};
      const auto result = co_await w.serve(req);
      out.push_back(result.page.error);
    }(ws, session, name, errors));
  }
  simulation_.run();
  ASSERT_EQ(errors.size(), 5u);
  int errorPages = 0;
  for (bool e : errors) errorPages += e ? 1 : 0;
  EXPECT_EQ(errorPages, 2);
  EXPECT_EQ(ws.errorCount(), 2u);
}

TEST_F(MiddlewareTest, ErrorPageStillConsumesWebResources) {
  class AlwaysThrow final : public DynamicContentGenerator {
   public:
    sim::Task<Page> generate(const Request&) override {
      throw std::runtime_error("dead");
      co_return Page{};  // unreachable
    }
  };
  WebServer ws(simulation_, web_, network_, clients_, cost_);
  AlwaysThrow gen;
  ws.setGenerator(&gen);
  ClientSession session;
  simulation_.spawn([](WebServer& w, ClientSession& s) -> Task<> {
    Request req{"x", &s};
    const auto result = co_await w.serve(req);
    (void)result;
  }(ws, session));
  simulation_.run();
  EXPECT_EQ(ws.errorCount(), 1u);
  EXPECT_GT(web_.cpu().busyCoreSeconds(), 0.0);  // request+response CPU charged
  EXPECT_EQ(ws.processPool().inUse(), 0);        // the slot was released
}

}  // namespace
}  // namespace mwsim::mw
