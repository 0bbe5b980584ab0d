#include "mc/scenarios.hpp"

#include <utility>

#include "middleware/cost_model.hpp"
#include "middleware/db_cluster.hpp"
#include "middleware/policy.hpp"
#include "net/machine.hpp"
#include "sim/resource.hpp"
#include "sim/rwlock.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace mwsim::mc {

namespace {

using sim::Task;

/// One virtual microsecond. All scenario actors pace themselves in whole
/// ticks so that their request events collide at the same timestamps — the
/// tie-breaks those collisions create are exactly the schedules under test.
constexpr sim::Duration kTick = 1000;

// ---------------------------------------------------------------------------
// myisam_rw: 2 readers + 2 writers on one table lock, two rounds each.
// ---------------------------------------------------------------------------

class MyisamRwScenario final : public Scenario {
 public:
  explicit MyisamRwScenario(bool mutation) : mutation_(mutation) {}

  const char* name() const override {
    return mutation_ ? "myisam_rw_reader_pref" : "myisam_rw";
  }
  const char* description() const override {
    return "2 readers + 2 writers, one MyISAM-style table lock, 2 rounds";
  }

  void setUp(sim::Simulation& sim) override {
    st_ = std::make_unique<State>(sim);
    if (mutation_) st_->table.enableReaderPreferenceMutation();
    sim.spawn(reader(*st_));
    sim.spawn(reader(*st_));
    sim.spawn(writer(*st_));
    sim.spawn(writer(*st_));
  }
  void tearDown() override { st_.reset(); }

 private:
  struct State {
    explicit State(sim::Simulation& s) : sim(s), table(s, "items") {}
    sim::Simulation& sim;
    sim::RwLock table;
  };

  static Task<> reader(State& st) {
    for (int round = 0; round < 2; ++round) {
      co_await st.sim.delay(kTick);
      sim::LockHold hold = co_await st.table.lockRead();
      co_await st.sim.delay(kTick);
    }
  }
  static Task<> writer(State& st) {
    for (int round = 0; round < 2; ++round) {
      co_await st.sim.delay(kTick);
      sim::LockHold hold = co_await st.table.lockWrite();
      co_await st.sim.delay(kTick);
    }
  }

  bool mutation_;
  std::unique_ptr<State> st_;
};

// ---------------------------------------------------------------------------
// lock_tables: nested two-table write locks, ordered vs reversed.
// ---------------------------------------------------------------------------

class LockTablesScenario final : public Scenario {
 public:
  explicit LockTablesScenario(bool reversed) : reversed_(reversed) {}

  const char* name() const override {
    return reversed_ ? "lock_tables_reversed" : "lock_tables_ordered";
  }
  const char* description() const override {
    return reversed_
               ? "nested LOCK TABLES in opposite orders — deadlocks in some "
                 "schedules only"
               : "nested LOCK TABLES in sorted table order — deadlock-free";
  }

  void setUp(sim::Simulation& sim) override {
    st_ = std::make_unique<State>(sim);
    sim.spawn(forwardLocker(*st_));
    sim.spawn(reversed_ ? reversedLocker(*st_) : laggedForwardLocker(*st_));
    sim.spawn(reader(*st_));
  }
  void tearDown() override { st_.reset(); }

 private:
  struct State {
    explicit State(sim::Simulation& s)
        : sim(s), t1(s, "customers"), t2(s, "orders") {}
    sim::Simulation& sim;
    sim::RwLock t1;
    sim::RwLock t2;
  };

  // Takes t1 then t2 (sorted order), starting at tick 1.
  static Task<> forwardLocker(State& st) {
    co_await st.sim.delay(kTick);
    sim::LockHold a = co_await st.t1.lockWrite();
    co_await st.sim.delay(kTick);
    sim::LockHold b = co_await st.t2.lockWrite();
    co_await st.sim.delay(kTick);
  }
  // Same discipline, one tick later — contends on t1/t2 but cannot cycle.
  static Task<> laggedForwardLocker(State& st) {
    co_await st.sim.delay(kTick);
    co_await st.sim.delay(kTick);
    sim::LockHold a = co_await st.t1.lockWrite();
    co_await st.sim.delay(kTick);
    sim::LockHold b = co_await st.t2.lockWrite();
    co_await st.sim.delay(kTick);
  }
  // Takes t2 then t1, with its t2 request colliding with the forward
  // locker's t2 request at tick 2. In the canonical (time, seq) order the
  // forward locker wins the tie, acquires both tables and drains — but the
  // flipped tie gives this actor t2 while the forward locker holds t1, and
  // the next hop closes the cycle. The deadlock lives in some schedules
  // only, which is precisely what per-seed testing cannot see.
  static Task<> reversedLocker(State& st) {
    co_await st.sim.delay(kTick);
    co_await st.sim.delay(kTick);
    sim::LockHold a = co_await st.t2.lockWrite();
    co_await st.sim.delay(kTick);
    sim::LockHold b = co_await st.t1.lockWrite();
    co_await st.sim.delay(kTick);
  }
  static Task<> reader(State& st) {
    co_await st.sim.delay(kTick);
    {
      sim::LockHold h = co_await st.t1.lockRead();
      co_await st.sim.delay(kTick);
    }
    {
      sim::LockHold h = co_await st.t2.lockRead();
      co_await st.sim.delay(kTick);
    }
  }

  bool reversed_;
  std::unique_ptr<State> st_;
};

// ---------------------------------------------------------------------------
// servlet_sync: three actors on a capacity-1 mutex, two rounds each.
// ---------------------------------------------------------------------------

class ServletSyncScenario final : public Scenario {
 public:
  const char* name() const override { return "servlet_sync"; }
  const char* description() const override {
    return "3 servlet threads on one synchronized block, 2 rounds";
  }

  void setUp(sim::Simulation& sim) override {
    st_ = std::make_unique<State>(sim);
    sim.spawn(thread(*st_));
    sim.spawn(thread(*st_));
    sim.spawn(thread(*st_));
  }
  void tearDown() override { st_.reset(); }

 private:
  struct State {
    explicit State(sim::Simulation& s)
        : sim(s), monitor(s, 1, "servlet.sync") {}
    sim::Simulation& sim;
    sim::Mutex monitor;
  };

  static Task<> thread(State& st) {
    for (int round = 0; round < 2; ++round) {
      co_await st.sim.delay(kTick);
      sim::ResourceHold hold = co_await st.monitor.acquire();
      co_await st.sim.delay(kTick);
    }
  }

  std::unique_ptr<State> st_;
};

// ---------------------------------------------------------------------------
// cluster_write_stream: mw::DbCluster master/replica write fan-out.
// ---------------------------------------------------------------------------

class ClusterWriteScenario final : public Scenario {
 public:
  const char* name() const override { return "cluster_write_stream"; }
  const char* description() const override {
    return "2 writers through the DbCluster write stream onto 2 replicas, "
           "1 reader per replica";
  }

  void setUp(sim::Simulation& sim) override {
    st_ = std::make_unique<State>(sim);
    sim.spawn(writer(*st_));
    sim.spawn(writer(*st_));
    sim.spawn(reader(*st_, 0));
    sim.spawn(reader(*st_, 1));
  }
  void tearDown() override { st_.reset(); }

 private:
  struct State {
    explicit State(sim::Simulation& s)
        : sim(s),
          m0(s, "ClusterDb#1"),
          m1(s, "ClusterDb#2"),
          databases(2),
          cluster(s, cost, mw::DbPolicy::MasterReplica, {&m0, &m1}, databases) {
      // Create the table locks up front so their mc ids depend only on
      // construction order, never on which actor reaches them first.
      cluster.backend(0).tableLock("items");
      cluster.backend(1).tableLock("items");
    }
    sim::Simulation& sim;
    mw::CostModel cost;
    net::Machine m0;
    net::Machine m1;
    std::vector<db::Database> databases;
    mw::DbCluster cluster;
  };

  // The replication discipline DbSession uses for MasterReplica writes:
  // serialize on the cluster write stream, then apply to every backend in
  // backend order (ordered acquisition — no cross-writer lock cycles).
  static Task<> writer(State& st) {
    co_await st.sim.delay(kTick);
    sim::ResourceHold stream = co_await st.cluster.writeStream()->acquire();
    for (std::size_t b = 0; b < st.cluster.size(); ++b) {
      sim::LockHold lock =
          co_await st.cluster.backend(b).tableLock("items").lockWrite();
      co_await st.sim.delay(kTick);
    }
  }
  static Task<> reader(State& st, std::size_t backend) {
    for (int round = 0; round < 2; ++round) {
      co_await st.sim.delay(kTick);
      sim::LockHold lock =
          co_await st.cluster.backend(backend).tableLock("items").lockRead();
      co_await st.sim.delay(kTick);
    }
  }

  std::unique_ptr<State> st_;
};

// ---------------------------------------------------------------------------
// independent_shards: two unrelated locks, two actors each.
// ---------------------------------------------------------------------------

class IndependentShardsScenario final : public Scenario {
 public:
  const char* name() const override { return "independent_shards"; }
  const char* description() const override {
    return "2 actors on each of 2 unrelated locks — cross-shard orders "
           "commute, sleep sets prune them";
  }

  void setUp(sim::Simulation& sim) override {
    st_ = std::make_unique<State>(sim);
    sim.spawn(locker(*st_, st_->shardA));
    sim.spawn(locker(*st_, st_->shardA));
    sim.spawn(locker(*st_, st_->shardB));
    sim.spawn(locker(*st_, st_->shardB));
  }
  void tearDown() override { st_.reset(); }

 private:
  struct State {
    explicit State(sim::Simulation& s)
        : sim(s), shardA(s, "shardA"), shardB(s, "shardB") {}
    sim::Simulation& sim;
    sim::RwLock shardA;
    sim::RwLock shardB;
  };

  static Task<> locker(State& st, sim::RwLock& shard) {
    co_await st.sim.delay(kTick);
    sim::LockHold hold = co_await shard.lockWrite();
    co_await st.sim.delay(kTick);
  }

  std::unique_ptr<State> st_;
};

}  // namespace

std::unique_ptr<Scenario> makeMyisamRw(bool readerPreferenceMutation) {
  return std::make_unique<MyisamRwScenario>(readerPreferenceMutation);
}
std::unique_ptr<Scenario> makeLockTables(bool reversedOrder) {
  return std::make_unique<LockTablesScenario>(reversedOrder);
}
std::unique_ptr<Scenario> makeServletSync() {
  return std::make_unique<ServletSyncScenario>();
}
std::unique_ptr<Scenario> makeClusterWrite() {
  return std::make_unique<ClusterWriteScenario>();
}
std::unique_ptr<Scenario> makeIndependentShards() {
  return std::make_unique<IndependentShardsScenario>();
}

std::vector<std::unique_ptr<Scenario>> greenScenarios() {
  std::vector<std::unique_ptr<Scenario>> out;
  out.push_back(makeMyisamRw(false));
  out.push_back(makeLockTables(false));
  out.push_back(makeServletSync());
  out.push_back(makeClusterWrite());
  out.push_back(makeIndependentShards());
  return out;
}

}  // namespace mwsim::mc
