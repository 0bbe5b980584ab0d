/// Microbenchmarks for the relational engine substrate (google-benchmark):
/// real (wall-clock) cost of the operations the simulation executes, to
/// confirm the simulator itself is not the bottleneck of the benches.
#include <benchmark/benchmark.h>

#include "apps/auction/schema.hpp"
#include "apps/bookstore/schema.hpp"
#include "db/executor.hpp"
#include "db/parser.hpp"

namespace {

using namespace mwsim;

/// Every run queries a clone of a populated prototype (core::DatasetCache),
/// laid out as a copy lays it out, so the fixtures query a clone too.
db::Database populatedBookstore() {
  db::Database database;
  apps::bookstore::Scale scale;
  scale.scale = 0.02;
  apps::bookstore::createSchema(database);
  sim::Rng rng(1);
  apps::bookstore::populate(database, scale, rng);
  return database;
}

struct Fixture {
  db::Database database = populatedBookstore().clone();
  db::Executor exec{database};
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_ParseSelect(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db::parseSql("SELECT i_id, i_title FROM items WHERE i_subject = ? "
                     "ORDER BY i_pub_date DESC LIMIT 50"));
  }
}
BENCHMARK(BM_ParseSelect);

void BM_PkLookup(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql("SELECT * FROM items WHERE i_id = ?");
  std::int64_t id = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(id)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
    id = id % 10'000 + 1;
  }
}
BENCHMARK(BM_PkLookup);

void BM_SecondaryIndexLookup(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql(
      "SELECT i_id, i_title FROM items WHERE i_subject = ? ORDER BY i_pub_date DESC "
      "LIMIT 50");
  std::int64_t subject = 0;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(subject)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
    subject = (subject + 1) % 24;
  }
}
BENCHMARK(BM_SecondaryIndexLookup);

void BM_FullScanLike(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt =
      db::parseSql("SELECT i_id FROM items WHERE i_title LIKE '%abc%' LIMIT 50");
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.exec.execute(*stmt));
  }
}
BENCHMARK(BM_FullScanLike);

void BM_ThreeWayJoinGroupBy(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql(
      "SELECT ol.ol_i_id AS i_id, SUM(ol.ol_qty) AS total FROM order_line ol "
      "JOIN items i ON ol.ol_i_id = i.i_id JOIN authors a ON i.i_a_id = a.a_id "
      "WHERE ol.ol_o_id >= ? GROUP BY ol.ol_i_id ORDER BY total DESC LIMIT 50");
  const std::int64_t horizon =
      static_cast<std::int64_t>(f.database.table("orders").size()) - 500;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(horizon)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
  }
}
BENCHMARK(BM_ThreeWayJoinGroupBy);

void BM_PlannedThreeWayJoinGroupBy(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT ol.ol_i_id AS i_id, SUM(ol.ol_qty) AS total FROM order_line ol "
      "JOIN items i ON ol.ol_i_id = i.i_id JOIN authors a ON i.i_a_id = a.a_id "
      "WHERE ol.ol_o_id >= ? GROUP BY ol.ol_i_id ORDER BY total DESC LIMIT 50"));
  const std::int64_t horizon =
      static_cast<std::int64_t>(f.database.table("orders").size()) - 500;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(horizon)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
  }
}
BENCHMARK(BM_PlannedThreeWayJoinGroupBy);

void BM_UpdateByPk(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt =
      db::parseSql("UPDATE items SET i_stock = i_stock - 1 WHERE i_id = ?");
  std::int64_t id = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(id)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
    id = id % 10'000 + 1;
  }
}
BENCHMARK(BM_UpdateByPk);

void BM_AggregateFastPath(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql("SELECT MAX(o_id) AS m FROM orders");
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.exec.execute(*stmt));
  }
}
BENCHMARK(BM_AggregateFastPath);

// --- planned-statement variants ---
//
// The ad-hoc benchmarks above rebuild the query plan on every execution
// (name resolution, index selection, join ordering). These run the same
// statements through a PlannedStatement, the way mw::StatementCache serves
// the simulated middleware: the plan is built once and re-executed with
// fresh parameter bindings. The spread between each pair is what plan
// caching buys on the repeated-statement hot path.

void BM_BuildPlan(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql(
      "SELECT i_id, i_title FROM items WHERE i_subject = ? "
      "ORDER BY i_pub_date DESC LIMIT 50");
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::buildPlan(*stmt, f.database));
  }
}
BENCHMARK(BM_BuildPlan);

void BM_PlannedPkLookup(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql("SELECT * FROM items WHERE i_id = ?"));
  std::int64_t id = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(id)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    id = id % 10'000 + 1;
  }
}
BENCHMARK(BM_PlannedPkLookup);

void BM_PlannedSecondaryIndexLookup(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT i_id, i_title FROM items WHERE i_subject = ? ORDER BY i_pub_date DESC "
      "LIMIT 50"));
  std::int64_t subject = 0;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(subject)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    subject = (subject + 1) % 24;
  }
}
BENCHMARK(BM_PlannedSecondaryIndexLookup);

void BM_PlannedOrderedIndexLimit(benchmark::State& state) {
  // ORDER BY on an indexed column with LIMIT: the planner elides the sort
  // and walks the index, stopping after OFFSET+LIMIT rows.
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT i_id, i_title FROM items ORDER BY i_pub_date DESC LIMIT 50"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.exec.execute(stmt));
  }
}
BENCHMARK(BM_PlannedOrderedIndexLimit);

void BM_PlannedUpdateByPk(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(
      db::parseSql("UPDATE items SET i_stock = i_stock - 1 WHERE i_id = ?"));
  std::int64_t id = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(id)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    id = id % 10'000 + 1;
  }
}
BENCHMARK(BM_PlannedUpdateByPk);

void BM_PlannedAggregateFastPath(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql("SELECT MAX(o_id) AS m FROM orders"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.exec.execute(stmt));
  }
}
BENCHMARK(BM_PlannedAggregateFastPath);

// --- the auction site's hot statements ---
//
// The SELECTs that dominate a Figure 11/12 point, on an auction dataset
// with the full 33,000 live items (about 825 per category) and a tenth of
// the user and history tables (about 1,600 users per region), the setting
// every figure bench uses. Each plans once and cycles its parameters.

db::Database populatedAuction() {
  db::Database database;
  apps::auction::Scale scale;
  scale.historyScale = 0.1;
  apps::auction::createSchema(database);
  sim::Rng rng(1);
  apps::auction::populate(database, scale, rng);
  return database;
}

struct AuctionFixture {
  db::Database prototype = populatedAuction();
  db::Database database = prototype.clone();
  db::Executor exec{database};
};

AuctionFixture& auctionFixture() {
  static AuctionFixture f;
  return f;
}

void BM_PopulateAuctionDataset(benchmark::State& state) {
  // The build of a prototype that every dataset set-up starts from: the
  // data generation, the row appends and the index builds of populate().
  for (auto _ : state) {
    db::Database database = populatedAuction();
    benchmark::DoNotOptimize(&database);
    state.PauseTiming();  // freeing the dataset is not part of set-up
    database = db::Database();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_PopulateAuctionDataset)->Unit(benchmark::kMillisecond);

void BM_CloneAuctionDataset(benchmark::State& state) {
  // The copy of the populated prototype that every dataset set-up makes:
  // row pages, tombstones, pk slots and secondary indexes.
  auto& f = auctionFixture();
  for (auto _ : state) {
    db::Database copy = f.prototype.clone();
    benchmark::DoNotOptimize(&copy);
    state.PauseTiming();  // freeing the copy is not part of set-up
    copy = db::Database();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CloneAuctionDataset)->Unit(benchmark::kMillisecond);

void BM_PlannedCategoryWindow(benchmark::State& state) {
  // SearchItemsInCategory, second page: an index walk over one category,
  // then the 25-row window of a sort by another column.
  auto& f = auctionFixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT i_id, i_name, i_initial_price, i_max_bid, i_nb_of_bids, i_end_date, "
      "i_thumbnail_bytes FROM items WHERE i_category = ? ORDER BY i_end_date "
      "LIMIT 25 OFFSET 25"));
  std::int64_t category = 0;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(category + 1)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    category = (category + 1) % 40;
  }
}
BENCHMARK(BM_PlannedCategoryWindow);

void BM_PlannedRegionJoin(benchmark::State& state) {
  // SearchItemsInRegion: the region's users by index, each user's items by
  // index, the category as a residual filter, then the window.
  auto& f = auctionFixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT i.i_id, i.i_name, i.i_initial_price, i.i_max_bid, i.i_nb_of_bids, "
      "i.i_end_date, i.i_thumbnail_bytes "
      "FROM users u JOIN items i ON i.i_seller = u.u_id "
      "WHERE u.u_region = ? AND i.i_category = ? ORDER BY i.i_end_date LIMIT 25"));
  std::int64_t n = 0;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(n % 62 + 1), db::Value(n % 40 + 1)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    ++n;
  }
}
BENCHMARK(BM_PlannedRegionJoin);

void BM_PlannedUnsortedIndexJoin(benchmark::State& state) {
  // An index join whose outer keys come out of order: one category's items
  // (about 825, in RowId order), each joined by index to its seller's items.
  // Sellers are drawn at random, so about half the probes meet a key smaller
  // than the one before and descend from the fences.
  auto& f = auctionFixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT i.i_id FROM items o JOIN items i ON i.i_seller = o.i_seller "
      "WHERE o.i_category = ? ORDER BY i.i_end_date LIMIT 25"));
  std::int64_t category = 0;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(category + 1)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    category = (category + 1) % 40;
  }
}
BENCHMARK(BM_PlannedUnsortedIndexJoin);

void BM_PlannedLikeWindow(benchmark::State& state) {
  // The bulletin board's search shape (`s_title LIKE ? ORDER BY s_date DESC
  // LIMIT 25`) over the item names. The board's s_date is indexed, so its
  // sort rides the index; here the key is unindexed, so every match enters
  // the window sort. A two-letter infix matches about 800 items.
  auto& f = auctionFixture();
  const db::PlannedStatement stmt(db::parseSql(
      "SELECT i_id, i_name, i_max_bid FROM items WHERE i_name LIKE ? "
      "ORDER BY i_max_bid DESC LIMIT 25"));
  const char* const needles[] = {"%ab%", "%er%", "%qu%", "%st%"};
  std::size_t n = 0;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(needles[n % 4])};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    ++n;
  }
}
BENCHMARK(BM_PlannedLikeWindow);

// The insert benchmarks mutate the fixture (order_line grows by one row per
// iteration), so they run last: every read benchmark above — ad hoc and
// planned alike — measures against identical data.
void BM_InsertOrderLine(benchmark::State& state) {
  auto& f = fixture();
  const auto stmt = db::parseSql(
      "INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty, ol_discount) VALUES "
      "(?, ?, ?, ?)");
  std::int64_t o = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(o), db::Value(o % 10'000 + 1), db::Value(1),
                                db::Value(0.0)};
    benchmark::DoNotOptimize(f.exec.execute(*stmt, params));
    ++o;
  }
}
BENCHMARK(BM_InsertOrderLine);

void BM_PlannedInsertOrderLine(benchmark::State& state) {
  auto& f = fixture();
  const db::PlannedStatement stmt(db::parseSql(
      "INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty, ol_discount) VALUES "
      "(?, ?, ?, ?)"));
  std::int64_t o = 1;
  for (auto _ : state) {
    const db::Value params[] = {db::Value(o), db::Value(o % 10'000 + 1), db::Value(1),
                                db::Value(0.0)};
    benchmark::DoNotOptimize(f.exec.execute(stmt, params));
    ++o;
  }
}
BENCHMARK(BM_PlannedInsertOrderLine);

}  // namespace

BENCHMARK_MAIN();
