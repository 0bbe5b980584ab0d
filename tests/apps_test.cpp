#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/auction/auction.hpp"
#include "apps/auction/auction_ejb.hpp"
#include "apps/auction/schema.hpp"
#include "apps/bbs/bbs.hpp"
#include "apps/bbs/schema.hpp"
#include "apps/bookstore/bookstore.hpp"
#include "apps/bookstore/bookstore_ejb.hpp"
#include "apps/bookstore/schema.hpp"
#include "middleware/ejb.hpp"
#include "table_equality.hpp"

namespace mwsim {
namespace {

using apps::auction::AuctionLogic;
using apps::bookstore::BookstoreLogic;
using sim::Task;

/// Inserts every row of `populated`, one at a time with the keys on, into a
/// fresh database of the same schema, and expects each table to equal the
/// one populate() loaded with its keys disabled and then built by sorting.
void expectBulkLoadMatchesInserts(const db::Database& populated,
                                  void (*createSchema)(db::Database&)) {
  db::Database inserted;
  createSchema(inserted);
  ASSERT_EQ(inserted.tableNames(), populated.tableNames());
  for (const std::string& name : populated.tableNames()) {
    SCOPED_TRACE("table " + name);
    const db::Table& from = populated.table(name);
    db::Table& to = inserted.table(name);
    ASSERT_EQ(from.size(), from.rowSlots()) << "populate erases nothing";
    for (db::RowId id = 0; id < from.rowSlots(); ++id) {
      const auto row = from.row(id);
      to.insert(db::Row(row.begin(), row.end()));
    }
    db::expectSameTable(from, to);
  }
}

// ----------------------------------------------------------- bookstore data

class BookstoreDataTest : public ::testing::Test {
 protected:
  BookstoreDataTest() {
    scale_.scale = 0.02;  // 5,760 customers: fast but structurally complete
    apps::bookstore::createSchema(db_);
    sim::Rng rng(7);
    apps::bookstore::populate(db_, scale_, rng);
  }
  apps::bookstore::Scale scale_;
  db::Database db_;
};

TEST_F(BookstoreDataTest, AllTenTablesExist) {
  for (const char* t : {"customers", "address", "orders", "order_line", "credit_info",
                        "items", "authors", "countries", "shopping_cart",
                        "shopping_cart_line"}) {
    EXPECT_TRUE(db_.hasTable(t)) << t;
  }
}

TEST_F(BookstoreDataTest, PaperScaleCounts) {
  EXPECT_EQ(db_.table("items").size(), 10'000u);
  EXPECT_EQ(db_.table("customers").size(), 5'760u);
  EXPECT_EQ(db_.table("address").size(), 5'760u);
  EXPECT_EQ(db_.table("countries").size(), 92u);
  EXPECT_EQ(db_.table("authors").size(), 2'500u);
  EXPECT_EQ(db_.table("orders").size(),
            static_cast<std::size_t>(0.9 * 5'760));
  EXPECT_GT(db_.table("order_line").size(), db_.table("orders").size());
  EXPECT_EQ(db_.table("credit_info").size(), db_.table("orders").size());
}

TEST_F(BookstoreDataTest, ForeignKeysResolve) {
  db::Executor exec(db_);
  // Every order_line points to a live order and item.
  auto r = exec.query(
      "SELECT COUNT(*) AS n FROM order_line ol JOIN orders o ON ol.ol_o_id = o.o_id");
  EXPECT_EQ(static_cast<std::size_t>(r.resultSet.intAt(0, "n")),
            db_.table("order_line").size());
  auto items = exec.query(
      "SELECT COUNT(*) AS n FROM items i JOIN authors a ON i.i_a_id = a.a_id");
  EXPECT_EQ(items.resultSet.intAt(0, "n"), 10'000);
}

TEST_F(BookstoreDataTest, BulkLoadMatchesInsertsOneAtATime) {
  expectBulkLoadMatchesInserts(db_, apps::bookstore::createSchema);
}

TEST_F(BookstoreDataTest, FullScaleMatchesPaper) {
  apps::bookstore::Scale full;
  EXPECT_EQ(full.customers(), 288'000);
  EXPECT_EQ(full.items, 10'000);
}

TEST_F(BookstoreDataTest, DeterministicForSameSeed) {
  db::Database db2;
  apps::bookstore::createSchema(db2);
  sim::Rng rng(7);
  apps::bookstore::populate(db2, scale_, rng);
  db::Executor a(db_);
  db::Executor b(db2);
  auto ra = a.query("SELECT i_title, i_cost FROM items WHERE i_id = 42");
  auto rb = b.query("SELECT i_title, i_cost FROM items WHERE i_id = 42");
  EXPECT_EQ(ra.resultSet.stringAt(0, "i_title"), rb.resultSet.stringAt(0, "i_title"));
}

// ------------------------------------------------------------ auction data

class AuctionDataTest : public ::testing::Test {
 protected:
  AuctionDataTest() {
    scale_.historyScale = 0.01;  // 10k users
    apps::auction::createSchema(db_);
    sim::Rng rng(7);
    apps::auction::populate(db_, scale_, rng);
  }
  apps::auction::Scale scale_;
  db::Database db_;
};

TEST_F(AuctionDataTest, AllNineTablesExist) {
  for (const char* t : {"users", "items", "old_items", "bids", "buy_now", "comments",
                        "categories", "regions", "ids"}) {
    EXPECT_TRUE(db_.hasTable(t)) << t;
  }
}

TEST_F(AuctionDataTest, PaperScaleCounts) {
  EXPECT_EQ(db_.table("items").size(), 33'000u);
  EXPECT_EQ(db_.table("categories").size(), 40u);
  EXPECT_EQ(db_.table("regions").size(), 62u);
  EXPECT_EQ(db_.table("users").size(), 10'000u);
  EXPECT_EQ(db_.table("old_items").size(), 5'000u);
  EXPECT_EQ(db_.table("bids").size(), 330'000u);
  EXPECT_EQ(db_.table("comments").size(), 5'000u);
}

TEST_F(AuctionDataTest, BulkLoadMatchesInsertsOneAtATime) {
  expectBulkLoadMatchesInserts(db_, apps::auction::createSchema);
}

TEST_F(AuctionDataTest, FullScaleMatchesPaper) {
  apps::auction::Scale full;
  EXPECT_EQ(full.users(), 1'000'000);
  EXPECT_EQ(full.oldItems(), 500'000);
  EXPECT_EQ(full.comments(), 500'000);
  EXPECT_EQ(full.activeItems * full.bidsPerItem, 330'000);
}

TEST_F(AuctionDataTest, IdsTableSeeded) {
  db::Executor exec(db_);
  auto r = exec.query("SELECT id_value FROM ids WHERE id_name = 'items'");
  EXPECT_EQ(r.resultSet.intAt(0, "id_value"), 33'001);
}

TEST_F(AuctionDataTest, DenormalizedBidStatsPresent) {
  db::Executor exec(db_);
  auto r = exec.query("SELECT MAX(i_nb_of_bids) AS m FROM items");
  EXPECT_GT(r.resultSet.intAt(0, "m"), 0);
}

// -------------------------------------------------------------------- mixes

TEST(BookstoreMixTest, ReadWriteFractionsMatchPaper) {
  // Paper §3.1: browsing 95% read-only, shopping 80%, ordering 50%.
  const double browsing =
      apps::bookstore::mixMatrix(apps::bookstore::Mix::Browsing).readWriteFraction();
  const double shopping =
      apps::bookstore::mixMatrix(apps::bookstore::Mix::Shopping).readWriteFraction();
  const double ordering =
      apps::bookstore::mixMatrix(apps::bookstore::Mix::Ordering).readWriteFraction();
  EXPECT_NEAR(browsing, 0.05, 0.025);
  EXPECT_NEAR(shopping, 0.20, 0.05);
  EXPECT_NEAR(ordering, 0.50, 0.08);
  EXPECT_LT(browsing, shopping);
  EXPECT_LT(shopping, ordering);
}

TEST(BookstoreMixTest, FourteenInteractions) {
  const auto mix = apps::bookstore::mixMatrix(apps::bookstore::Mix::Shopping);
  EXPECT_EQ(mix.stateCount(), 14u);
  EXPECT_EQ(mix.stateName(mix.initialState()), "Home");
}

TEST(BookstoreMixTest, SearchFormFlowsToResults) {
  const auto mix = apps::bookstore::mixMatrix(apps::bookstore::Mix::Shopping);
  sim::Rng rng(5);
  std::size_t searchReq = 0;
  for (std::size_t i = 0; i < mix.stateCount(); ++i) {
    if (mix.stateName(i) == "SearchRequest") searchReq = i;
  }
  int results = 0;
  for (int i = 0; i < 1000; ++i) {
    if (mix.stateName(mix.next(searchReq, rng)) == "SearchResults") ++results;
  }
  EXPECT_GT(results, 800);  // 85% forced transition
}

TEST(AuctionMixTest, TwentySixInteractions) {
  const auto mix = apps::auction::mixMatrix(apps::auction::Mix::Bidding);
  EXPECT_EQ(mix.stateCount(), 26u);
}

TEST(AuctionMixTest, BrowsingMixIsReadOnly) {
  const auto mix = apps::auction::mixMatrix(apps::auction::Mix::Browsing);
  EXPECT_DOUBLE_EQ(mix.readWriteFraction(), 0.0);
  // No transitions ever reach a write state.
  sim::Rng rng(3);
  std::size_t state = mix.initialState();
  for (int i = 0; i < 5000; ++i) {
    state = mix.next(state, rng);
    EXPECT_FALSE(mix.isReadWrite(state)) << mix.stateName(state);
  }
}

TEST(AuctionMixTest, BiddingMixNearFifteenPercentWrites) {
  const auto mix = apps::auction::mixMatrix(apps::auction::Mix::Bidding);
  EXPECT_NEAR(mix.readWriteFraction(), 0.15, 0.05);
}

TEST(MixMatrixTest, StationaryDistributionSumsToOne) {
  const auto mix = apps::bookstore::mixMatrix(apps::bookstore::Mix::Shopping);
  const auto pi = mix.stationaryDistribution();
  double sum = 0;
  for (double p : pi) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ----------------------------------------------- interaction logic (SQL)

class BookstoreLogicTest : public ::testing::Test {
 public:
  BookstoreLogicTest()
      : simulation_(11),
        network_(simulation_),
        host_(simulation_, "host"),
        dbMachine_(simulation_, "db"),
        dbServer_(simulation_, dbMachine_, db_, cost_),
        rng_(3) {
    scale_.scale = 0.02;
    apps::bookstore::createSchema(db_);
    sim::Rng dataRng(7);
    apps::bookstore::populate(db_, scale_, dataRng);
  }

  /// Runs one interaction to completion and returns the page.
  mw::Page run(const char* interaction, mw::ClientSession& session,
               mw::LockStrategy strategy = mw::LockStrategy::DatabaseLocks) {
    BookstoreLogic logic(scale_);
    mw::Page out;
    simulation_.spawn([](BookstoreLogicTest& t, BookstoreLogic& l, const char* name,
                         mw::ClientSession& s, mw::LockStrategy strat,
                         mw::Page& result) -> Task<> {
      mw::DbSession db(t.simulation_, t.network_, t.host_, t.dbServer_,
                       mw::DriverKind::NativeMySql, t.cost_);
      mw::AppContext ctx{t.simulation_, t.host_, db, strat, &t.monitors_, t.rng_,
                         t.cost_};
      result = co_await l.invoke(name, ctx, s);
    }(*this, logic, interaction, session, strategy, out));
    simulation_.run();
    return out;
  }

  db::Executor executor() { return db::Executor(db_); }

  mw::CostModel cost_;
  sim::Simulation simulation_;
  net::Network network_;
  net::Machine host_;
  net::Machine dbMachine_;
  db::Database db_;
  apps::bookstore::Scale scale_;
  mw::DatabaseServer dbServer_;
  sim::NamedMutexSet monitors_{simulation_};
  sim::Rng rng_;
};

TEST_F(BookstoreLogicTest, AllFourteenInteractionsProducePages) {
  const auto mix = apps::bookstore::mixMatrix(apps::bookstore::Mix::Shopping);
  mw::ClientSession session;
  for (std::size_t i = 0; i < mix.stateCount(); ++i) {
    mw::Page page = run(mix.stateName(i).c_str(), session);
    EXPECT_GT(page.htmlBytes, 1000u) << mix.stateName(i);
    EXPECT_GT(page.imageCount, 0) << mix.stateName(i);
  }
}

TEST_F(BookstoreLogicTest, UnknownInteractionThrows) {
  mw::ClientSession session;
  EXPECT_THROW(run("Bogus", session), std::runtime_error);
}

TEST_F(BookstoreLogicTest, SearchRequestIsStatic) {
  mw::ClientSession session;
  const auto before = dbServer_.statementsProcessed();
  run("SearchRequest", session);
  EXPECT_EQ(dbServer_.statementsProcessed(), before);
}

TEST_F(BookstoreLogicTest, SecureInteractionsAreFlagged) {
  mw::ClientSession session;
  EXPECT_TRUE(run("BuyRequest", session).secure);
  EXPECT_TRUE(run("BuyConfirm", session).secure);
  EXPECT_TRUE(run("OrderInquiry", session).secure);
  EXPECT_FALSE(run("Home", session).secure);
  EXPECT_FALSE(run("SearchResults", session).secure);
}

TEST_F(BookstoreLogicTest, BuyConfirmCreatesOrderRows) {
  auto exec = executor();
  const auto ordersBefore = db_.table("orders").size();
  const auto linesBefore = db_.table("order_line").size();
  mw::ClientSession session;
  run("ShoppingCart", session);  // puts an item in the persistent cart
  run("BuyConfirm", session);
  EXPECT_EQ(db_.table("orders").size(), ordersBefore + 1);
  EXPECT_GT(db_.table("order_line").size(), linesBefore);
  EXPECT_TRUE(session.cart.empty());
  // Cart lines were consumed.
  auto r = exec.query("SELECT COUNT(*) AS n FROM shopping_cart_line WHERE scl_sc_id = ?",
                      std::vector<db::Value>{db::Value(session.cartId)});
  EXPECT_EQ(r.resultSet.intAt(0, "n"), 0);
}

TEST_F(BookstoreLogicTest, BuyConfirmDecrementsStock) {
  mw::ClientSession session;
  session.userId = 1;
  session.lastItemId = 77;
  auto exec = executor();
  const auto before =
      exec.query("SELECT i_stock FROM items WHERE i_id = 77").resultSet.intAt(0, "i_stock");
  run("ShoppingCart", session);  // adds item 77 (lastItemId)
  run("BuyConfirm", session);
  const auto after =
      exec.query("SELECT i_stock FROM items WHERE i_id = 77").resultSet.intAt(0, "i_stock");
  EXPECT_LT(after, before);
}

TEST_F(BookstoreLogicTest, ShoppingCartPersistsLines) {
  mw::ClientSession session;
  run("ShoppingCart", session);
  ASSERT_GE(session.cartId, 0);
  auto exec = executor();
  auto r = exec.query("SELECT COUNT(*) AS n FROM shopping_cart_line WHERE scl_sc_id = ?",
                      std::vector<db::Value>{db::Value(session.cartId)});
  EXPECT_GE(r.resultSet.intAt(0, "n"), 1);
}

TEST_F(BookstoreLogicTest, CustomerRegistrationSetsUser) {
  mw::ClientSession session;
  run("CustomerRegistration", session);
  EXPECT_GT(session.userId, 0);
}

TEST_F(BookstoreLogicTest, BestSellersReflectsRecentOrders) {
  mw::ClientSession session;
  const auto before = dbServer_.statementsProcessed();
  run("BestSellers", session);
  EXPECT_GT(dbServer_.statementsProcessed(), before + 1);
  EXPECT_GT(session.lastItemId, 0);  // best-seller list fed navigation
}

TEST_F(BookstoreLogicTest, WorksUnderAppSyncStrategy) {
  mw::ClientSession session;
  run("ShoppingCart", session, mw::LockStrategy::AppSync);
  const auto before = dbServer_.statementsProcessed();
  mw::Page page = run("BuyConfirm", session, mw::LockStrategy::AppSync);
  EXPECT_TRUE(page.secure);
  // No LOCK/UNLOCK statements reach the database, only the real queries.
  EXPECT_GT(dbServer_.statementsProcessed(), before + 4);
}

// ----------------------------------------------- interaction logic (auction)

class AuctionLogicTest : public ::testing::Test {
 public:
  AuctionLogicTest()
      : simulation_(13),
        network_(simulation_),
        host_(simulation_, "host"),
        dbMachine_(simulation_, "db"),
        dbServer_(simulation_, dbMachine_, db_, cost_),
        rng_(5) {
    scale_.historyScale = 0.01;
    apps::auction::createSchema(db_);
    sim::Rng dataRng(9);
    apps::auction::populate(db_, scale_, dataRng);
  }

  mw::Page run(const char* interaction, mw::ClientSession& session) {
    AuctionLogic logic(scale_);
    mw::Page out;
    simulation_.spawn([](AuctionLogicTest& t, AuctionLogic& l, const char* name,
                         mw::ClientSession& s, mw::Page& result) -> Task<> {
      mw::DbSession db(t.simulation_, t.network_, t.host_, t.dbServer_,
                       mw::DriverKind::NativeMySql, t.cost_);
      mw::AppContext ctx{t.simulation_, t.host_, db, mw::LockStrategy::DatabaseLocks,
                         nullptr, t.rng_, t.cost_};
      result = co_await l.invoke(name, ctx, s);
    }(*this, logic, interaction, session, out));
    simulation_.run();
    return out;
  }

  mw::CostModel cost_;
  sim::Simulation simulation_;
  net::Network network_;
  net::Machine host_;
  net::Machine dbMachine_;
  db::Database db_;
  apps::auction::Scale scale_;
  mw::DatabaseServer dbServer_;
  sim::Rng rng_;
};

TEST_F(AuctionLogicTest, AllTwentySixInteractionsProducePages) {
  const auto mix = apps::auction::mixMatrix(apps::auction::Mix::Bidding);
  mw::ClientSession session;
  for (std::size_t i = 0; i < mix.stateCount(); ++i) {
    mw::Page page = run(mix.stateName(i).c_str(), session);
    EXPECT_GT(page.htmlBytes, 1000u) << mix.stateName(i);
  }
}

TEST_F(AuctionLogicTest, StoreBidInsertsAndUpdatesStats) {
  mw::ClientSession session;
  session.lastItemId = 123;
  db::Executor exec(db_);
  const auto bidsBefore = db_.table("bids").size();
  const auto nbBefore =
      exec.query("SELECT i_nb_of_bids FROM items WHERE i_id = 123")
          .resultSet.intAt(0, "i_nb_of_bids");
  run("StoreBid", session);
  EXPECT_EQ(db_.table("bids").size(), bidsBefore + 1);
  const auto nbAfter =
      exec.query("SELECT i_nb_of_bids FROM items WHERE i_id = 123")
          .resultSet.intAt(0, "i_nb_of_bids");
  EXPECT_EQ(nbAfter, nbBefore + 1);
}

TEST_F(AuctionLogicTest, RegisterItemUsesIdsSequence) {
  mw::ClientSession session;
  db::Executor exec(db_);
  const auto before =
      exec.query("SELECT id_value FROM ids WHERE id_name = 'items'")
          .resultSet.intAt(0, "id_value");
  run("RegisterItem", session);
  const auto after =
      exec.query("SELECT id_value FROM ids WHERE id_name = 'items'")
          .resultSet.intAt(0, "id_value");
  EXPECT_EQ(after, before + 1);
  EXPECT_EQ(session.lastItemId, after);
}

TEST_F(AuctionLogicTest, StoreCommentUpdatesRating) {
  mw::ClientSession session;
  const auto commentsBefore = db_.table("comments").size();
  run("StoreComment", session);
  EXPECT_EQ(db_.table("comments").size(), commentsBefore + 1);
}

TEST_F(AuctionLogicTest, RegisterUserCreatesAccount) {
  mw::ClientSession session;
  const auto before = db_.table("users").size();
  run("RegisterUser", session);
  EXPECT_EQ(db_.table("users").size(), before + 1);
  EXPECT_GT(session.userId, 10'000);  // a fresh id past the initial load
}

TEST_F(AuctionLogicTest, ViewItemUsesDenormalizedStats) {
  mw::ClientSession session;
  const auto before = dbServer_.statementsProcessed();
  run("ViewItem", session);
  // One item read + one seller read — no scan of the bids table.
  EXPECT_LE(dbServer_.statementsProcessed() - before, 3u);
}

TEST_F(AuctionLogicTest, AboutMeAggregatesUserActivity) {
  mw::ClientSession session;
  const auto before = dbServer_.statementsProcessed();
  run("AboutMe", session);
  EXPECT_GE(dbServer_.statementsProcessed() - before, 6u);
}

TEST_F(AuctionLogicTest, FormPagesAreDatabaseFree) {
  mw::ClientSession session;
  const auto before = dbServer_.statementsProcessed();
  run("PutBidAuth", session);
  run("Home", session);
  run("SellItemForm", session);
  EXPECT_EQ(dbServer_.statementsProcessed(), before);
}

}  // namespace
}  // namespace mwsim

// ------------------------------------------------- bulletin board extension

namespace mwsim {
namespace {

TEST(BbsDataTest, TablesAndScale) {
  db::Database db;
  apps::bbs::Scale scale;
  scale.historyScale = 0.01;
  apps::bbs::createSchema(db);
  sim::Rng rng(3);
  apps::bbs::populate(db, scale, rng);
  for (const char* t : {"users", "categories", "stories", "old_stories", "comments",
                        "old_comments", "submissions", "moderator_log"}) {
    EXPECT_TRUE(db.hasTable(t)) << t;
  }
  EXPECT_EQ(db.table("stories").size(), 3'000u);
  EXPECT_EQ(db.table("users").size(), 5'000u);
  EXPECT_EQ(db.table("old_stories").size(), 2'000u);
  EXPECT_GT(db.table("comments").size(), 10'000u);  // ~10/story average
}

TEST(BbsDataTest, BulkLoadMatchesInsertsOneAtATime) {
  db::Database db;
  apps::bbs::Scale scale;
  scale.historyScale = 0.01;
  apps::bbs::createSchema(db);
  sim::Rng rng(3);
  apps::bbs::populate(db, scale, rng);
  expectBulkLoadMatchesInserts(db, apps::bbs::createSchema);
}

TEST(BbsMixTest, SubmissionMixHasModestWrites) {
  const auto mix = apps::bbs::mixMatrix(apps::bbs::Mix::Submission);
  EXPECT_EQ(mix.stateCount(), 16u);
  EXPECT_NEAR(mix.readWriteFraction(), 0.12, 0.06);
}

TEST(BbsMixTest, BrowsingMixIsReadOnly) {
  EXPECT_DOUBLE_EQ(apps::bbs::mixMatrix(apps::bbs::Mix::Browsing).readWriteFraction(),
                   0.0);
}

class BbsLogicTest : public ::testing::Test {
 public:
  BbsLogicTest()
      : simulation_(21),
        network_(simulation_),
        host_(simulation_, "host"),
        dbMachine_(simulation_, "db"),
        dbServer_(simulation_, dbMachine_, db_, cost_),
        rng_(8) {
    scale_.historyScale = 0.01;
    apps::bbs::createSchema(db_);
    sim::Rng dataRng(3);
    apps::bbs::populate(db_, scale_, dataRng);
  }

  mw::Page run(const char* interaction, mw::ClientSession& session) {
    apps::bbs::BbsLogic logic(scale_);
    mw::Page out;
    simulation_.spawn([](BbsLogicTest& t, apps::bbs::BbsLogic& l, const char* name,
                         mw::ClientSession& s, mw::Page& result) -> Task<> {
      mw::DbSession db(t.simulation_, t.network_, t.host_, t.dbServer_,
                       mw::DriverKind::NativeMySql, t.cost_);
      mw::AppContext ctx{t.simulation_, t.host_, db, mw::LockStrategy::DatabaseLocks,
                         nullptr, t.rng_, t.cost_};
      result = co_await l.invoke(name, ctx, s);
    }(*this, logic, interaction, session, out));
    simulation_.run();
    return out;
  }

  mw::CostModel cost_;
  sim::Simulation simulation_;
  net::Network network_;
  net::Machine host_;
  net::Machine dbMachine_;
  db::Database db_;
  apps::bbs::Scale scale_;
  mw::DatabaseServer dbServer_;
  sim::Rng rng_;
};

TEST_F(BbsLogicTest, AllSixteenInteractionsProducePages) {
  const auto mix = apps::bbs::mixMatrix(apps::bbs::Mix::Submission);
  mw::ClientSession session;
  for (std::size_t i = 0; i < mix.stateCount(); ++i) {
    mw::Page page = run(mix.stateName(i).c_str(), session);
    EXPECT_GT(page.htmlBytes, 1000u) << mix.stateName(i);
  }
}

TEST_F(BbsLogicTest, StoreCommentBumpsCounter) {
  mw::ClientSession session;
  session.lastItemId = 17;
  db::Executor exec(db_);
  const auto before = exec.query("SELECT s_nb_comments FROM stories WHERE s_id = 17")
                          .resultSet.intAt(0, "s_nb_comments");
  run("StoreComment", session);
  const auto after = exec.query("SELECT s_nb_comments FROM stories WHERE s_id = 17")
                         .resultSet.intAt(0, "s_nb_comments");
  EXPECT_EQ(after, before + 1);
  EXPECT_EQ(db_.table("comments").size() % 1'000'000, db_.table("comments").size());
}

TEST_F(BbsLogicTest, StoreStoryAddsStoryAndSubmission) {
  mw::ClientSession session;
  const auto stories = db_.table("stories").size();
  const auto subs = db_.table("submissions").size();
  run("StoreStory", session);
  EXPECT_EQ(db_.table("stories").size(), stories + 1);
  EXPECT_EQ(db_.table("submissions").size(), subs + 1);
  EXPECT_GT(session.lastItemId, 0);
}

TEST_F(BbsLogicTest, ViewStoryScalesWithComments) {
  mw::ClientSession session;
  session.lastItemId = 5;
  mw::Page page = run("ViewStory", session);
  db::Executor exec(db_);
  const auto comments =
      exec.query("SELECT COUNT(*) AS n FROM comments WHERE c_story_id = 5")
          .resultSet.intAt(0, "n");
  EXPECT_GT(page.htmlBytes,
            4000u + static_cast<std::size_t>(comments) * 400);
}

}  // namespace
}  // namespace mwsim
