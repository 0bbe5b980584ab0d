#include "apps/auction/schema.hpp"

#include "db/schema.hpp"

namespace mwsim::apps::auction {

using db::SchemaBuilder;
using db::Table;
using db::Value;

namespace {

db::TableSchema itemsSchema(const char* name) {
  return SchemaBuilder(name)
      .intCol("i_id").primaryKey(true)
      .stringCol("i_name")
      .stringCol("i_description")
      .intCol("i_desc_bytes")  // rendered size of the full HTML description
      .intCol("i_seller").indexed()
      .intCol("i_category").indexed()
      .intCol("i_quantity")
      .doubleCol("i_initial_price")
      .doubleCol("i_reserve_price")
      .doubleCol("i_buy_now")
      // Denormalized bid statistics — the paper's §3.2 optimization that
      // avoids "many expensive lookups on the bids table".
      .intCol("i_nb_of_bids")
      .doubleCol("i_max_bid")
      .intCol("i_start_date")
      .intCol("i_end_date").indexed()
      .intCol("i_thumbnail_bytes")
      .build();
}

}  // namespace

void createSchema(db::Database& database) {
  database.createTable(SchemaBuilder("categories")
                           .intCol("c_id").primaryKey()
                           .stringCol("c_name")
                           .build());
  database.createTable(SchemaBuilder("regions")
                           .intCol("r_id").primaryKey()
                           .stringCol("r_name")
                           .build());
  database.createTable(SchemaBuilder("users")
                           .intCol("u_id").primaryKey(true)
                           .stringCol("u_fname")
                           .stringCol("u_lname")
                           .stringCol("u_nickname").indexed()
                           .stringCol("u_password")
                           .stringCol("u_email")
                           .intCol("u_rating")
                           .doubleCol("u_balance")
                           .intCol("u_creation_date")
                           .intCol("u_region").indexed()
                           .build());
  database.createTable(itemsSchema("items"));
  database.createTable(itemsSchema("old_items"));
  database.createTable(SchemaBuilder("bids")
                           .intCol("b_id").primaryKey(true)
                           .intCol("b_user_id").indexed()
                           .intCol("b_item_id").indexed()
                           .intCol("b_qty")
                           .doubleCol("b_bid")
                           .doubleCol("b_max_bid")
                           .intCol("b_date")
                           .build());
  database.createTable(SchemaBuilder("buy_now")
                           .intCol("bn_id").primaryKey(true)
                           .intCol("bn_buyer_id").indexed()
                           .intCol("bn_item_id").indexed()
                           .intCol("bn_qty")
                           .intCol("bn_date")
                           .build());
  database.createTable(SchemaBuilder("comments")
                           .intCol("c_id").primaryKey(true)
                           .intCol("c_from_user_id")
                           .intCol("c_to_user_id").indexed()
                           .intCol("c_item_id").indexed()
                           .intCol("c_rating")
                           .intCol("c_date")
                           .stringCol("c_comment")
                           .build());
  // Sequence table used by the register interactions (paper §3.2 lists it).
  database.createTable(SchemaBuilder("ids")
                           .stringCol("id_name").primaryKey()
                           .intCol("id_value")
                           .build());
}

void populate(db::Database& database, const Scale& scale, sim::Rng& rng) {
  database.disableKeys();
  Table& categories = database.table("categories");
  for (int i = 1; i <= scale.categories; ++i) {
    categories.insert({Value(i), Value("category" + std::to_string(i))});
  }
  Table& regions = database.table("regions");
  for (int i = 1; i <= scale.regions; ++i) {
    regions.insert({Value(i), Value("region" + std::to_string(i))});
  }

  Table& users = database.table("users");
  const std::int64_t userCount = scale.users();
  for (std::int64_t i = 1; i <= userCount; ++i) {
    users.insert({Value(), Value(rng.randomString(7)), Value(rng.randomString(9)),
                  Value("nick" + std::to_string(i)), Value(rng.randomString(8)),
                  Value("nick" + std::to_string(i) + "@example.com"),
                  Value(rng.uniformInt(-5, 200)), Value(rng.uniformReal(0.0, 1000.0)),
                  Value(rng.uniformInt(0, 4000)),
                  Value(rng.uniformInt(1, scale.regions))});
  }

  auto fillItems = [&](Table& table, std::int64_t count, int startDateLo,
                       int startDateHi) {
    for (std::int64_t i = 1; i <= count; ++i) {
      const double initial = rng.uniformReal(1.0, 500.0);
      const int nbBids = static_cast<int>(rng.uniformInt(0, 2 * scale.bidsPerItem));
      const int start = static_cast<int>(rng.uniformInt(startDateLo, startDateHi));
      table.insert({Value(),
                    Value("item " + rng.randomText(24)),
                    Value(rng.randomText(80)),
                    Value(rng.uniformInt(2'000, 9'000)),
                    Value(rng.uniformInt(1, userCount)),
                    Value(rng.uniformInt(1, scale.categories)),
                    Value(rng.uniformInt(1, 5)),
                    Value(initial),
                    Value(rng.bernoulli(0.4) ? initial * 1.2 : 0.0),
                    Value(rng.bernoulli(0.1) ? initial * 2.0 : 0.0),
                    Value(nbBids),
                    Value(initial + 2.0 * nbBids),
                    Value(start),
                    Value(start + 7),
                    Value(rng.uniformInt(800, 3'000))});
    }
  };
  // Live auctions end within the coming week (dates in days).
  fillItems(database.table("items"), scale.activeItems, 7993, 8000);
  fillItems(database.table("old_items"), scale.oldItems(), 7000, 7992);

  Table& bids = database.table("bids");
  const std::int64_t bidCount = scale.activeItems * scale.bidsPerItem;
  for (std::int64_t i = 1; i <= bidCount; ++i) {
    const double amount = rng.uniformReal(1.0, 800.0);
    bids.insert({Value(), Value(rng.uniformInt(1, userCount)),
                 Value(rng.uniformInt(1, scale.activeItems)),
                 Value(rng.uniformInt(1, 3)), Value(amount),
                 Value(amount * rng.uniformReal(1.0, 1.3)),
                 Value(rng.uniformInt(7990, 8000))});
  }

  Table& buyNow = database.table("buy_now");
  for (std::int64_t i = 1; i <= scale.buyNows(); ++i) {
    buyNow.insert({Value(), Value(rng.uniformInt(1, userCount)),
                   Value(rng.uniformInt(1, scale.activeItems)),
                   Value(rng.uniformInt(1, 2)), Value(rng.uniformInt(7990, 8000))});
  }

  Table& comments = database.table("comments");
  const std::int64_t commentCount = scale.comments();
  for (std::int64_t i = 1; i <= commentCount; ++i) {
    comments.insert({Value(), Value(rng.uniformInt(1, userCount)),
                     Value(rng.uniformInt(1, userCount)),
                     Value(rng.uniformInt(1, scale.activeItems)),
                     Value(rng.uniformInt(-5, 5)), Value(rng.uniformInt(7000, 8000)),
                     Value(rng.randomText(90))});
  }

  Table& ids = database.table("ids");
  ids.insert({Value("users"), Value(userCount + 1)});
  ids.insert({Value("items"), Value(scale.activeItems + 1)});
  database.enableKeys();
}

}  // namespace mwsim::apps::auction
