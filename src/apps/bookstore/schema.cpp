#include "apps/bookstore/schema.hpp"

#include "db/schema.hpp"

namespace mwsim::apps::bookstore {

using db::ColumnType;
using db::SchemaBuilder;
using db::Table;
using db::Value;

void createSchema(db::Database& database) {
  database.createTable(SchemaBuilder("countries")
                           .intCol("co_id").primaryKey()
                           .stringCol("co_name")
                           .build());
  database.createTable(SchemaBuilder("authors")
                           .intCol("a_id").primaryKey(true)
                           .stringCol("a_fname")
                           .stringCol("a_lname").indexed()
                           .build());
  database.createTable(SchemaBuilder("items")
                           .intCol("i_id").primaryKey(true)
                           .stringCol("i_title")
                           .intCol("i_a_id").indexed()
                           .intCol("i_subject").indexed()
                           .intCol("i_pub_date").indexed()
                           .doubleCol("i_cost")
                           .doubleCol("i_srp")
                           .intCol("i_stock")
                           .intCol("i_related1")
                           .intCol("i_related2")
                           .intCol("i_related3")
                           .intCol("i_related4")
                           .intCol("i_thumbnail_bytes")
                           .intCol("i_image_bytes")
                           .build());
  database.createTable(SchemaBuilder("customers")
                           .intCol("c_id").primaryKey(true)
                           .stringCol("c_uname").indexed()
                           .stringCol("c_passwd")
                           .stringCol("c_fname")
                           .stringCol("c_lname")
                           .stringCol("c_email")
                           .intCol("c_since")
                           .doubleCol("c_discount")
                           .intCol("c_addr_id")
                           .build());
  database.createTable(SchemaBuilder("address")
                           .intCol("addr_id").primaryKey(true)
                           .stringCol("addr_street")
                           .stringCol("addr_city")
                           .stringCol("addr_state")
                           .stringCol("addr_zip")
                           .intCol("addr_co_id")
                           .build());
  database.createTable(SchemaBuilder("orders")
                           .intCol("o_id").primaryKey(true)
                           .intCol("o_c_id").indexed()
                           .intCol("o_date").indexed()
                           .doubleCol("o_total")
                           .stringCol("o_ship_type")
                           .intCol("o_ship_date")
                           .stringCol("o_status")
                           .intCol("o_addr_id")
                           .build());
  database.createTable(SchemaBuilder("order_line")
                           .intCol("ol_id").primaryKey(true)
                           .intCol("ol_o_id").indexed()
                           .intCol("ol_i_id")
                           .intCol("ol_qty")
                           .doubleCol("ol_discount")
                           .build());
  // TPC-W requires persistent shopping carts; the paper's table list omits
  // them but its read-write cart interaction implies them (see DESIGN.md).
  database.createTable(SchemaBuilder("shopping_cart")
                           .intCol("sc_id").primaryKey(true)
                           .intCol("sc_c_id")
                           .intCol("sc_date")
                           .build());
  database.createTable(SchemaBuilder("shopping_cart_line")
                           .intCol("scl_id").primaryKey(true)
                           .intCol("scl_sc_id").indexed()
                           .intCol("scl_i_id")
                           .intCol("scl_qty")
                           .build());
  database.createTable(SchemaBuilder("credit_info")
                           .intCol("ci_id").primaryKey(true)
                           .intCol("ci_o_id").indexed()
                           .stringCol("ci_type")
                           .stringCol("ci_num")
                           .intCol("ci_expiry")
                           .stringCol("ci_auth")
                           .build());
}

void populate(db::Database& database, const Scale& scale, sim::Rng& rng) {
  // Data generation goes straight through Table::insert: populating ~1M
  // rows through the SQL layer would only re-parse the same statements.
  database.disableKeys();
  Table& countries = database.table("countries");
  for (std::int64_t i = 1; i <= scale.countries; ++i) {
    countries.insert({Value(i), Value("country" + std::to_string(i))});
  }

  Table& authors = database.table("authors");
  for (std::int64_t i = 1; i <= scale.authors; ++i) {
    authors.insert({Value(), Value(rng.randomString(8)), Value(rng.randomString(10))});
  }

  Table& items = database.table("items");
  for (std::int64_t i = 1; i <= scale.items; ++i) {
    const double srp = rng.uniformReal(5.0, 120.0);
    items.insert({
        Value(),
        Value("title " + rng.randomText(40)),
        Value(rng.uniformInt(1, scale.authors)),
        Value(rng.uniformInt(0, scale.subjects - 1)),
        Value(rng.uniformInt(0, 4000)),  // pub date: days since epoch-ish
        Value(srp * rng.uniformReal(0.5, 1.0)),
        Value(srp),
        Value(rng.uniformInt(10, 30)),
        Value(rng.uniformInt(1, scale.items)),
        Value(rng.uniformInt(1, scale.items)),
        Value(rng.uniformInt(1, scale.items)),
        Value(rng.uniformInt(1, scale.items)),
        Value(rng.uniformInt(1'000, 6'000)),    // thumbnail size on disk
        Value(rng.uniformInt(8'000, 30'000)),   // full image size on disk
    });
  }

  Table& customers = database.table("customers");
  Table& address = database.table("address");
  const std::int64_t customerCount = scale.customers();
  for (std::int64_t i = 1; i <= customerCount; ++i) {
    address.insert({Value(), Value(rng.randomString(16)), Value(rng.randomString(10)),
                    Value(rng.randomString(2)), Value(std::to_string(10000 + i % 89999)),
                    Value(rng.uniformInt(1, scale.countries))});
    customers.insert({
        Value(),
        Value("user" + std::to_string(i)),
        Value(rng.randomString(8)),
        Value(rng.randomString(7)),
        Value(rng.randomString(9)),
        Value("user" + std::to_string(i) + "@example.com"),
        Value(rng.uniformInt(0, 4000)),
        Value(rng.uniformReal(0.0, 0.5)),
        Value(i),  // address created just above has addr_id == i
    });
  }

  // Order history: ~2.6 lines per order, recent orders clustered so the
  // best-sellers window (last 3,333 orders) is meaningful.
  Table& orders = database.table("orders");
  Table& orderLine = database.table("order_line");
  Table& creditInfo = database.table("credit_info");
  const std::int64_t orderCount = scale.initialOrders();
  for (std::int64_t o = 1; o <= orderCount; ++o) {
    const std::int64_t customer = rng.uniformInt(1, customerCount);
    const std::int64_t date = 4000 + o / 100;  // monotone-ish order dates
    orders.insert({Value(), Value(customer), Value(date),
                   Value(rng.uniformReal(10.0, 500.0)), Value("AIR"), Value(date + 3),
                   Value("SHIPPED"), Value(customer)});
    const int lines = static_cast<int>(rng.uniformInt(1, 4));
    for (int l = 0; l < lines; ++l) {
      orderLine.insert({Value(), Value(o), Value(rng.uniformInt(1, scale.items)),
                        Value(rng.uniformInt(1, 5)), Value(rng.uniformReal(0.0, 0.3))});
    }
    creditInfo.insert({Value(), Value(o), Value("VISA"),
                       Value(std::to_string(4'000'000'000'000'000 + o)),
                       Value(rng.uniformInt(5000, 6000)), Value(rng.randomString(12))});
  }
  database.enableKeys();
}

}  // namespace mwsim::apps::bookstore
