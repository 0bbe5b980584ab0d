#include "apps/bbs/schema.hpp"

#include "db/schema.hpp"

namespace mwsim::apps::bbs {

using db::SchemaBuilder;
using db::Table;
using db::Value;

namespace {

db::TableSchema storySchema(const char* name) {
  return SchemaBuilder(name)
      .intCol("s_id").primaryKey(true)
      .stringCol("s_title")
      .stringCol("s_body")
      .intCol("s_body_bytes")  // rendered size of the full story text
      .intCol("s_author").indexed()
      .intCol("s_category").indexed()
      .intCol("s_date").indexed()
      .intCol("s_nb_comments")
      .build();
}

db::TableSchema commentSchema(const char* name) {
  return SchemaBuilder(name)
      .intCol("c_id").primaryKey(true)
      .intCol("c_story_id").indexed()
      .intCol("c_author").indexed()
      .intCol("c_parent")
      .intCol("c_date")
      .intCol("c_rating")
      .stringCol("c_subject")
      .stringCol("c_body")
      .build();
}

}  // namespace

void createSchema(db::Database& database) {
  database.createTable(SchemaBuilder("users")
                           .intCol("u_id").primaryKey(true)
                           .stringCol("u_nickname").indexed()
                           .stringCol("u_password")
                           .stringCol("u_email")
                           .intCol("u_rating")
                           .intCol("u_access")
                           .intCol("u_creation_date")
                           .build());
  database.createTable(SchemaBuilder("categories")
                           .intCol("cat_id").primaryKey()
                           .stringCol("cat_name")
                           .build());
  database.createTable(storySchema("stories"));
  database.createTable(storySchema("old_stories"));
  database.createTable(commentSchema("comments"));
  database.createTable(commentSchema("old_comments"));
  database.createTable(SchemaBuilder("submissions")
                           .intCol("sub_id").primaryKey(true)
                           .intCol("sub_author")
                           .stringCol("sub_title")
                           .intCol("sub_date")
                           .intCol("sub_category")
                           .build());
  database.createTable(SchemaBuilder("moderator_log")
                           .intCol("ml_id").primaryKey(true)
                           .intCol("ml_moderator")
                           .intCol("ml_comment_id")
                           .intCol("ml_rating")
                           .intCol("ml_date")
                           .build());
}

void populate(db::Database& database, const Scale& scale, sim::Rng& rng) {
  database.disableKeys();
  Table& categories = database.table("categories");
  for (int i = 1; i <= scale.categories; ++i) {
    categories.insert({Value(i), Value("topic" + std::to_string(i))});
  }

  Table& users = database.table("users");
  const std::int64_t userCount = scale.users();
  for (std::int64_t i = 1; i <= userCount; ++i) {
    users.insert({Value(), Value("reader" + std::to_string(i)),
                  Value(rng.randomString(8)),
                  Value("reader" + std::to_string(i) + "@example.com"),
                  Value(rng.uniformInt(-5, 50)), Value(rng.bernoulli(0.02) ? 1 : 0),
                  Value(rng.uniformInt(0, 4000))});
  }

  auto fillStories = [&](Table& stories, Table& comments, std::int64_t count,
                         int dateLo, int dateHi) {
    for (std::int64_t i = 1; i <= count; ++i) {
      const int nbComments = static_cast<int>(
          rng.uniformInt(0, 2 * scale.commentsPerStory));
      const std::int64_t id = stories.insert(
          {Value(), Value("story " + rng.randomText(30)), Value(rng.randomText(120)),
           Value(rng.uniformInt(1'500, 9'000)), Value(rng.uniformInt(1, userCount)),
           Value(rng.uniformInt(1, scale.categories)),
           Value(rng.uniformInt(dateLo, dateHi)), Value(nbComments)});
      // Comments are generated only for active stories (old comments are
      // reached one story at a time; a scaled-down archive keeps memory
      // sane without changing per-query work).
      if (&stories == &database.table("stories")) {
        for (int c = 0; c < nbComments; ++c) {
          comments.insert({Value(), Value(id), Value(rng.uniformInt(1, userCount)),
                           Value(0), Value(rng.uniformInt(dateLo, dateHi)),
                           Value(rng.uniformInt(-1, 5)),
                           Value("re: " + rng.randomText(12)),
                           Value(rng.randomText(60))});
        }
      }
    }
  };
  fillStories(database.table("stories"), database.table("comments"),
              scale.activeStories, 7970, 8000);
  fillStories(database.table("old_stories"), database.table("old_comments"),
              scale.oldStories(), 7000, 7969);
  database.enableKeys();
}

}  // namespace mwsim::apps::bbs
