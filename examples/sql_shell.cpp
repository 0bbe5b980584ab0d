/// sql_shell — interactive SQL shell over the benchmark databases.
///
/// Exercises the relational-engine substrate directly: load either
/// benchmark's schema and data, then type SQL against it. Handy for
/// exploring what the simulated applications actually query.
///
///   $ ./sql_shell --app bookstore
///   sql> SELECT COUNT(*) AS n FROM items
///   sql> SELECT i_title FROM items WHERE i_id = 42
///   sql> \q

#include <cstdio>
#include <iostream>
#include <string>

#include "apps/auction/schema.hpp"
#include "apps/bookstore/schema.hpp"
#include "bench/cli.hpp"
#include "db/executor.hpp"
#include "stats/report.hpp"

int main(int argc, char** argv) {
  using namespace mwsim;

  bool auction = false;
  cli::Parser("Interactive SQL shell over a benchmark database")
      .choice("--app", auction, {{"bookstore", false}, {"auction", true}},
              "benchmark whose schema and data to load")
      .parse(argc, argv);
  db::Database database;
  sim::Rng rng(1);
  if (auction) {
    apps::auction::Scale scale;
    scale.historyScale = 0.05;
    apps::auction::createSchema(database);
    apps::auction::populate(database, scale, rng);
  } else {
    apps::bookstore::Scale scale;
    scale.scale = 0.05;
    apps::bookstore::createSchema(database);
    apps::bookstore::populate(database, scale, rng);
  }
  db::Executor executor(database);

  std::printf("%s database loaded. Tables:", auction ? "auction" : "bookstore");
  for (const auto& name : database.tableNames()) {
    std::printf(" %s(%zu)", name.c_str(), database.table(name).size());
  }
  std::printf("\nType SQL, or \\q to quit.\n");

  std::string line;
  while (true) {
    std::printf("sql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line == "\\q" || line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    try {
      const auto result = executor.query(line);
      if (!result.resultSet.columns.empty()) {
        stats::TextTable table(result.resultSet.columns);
        const std::size_t shown = std::min<std::size_t>(result.resultSet.rowCount(), 40);
        for (std::size_t r = 0; r < shown; ++r) {
          std::vector<std::string> row;
          for (const auto& v : result.resultSet.rows[r]) {
            row.push_back(v.toDisplayString());
          }
          table.addRow(row);
        }
        std::printf("%s", table.str().c_str());
        if (shown < result.resultSet.rowCount()) {
          std::printf("... (%zu rows total)\n", result.resultSet.rowCount());
        }
      }
      std::printf("%llu row(s); %llu examined%s\n",
                  static_cast<unsigned long long>(result.resultSet.rowCount() +
                                                  result.affectedRows),
                  static_cast<unsigned long long>(result.stats.rowsExamined),
                  result.stats.usedIndex ? " (via index)" : " (full scan)");
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  return 0;
}
