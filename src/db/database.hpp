#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/table.hpp"

namespace mwsim::db {

/// Catalog of tables — the storage engine under one database server.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Deep copy of the whole catalog (every table cloned, creation order
  /// preserved). A clone is indistinguishable from a database repopulated
  /// with the same seed; the dataset cache relies on that.
  Database clone() const {
    Database out;
    out.names_ = names_;
    out.catalogSig_ = catalogSig_;
    for (const auto& [name, t] : tables_) out.tables_.emplace(name, t->clone());
    return out;
  }

  /// Makes the current content the state rollback() returns to; from here
  /// on every table records its writes (Table::checkpoint).
  void checkpoint() {
    for (auto& [_, t] : tables_) t->checkpoint();
  }

  /// Undoes every write since checkpoint(). The database is then
  /// state-identical to the checkpoint, so a rolled-back copy of a cached
  /// prototype behaves exactly like a fresh clone of it.
  void rollback() {
    for (auto& [_, t] : tables_) t->rollback();
  }

  /// Table::disableKeys() on every table: the start of a bulk load.
  void disableKeys() {
    for (auto& [_, t] : tables_) t->disableKeys();
  }

  /// Table::enableKeys() on every table: the end of a bulk load, which
  /// builds every secondary index by one sort.
  void enableKeys() {
    for (auto& [_, t] : tables_) t->enableKeys();
  }

  Table& createTable(TableSchema schema) {
    const std::string name = schema.name;
    mixSchema(schema);
    auto [it, inserted] = tables_.emplace(name, std::make_unique<Table>(std::move(schema)));
    if (!inserted) throw std::runtime_error("table already exists: " + name);
    names_.push_back(name);
    return *it->second;
  }

  /// 64-bit digest of every schema created so far (names, column types,
  /// keys, indexes) — never of table contents. Query plans are pure
  /// functions of (SQL, catalog signature), so the plan cache keys on it:
  /// two databases with the same creation sequence (e.g. every clone of a
  /// cached dataset) share one plan. Maintained eagerly in createTable, not
  /// lazily, so concurrent readers need no synchronization.
  std::uint64_t catalogSignature() const noexcept { return catalogSig_; }

  Table& table(const std::string& name) {
    auto it = tables_.find(name);
    if (it == tables_.end()) throw std::runtime_error("no such table: " + name);
    return *it->second;
  }
  const Table& table(const std::string& name) const {
    auto it = tables_.find(name);
    if (it == tables_.end()) throw std::runtime_error("no such table: " + name);
    return *it->second;
  }
  bool hasTable(const std::string& name) const { return tables_.contains(name); }

  const std::vector<std::string>& tableNames() const noexcept { return names_; }

  /// Approximate bytes of live data across all tables.
  std::size_t approxBytes() const {
    std::size_t n = 0;
    for (const auto& [_, t] : tables_) n += t->approxBytes();
    return n;
  }

 private:
  // FNV-1a accumulation of schema structure into catalogSig_.
  void mix(std::uint64_t v) noexcept {
    catalogSig_ = (catalogSig_ ^ v) * 0x100000001b3ull;
  }
  void mixString(const std::string& s) noexcept {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
  void mixSchema(const TableSchema& schema) noexcept {
    mixString(schema.name);
    mix(schema.columns.size());
    for (const auto& col : schema.columns) {
      mixString(col.name);
      mix(static_cast<std::uint64_t>(col.type));
    }
    mix(schema.primaryKey ? *schema.primaryKey + 1 : 0);
    mix(schema.autoIncrement ? 1 : 0);
    mix(schema.secondaryIndexes.size());
    for (const std::size_t c : schema.secondaryIndexes) mix(c);
  }

  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<std::string> names_;
  std::uint64_t catalogSig_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

}  // namespace mwsim::db
