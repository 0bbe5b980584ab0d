#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>

namespace mwsim::db {

/// A single SQL value: NULL, 64-bit integer, double, or string.
///
/// Integers and doubles compare numerically against each other (MySQL-style
/// weak numeric typing); NULL compares equal only to NULL and sorts first.
class Value {
 public:
  Value() noexcept : v_(std::monostate{}) {}
  Value(std::int64_t i) noexcept : v_(i) {}                 // NOLINT(google-explicit-constructor)
  Value(int i) noexcept : v_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(double d) noexcept : v_(d) {}                       // NOLINT
  Value(std::string s) noexcept : v_(std::move(s)) {}       // NOLINT
  Value(const char* s) : v_(std::string(s)) {}              // NOLINT

  bool isNull() const noexcept { return std::holds_alternative<std::monostate>(v_); }
  bool isInt() const noexcept { return std::holds_alternative<std::int64_t>(v_); }
  bool isDouble() const noexcept { return std::holds_alternative<double>(v_); }
  bool isString() const noexcept { return std::holds_alternative<std::string>(v_); }
  bool isNumeric() const noexcept { return isInt() || isDouble(); }

  /// Integer content; numeric values are converted. Throws on strings/NULL.
  std::int64_t asInt() const;
  /// Double content; numeric values are converted. Throws on strings/NULL.
  double asDouble() const;
  /// String content. Throws unless the value is a string.
  const std::string& asString() const;

  /// Renders the value for embedding into generated HTML / debugging.
  std::string toDisplayString() const;

  /// Three-way comparison: NULL < numbers < strings; numbers compare
  /// numerically across int/double. The int–int case, which sort keys and
  /// index probes hit most, is inline.
  int compare(const Value& other) const {
    const auto* a = std::get_if<std::int64_t>(&v_);
    const auto* b = std::get_if<std::int64_t>(&other.v_);
    if (a != nullptr && b != nullptr) return *a < *b ? -1 : (*a > *b ? 1 : 0);
    return compareMixed(other);
  }

  bool operator==(const Value& other) const { return compare(other) == 0; }
  bool operator!=(const Value& other) const { return compare(other) != 0; }
  bool operator<(const Value& other) const { return compare(other) < 0; }
  bool operator<=(const Value& other) const { return compare(other) <= 0; }
  bool operator>(const Value& other) const { return compare(other) > 0; }
  bool operator>=(const Value& other) const { return compare(other) >= 0; }

  std::size_t hash() const;

  /// Approximate in-memory/wire size in bytes, used for transfer costing.
  std::size_t byteSize() const;

 private:
  int compareMixed(const Value& other) const;

  std::variant<std::monostate, std::int64_t, double, std::string> v_;
};

}  // namespace mwsim::db
