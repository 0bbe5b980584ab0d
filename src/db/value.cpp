#include "db/value.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace mwsim::db {

std::int64_t Value::asInt() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const auto* d = std::get_if<double>(&v_)) return static_cast<std::int64_t>(*d);
  throw std::runtime_error("Value::asInt on non-numeric value");
}

double Value::asDouble() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*i);
  throw std::runtime_error("Value::asDouble on non-numeric value");
}

const std::string& Value::asString() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  throw std::runtime_error("Value::asString on non-string value");
}

std::string Value::toDisplayString() const {
  if (isNull()) return "NULL";
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v_)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", *d);
    return buf;
  }
  return std::get<std::string>(v_);
}

namespace {
// Type ranks for cross-type ordering: NULL < numeric < string.
int rank(const Value& v) {
  if (v.isNull()) return 0;
  if (v.isNumeric()) return 1;
  return 2;
}
}  // namespace

// Every pairing but int–int, which compare() settles inline.
int Value::compareMixed(const Value& other) const {
  const int ra = rank(*this);
  const int rb = rank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;  // NULL == NULL for ordering purposes
    case 1: {
      const double a = asDouble();
      const double b = other.asDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      const int c = asString().compare(other.asString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

std::size_t Value::hash() const {
  if (isNull()) return 0x9E3779B9u;
  if (isString()) return std::hash<std::string>{}(std::get<std::string>(v_));
  // Hash ints and integral doubles identically so 1 and 1.0 probe the same
  // bucket (they compare equal).
  if (isInt()) return std::hash<std::int64_t>{}(std::get<std::int64_t>(v_));
  const double d = std::get<double>(v_);
  const double r = std::nearbyint(d);
  if (r == d) return std::hash<std::int64_t>{}(static_cast<std::int64_t>(r));
  return std::hash<double>{}(d);
}

std::size_t Value::byteSize() const {
  if (isNull()) return 1;
  if (isString()) return std::get<std::string>(v_).size();
  return 8;
}

}  // namespace mwsim::db
