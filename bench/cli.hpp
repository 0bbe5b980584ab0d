#pragma once

/// The command-line parser of every bench and example. A binary declares
/// each flag it reads: its name, the variable it fills and one help line.
/// The variable's type picks the kind of value, and its value at declaration
/// is the default that --help prints. Anything else is an error: an
/// undeclared flag, a missing or malformed value, a stray positional
/// argument or a flag given twice.

#include <charconv>
#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace mwsim::cli {

namespace detail {

template <class T>
concept Number = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

/// Fills `out` only when from_chars reads all of `text` (so not an empty
/// one) and a floating-point result is finite; unsigned rejects a minus sign.
template <Number T>
bool readNumber(std::string_view text, T& out) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || !std::isfinite(double(value))) {
    return false;
  }
  out = value;
  return true;
}

/// A comma list of numbers; an empty item fails like any malformed one.
template <Number T>
bool readList(std::string_view text, std::vector<T>& out) {
  std::vector<T> values;
  for (;;) {
    const std::size_t comma = text.find(',');
    if (!readNumber(text.substr(0, comma), values.emplace_back())) return false;
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  out = std::move(values);
  return true;
}

/// A default as --help prints it. Streams print six significant digits, so
/// a default converted from nanoseconds (60.00000000000001) prints as 60.
template <class T>
std::string show(const T& value) {
  std::ostringstream out;
  if constexpr (Number<T>) {
    out << value;
  } else {
    for (const auto& item : value) out << (out.tellp() > 0 ? "," : "") << item;
  }
  return out.str();
}

}  // namespace detail

class Parser {
 public:
  /// `summary` is the binary's one-line description, printed by --help.
  explicit Parser(std::string summary) : summary_(std::move(summary)) {}

  /// A number (floating-point target) or a whole number (integral target).
  template <detail::Number T>
  Parser& add(std::string name, T& target, std::string help) {
    return declare({std::move(name), std::is_integral_v<T> ? "N" : "X", std::move(help),
                    detail::show(target),
                    std::is_floating_point_v<T> ? "a number"
                    : std::is_unsigned_v<T>     ? "a whole number >= 0"
                                                : "a whole number",
                    [&target](std::string_view text) { return detail::readNumber(text, target); }});
  }

  /// A comma list of numbers or whole numbers.
  template <detail::Number T>
  Parser& add(std::string name, std::vector<T>& target, std::string help) {
    return declare({std::move(name), std::is_integral_v<T> ? "N,..." : "X,...", std::move(help),
                    detail::show(target),
                    std::is_integral_v<T> ? "a comma list of whole numbers"
                                          : "a comma list of numbers",
                    [&target](std::string_view text) { return detail::readList(text, target); }});
  }

  /// A file path: any non-empty text.
  Parser& add(std::string name, std::string& target, std::string help) {
    return declare({std::move(name), "PATH", std::move(help), target, "a non-empty path",
                    [&target](std::string_view text) {
                      if (!text.empty()) target = text;
                      return !text.empty();
                    }});
  }

  /// A switch: takes no value and sets `target`.
  Parser& add(std::string name, bool& target, std::string help) {
    return declare({std::move(name), "", std::move(help), "", "",
                    [&target](std::string_view) { return target = true; }});
  }

  /// One of the names in `options`; fills `target` with the value paired
  /// with it. --help shows the name paired with `target`'s value as default.
  template <class T>
  Parser& choice(std::string name, T& target, std::vector<std::pair<std::string, T>> options,
                 std::string help) {
    std::string names;
    std::string shown;
    for (const auto& [option, value] : options) {
      names += (names.empty() ? "" : "|") + option;
      if (shown.empty() && value == target) shown = option;
    }
    return declare({std::move(name), names, std::move(help), shown, "one of " + names,
                    [&target, options = std::move(options)](std::string_view text) {
                      for (const auto& [option, value] : options) {
                        if (text != option) continue;
                        target = value;
                        return true;
                      }
                      return false;
                    }});
  }

  /// One of `options`, kept as text.
  Parser& choice(std::string name, std::string& target, const std::vector<std::string>& options,
                 std::string help) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const std::string& option : options) pairs.emplace_back(option, option);
    return choice(std::move(name), target, std::move(pairs), std::move(help));
  }

  /// A rule over several flags' values, run after every token is read and
  /// before --help is honoured; it returns the error, or "" when none.
  Parser& check(std::function<std::string()> rule) {
    rules_.push_back(std::move(rule));
    return *this;
  }

  struct Outcome {
    std::string error;  // the first error; empty when the command line is valid
    bool help = false;  // --help was given
  };

  /// Reads argv[1..argc) into the declared variables, checking every token
  /// whether or not --help is among them.
  Outcome read(int argc, const char* const* argv);

  /// The --help text for the binary named `program`.
  std::string usage(std::string_view program) const;

  /// read(), then ends the program on an error (`error: <message>` on
  /// stderr, exit status 2) or after printing usage() for --help (status 0).
  /// From then on a std::invalid_argument escaping main ends it the same
  /// way: the simulator's validators throw it for values the flags set.
  void parse(int argc, char** argv);

 private:
  struct Flag {
    std::string name;
    std::string metavar;  // empty for a switch
    std::string help;
    std::string defaultText;
    std::string expects;  // what a value must be, for error messages
    std::function<bool(std::string_view)> set;
  };

  Parser& declare(Flag flag) {
    flags_.push_back(std::move(flag));
    return *this;
  }

  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<std::function<std::string()>> rules_;
};

}  // namespace mwsim::cli
