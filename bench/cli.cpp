#include "bench/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>

namespace mwsim::cli {

namespace {

std::terminate_handler previousTerminate = nullptr;

[[noreturn]] void terminateOnInvalidArgument() {
  try {
    if (const std::exception_ptr e = std::current_exception()) std::rethrow_exception(e);
  } catch (const std::invalid_argument& error) {
    // _Exit: other threads may still be running, so no static destructors.
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", error.what());
    std::_Exit(2);
  } catch (...) {
  }
  previousTerminate();
  std::abort();
}

}  // namespace

Parser::Outcome Parser::read(int argc, const char* const* argv) {
  Outcome outcome;
  const auto fail = [&outcome](std::string error) {
    outcome.error = std::move(error);
    return outcome;
  };
  std::vector<bool> seen(flags_.size(), false);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      outcome.help = true;
      continue;
    }
    const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                   [&](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      return fail(arg.starts_with("-") ? "unknown flag " + std::string(arg) + " (see --help)"
                                       : "unexpected argument '" + std::string(arg) + "'");
    }
    const auto index = static_cast<std::size_t>(flag - flags_.begin());
    if (seen[index]) return fail(flag->name + " given twice");
    seen[index] = true;
    if (flag->metavar.empty()) {
      flag->set({});
    } else if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
      return fail(flag->name + " needs " + flag->expects);
    } else if (!flag->set(argv[++i])) {
      return fail(flag->name + " needs " + flag->expects + ", got '" + argv[i] + "'");
    }
  }
  for (const auto& rule : rules_) {
    if (std::string error = rule(); !error.empty()) return fail(std::move(error));
  }
  return outcome;
}

std::string Parser::usage(std::string_view program) const {
  std::string out = "usage: " + std::string(program) + " [options]\n" + summary_ + "\n\n";
  const auto line = [&out](std::string left, const std::string& help) {
    left.insert(0, "  ");
    // Help starts in column 26, on the next line after a long metavar.
    left += left.size() < 25 ? std::string(26 - left.size(), ' ') : "\n" + std::string(26, ' ');
    out += left + help + "\n";
  };
  for (const Flag& flag : flags_) {
    line(flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar,
         flag.defaultText.empty() ? flag.help : flag.help + " (default " + flag.defaultText + ")");
  }
  line("--help", "print this help and exit");
  return out;
}

void Parser::parse(int argc, char** argv) {
  const Outcome outcome = read(argc, argv);
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "error: %s\n", outcome.error.c_str());
    std::exit(2);
  }
  if (outcome.help) {
    const std::string_view path = argc > 0 ? argv[0] : "";
    std::fputs(usage(path.substr(path.find_last_of('/') + 1)).c_str(), stdout);
    std::exit(0);
  }
  previousTerminate = std::set_terminate(terminateOnInvalidArgument);
}

}  // namespace mwsim::cli
