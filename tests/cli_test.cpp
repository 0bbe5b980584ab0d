// The declared-flag parser every bench and example uses (bench/cli.hpp),
// and the common bench flags the harness declares on it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "bench/harness.hpp"

namespace mwsim {
namespace {

enum class Policy { Master, Shard };

/// Every value kind, with the defaults a bench would give them.
struct Flags {
  double measureSec = 60;
  int delta = -3;
  std::uint64_t seed = 1;
  std::string out;
  Policy policy = Policy::Master;
  std::vector<double> surges{1, 2.5};
  std::vector<int> replicas{1, 2, 4};
  std::string scenario;
  bool quick = false;

  cli::Parser parser{"Test binary summary"};

  // The parser holds references to the fields above.
  Flags(const Flags&) = delete;
  Flags& operator=(const Flags&) = delete;
  Flags() {
    parser.add("--measure-sec", measureSec, "measurement window")
        .add("--delta", delta, "signed whole number")
        .add("--seed", seed, "unsigned whole number")
        .add("--out", out, "output file")
        .choice("--policy", policy, {{"master", Policy::Master}, {"shard", Policy::Shard}},
                "routing policy")
        .add("--surge", surges, "number list")
        .add("--replicas", replicas, "whole-number list")
        .choice("--scenario", scenario, {"alpha", "beta"}, "text choice")
        .add("--quick", quick, "a switch");
  }

  cli::Parser::Outcome read(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return parser.read(static_cast<int>(args.size()), args.data());
  }
};

TEST(CliParserTest, ReadsEveryValueKind) {
  Flags f;
  const auto outcome =
      f.read({"--measure-sec", "2.5", "--delta", "-7", "--seed", "18446744073709551615",
              "--out", "m.json", "--policy", "shard", "--surge", "1,6.5", "--replicas", "3",
              "--scenario", "beta", "--quick"});
  ASSERT_EQ(outcome.error, "");
  EXPECT_FALSE(outcome.help);
  EXPECT_EQ(f.measureSec, 2.5);
  EXPECT_EQ(f.delta, -7);
  EXPECT_EQ(f.seed, UINT64_MAX);
  EXPECT_EQ(f.out, "m.json");
  EXPECT_EQ(f.policy, Policy::Shard);
  EXPECT_EQ(f.surges, (std::vector<double>{1, 6.5}));
  EXPECT_EQ(f.replicas, (std::vector<int>{3}));
  EXPECT_EQ(f.scenario, "beta");
  EXPECT_TRUE(f.quick);
}

TEST(CliParserTest, AbsentFlagsKeepTheirDefaults) {
  Flags f;
  ASSERT_EQ(f.read({}).error, "");
  EXPECT_EQ(f.measureSec, 60);
  EXPECT_EQ(f.delta, -3);
  EXPECT_EQ(f.seed, 1u);
  EXPECT_EQ(f.out, "");
  EXPECT_EQ(f.policy, Policy::Master);
  EXPECT_EQ(f.replicas, (std::vector<int>{1, 2, 4}));
  EXPECT_FALSE(f.quick);
}

TEST(CliParserTest, RejectsBadInputNamingTheFlag) {
  struct Case {
    std::vector<const char*> args;
    std::string error;
  };
  const std::vector<Case> cases{
      {{"--measure-sec", "abc"}, "--measure-sec needs a number, got 'abc'"},
      {{"--measure-sec", "1x"}, "--measure-sec needs a number, got '1x'"},
      {{"--measure-sec", ""}, "--measure-sec needs a number, got ''"},
      {{"--measure-sec", "nan"}, "--measure-sec needs a number, got 'nan'"},
      {{"--measure-sec", "inf"}, "--measure-sec needs a number, got 'inf'"},
      {{"--measure-sec"}, "--measure-sec needs a number"},
      {{"--measure-sec", "--quick"}, "--measure-sec needs a number"},
      {{"--delta", "1.5"}, "--delta needs a whole number, got '1.5'"},
      {{"--delta", "99999999999"}, "--delta needs a whole number, got '99999999999'"},
      {{"--seed", "-1"}, "--seed needs a whole number >= 0, got '-1'"},
      {{"--out", ""}, "--out needs a non-empty path, got ''"},
      {{"--replicas", "1,,2"}, "--replicas needs a comma list of whole numbers, got '1,,2'"},
      {{"--replicas", "1,x"}, "--replicas needs a comma list of whole numbers, got '1,x'"},
      {{"--surge", "1,"}, "--surge needs a comma list of numbers, got '1,'"},
      {{"--policy", "sharded"}, "--policy needs one of master|shard, got 'sharded'"},
      {{"--scenario", "gamma"}, "--scenario needs one of alpha|beta, got 'gamma'"},
      {{"extra"}, "unexpected argument 'extra'"},
      {{"--seed", "1", "--seed", "2"}, "--seed given twice"},
      {{"--measure-secs", "1"}, "unknown flag --measure-secs (see --help)"},
      {{"--quick", "1"}, "unexpected argument '1'"},
  };
  for (const Case& c : cases) {
    Flags f;
    EXPECT_EQ(f.read(c.args).error, c.error) << c.args.front();
  }
}

TEST(CliParserTest, HelpPrintsUsageSummaryAndEveryDefault) {
  Flags f;
  const auto outcome = f.read({"--help"});
  EXPECT_EQ(outcome.error, "");
  EXPECT_TRUE(outcome.help);
  EXPECT_EQ(f.parser.usage("prog"),
            "usage: prog [options]\n"
            "Test binary summary\n"
            "\n"
            "  --measure-sec X         measurement window (default 60)\n"
            "  --delta N               signed whole number (default -3)\n"
            "  --seed N                unsigned whole number (default 1)\n"
            "  --out PATH              output file\n"
            "  --policy master|shard   routing policy (default master)\n"
            "  --surge X,...           number list (default 1,2.5)\n"
            "  --replicas N,...        whole-number list (default 1,2,4)\n"
            "  --scenario alpha|beta   text choice\n"
            "  --quick                 a switch\n"
            "  --help                  print this help and exit\n");
}

TEST(CliParserTest, HelpStillChecksEveryOtherToken) {
  Flags before;
  const auto badFirst = before.read({"--seed", "x", "--help"});
  EXPECT_EQ(badFirst.error, "--seed needs a whole number >= 0, got 'x'");
  Flags after;
  const auto helpFirst = after.read({"--help", "--bogus"});
  EXPECT_TRUE(helpFirst.help);
  EXPECT_EQ(helpFirst.error, "unknown flag --bogus (see --help)");
}

TEST(CliParserTest, CheckRulesRunBeforeHelp) {
  Flags f;
  f.parser.check([&] { return f.quick && f.out.empty() ? "--quick needs --out" : ""; });
  EXPECT_EQ(f.read({"--quick", "--help"}).error, "--quick needs --out");
  Flags ok;
  ok.parser.check([&] { return ok.quick && ok.out.empty() ? "--quick needs --out" : ""; });
  EXPECT_EQ(ok.read({"--quick", "--out", "x", "--help"}).error, "");
}

cli::Parser::Outcome readBench(bench::BenchOptions& opts, unsigned extra,
                               std::vector<const char*> args) {
  cli::Parser parser("bench");
  opts.declare(parser, extra);
  args.insert(args.begin(), "bench");
  return parser.read(static_cast<int>(args.size()), args.data());
}

TEST(BenchOptionsTest, DeclaresOnlyTheCommonFlagsABenchReads) {
  bench::BenchOptions plain;
  EXPECT_EQ(readBench(plain, 0, {"--quick"}).error, "unknown flag --quick (see --help)");
  EXPECT_EQ(readBench(plain, 0, {"--csv"}).error, "unknown flag --csv (see --help)");
  bench::BenchOptions figure;
  const auto outcome = readBench(
      figure, bench::kQuick | bench::kCsv,
      {"--quick", "--csv", "--measure-sec", "10", "--rampup-sec", "5", "--seed", "3",
       "--jobs", "0", "--full-scale"});
  ASSERT_EQ(outcome.error, "");
  EXPECT_TRUE(figure.quick);
  EXPECT_TRUE(figure.csv);
  EXPECT_EQ(figure.measureSec, 10);
  EXPECT_EQ(figure.rampUpSec, 5);
  EXPECT_EQ(figure.seed, 3u);
  EXPECT_EQ(figure.jobs, 0u);
  EXPECT_TRUE(figure.fullScale);
}

TEST(BenchOptionsTest, RejectsNegativeJobsAndConflictingMetricsFlags) {
  bench::BenchOptions jobs;
  EXPECT_EQ(readBench(jobs, 0, {"--jobs", "-1"}).error,
            "--jobs needs a whole number >= 0, got '-1'");
  bench::BenchOptions metrics;
  EXPECT_EQ(readBench(metrics, bench::kMetricsOut | bench::kNoMetrics,
                      {"--no-metrics", "--metrics-out", "m.json", "--help"})
                .error,
            "--no-metrics and --metrics-out conflict: --metrics-out writes the report that "
            "--no-metrics drops");
}

TEST(BenchOptionsTest, FullScaleSetsEveryDatasetScale) {
  bench::FigureSpec spec;
  spec.app = core::App::BulletinBoard;
  spec.mix = 1;
  bench::BenchOptions opts;
  const core::ExperimentParams defaults;
  const core::ExperimentParams small = opts.baseParams(spec);
  EXPECT_EQ(small.bookstoreScale, defaults.bookstoreScale);
  EXPECT_EQ(small.auctionHistoryScale, defaults.auctionHistoryScale);
  EXPECT_EQ(small.bbsHistoryScale, defaults.bbsHistoryScale);
  EXPECT_LT(small.datasetScale(), 1.0);
  opts.fullScale = true;
  const core::ExperimentParams full = opts.baseParams(spec);
  EXPECT_EQ(full.bookstoreScale, 1.0);
  EXPECT_EQ(full.auctionHistoryScale, 1.0);
  EXPECT_EQ(full.bbsHistoryScale, 1.0);
  EXPECT_EQ(full.datasetScale(), 1.0);
}

}  // namespace
}  // namespace mwsim
