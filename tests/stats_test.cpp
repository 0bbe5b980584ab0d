#include <gtest/gtest.h>

#include "net/machine.hpp"
#include "net/network.hpp"
#include "sim/sim.hpp"
#include "stats/histogram.hpp"
#include "stats/report.hpp"

namespace mwsim {
namespace {

using sim::Task;

// --------------------------------------------------------------- Histogram

TEST(HistogramTest, CountMeanMinMax) {
  stats::Histogram h;
  h.record(0.010);
  h.record(0.020);
  h.record(0.030);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.mean(), 0.020, 1e-9);
  EXPECT_NEAR(h.min(), 0.010, 1e-9);
  EXPECT_NEAR(h.max(), 0.030, 1e-9);
}

TEST(HistogramTest, PercentilesAreOrdered) {
  stats::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 0.001);
  const double p50 = h.percentile(50);
  const double p90 = h.percentile(90);
  const double p99 = h.percentile(99);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  EXPECT_NEAR(p50, 0.5, 0.05);
  EXPECT_NEAR(p90, 0.9, 0.09);
}

TEST(HistogramTest, PercentileZeroIsRecordedMin) {
  stats::Histogram h;
  h.record(0.250);
  h.record(0.500);
  h.record(0.750);
  EXPECT_NEAR(h.percentile(0), 0.250, 1e-12);
  EXPECT_NEAR(h.percentile(-5), 0.250, 1e-12);  // out-of-range clamps too
}

TEST(HistogramTest, PercentileClampedToRecordedRange) {
  // The raw upper bound of the last occupied bucket can exceed the largest
  // recorded value by up to the bucket width (~4.6%); the estimate must
  // never leave [min, max].
  stats::Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(1.0);
  EXPECT_NEAR(h.percentile(100), 1.0, 1e-12);
  EXPECT_NEAR(h.percentile(99), 1.0, 1e-12);
  EXPECT_NEAR(h.percentile(50), 1.0, 1e-12);
  // A two-point distribution: every percentile stays within the range.
  stats::Histogram h2;
  h2.record(0.010);
  h2.record(0.020);
  for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_GE(h2.percentile(p), 0.010);
    EXPECT_LE(h2.percentile(p), 0.020);
  }
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  stats::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(99), 0.0);
}

TEST(HistogramTest, ClearResets) {
  stats::Histogram h;
  h.record(1.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
}

TEST(HistogramTest, WideRangeValues) {
  stats::Histogram h;
  h.record(2e-6);
  h.record(100.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.percentile(99), 50.0);
}

// -------------------------------------------------------------------- Nic

TEST(NicTest, SerializationTime) {
  sim::Simulation simulation;
  net::Nic nic(simulation, 100e6, "test");
  // 12,500 bytes = 100,000 bits = 1 ms at 100 Mb/s.
  EXPECT_EQ(nic.serializationTime(12'500), sim::kMillisecond);
}

TEST(NicTest, PacketsForPayload) {
  EXPECT_EQ(net::Nic::packetsFor(0), 1u);
  EXPECT_EQ(net::Nic::packetsFor(100), 1u);
  EXPECT_EQ(net::Nic::packetsFor(1460), 1u);
  EXPECT_EQ(net::Nic::packetsFor(1461), 2u);
  EXPECT_EQ(net::Nic::packetsFor(14'600), 10u);
}

TEST(NicTest, TransfersQueueFifo) {
  sim::Simulation simulation;
  net::Nic nic(simulation, 100e6, "test");
  sim::SimTime firstDone = 0;
  sim::SimTime secondDone = 0;
  simulation.spawn([](net::Nic& n, sim::Simulation& s, sim::SimTime& out) -> Task<> {
    co_await n.transfer(12'500);  // 1 ms
    out = s.now();
  }(nic, simulation, firstDone));
  simulation.spawn([](net::Nic& n, sim::Simulation& s, sim::SimTime& out) -> Task<> {
    co_await n.transfer(12'500);
    out = s.now();
  }(nic, simulation, secondDone));
  simulation.run();
  EXPECT_EQ(firstDone, sim::kMillisecond);
  EXPECT_EQ(secondDone, 2 * sim::kMillisecond);  // serialized behind the first
  EXPECT_EQ(nic.bytesTransferred(), 25'000u);
}

// ----------------------------------------------------------------- Network

TEST(NetworkTest, TrafficMatrixRecordsBothDirections) {
  sim::Simulation simulation;
  net::Network network(simulation);
  net::Machine a(simulation, "a");
  net::Machine b(simulation, "b");
  simulation.spawn([](net::Network& n, net::Machine& a, net::Machine& b) -> Task<> {
    co_await n.send(a, b, 1000);
    co_await n.send(b, a, 500);
    co_await n.send(a, b, 2000);
  }(network, a, b));
  simulation.run();
  EXPECT_EQ(network.traffic(a, b).bytes, 3000u);
  EXPECT_EQ(network.traffic(a, b).messages, 2u);
  EXPECT_EQ(network.traffic(b, a).bytes, 500u);
  EXPECT_EQ(network.trafficBetween(a, b).bytes, 3500u);
  EXPECT_EQ(network.trafficBetween(a, b).packets, 4u);
}

TEST(NetworkTest, TransferTimeIncludesBothNicsAndPropagation) {
  sim::Simulation simulation;
  net::Network network(simulation, sim::fromMicros(100));
  net::Machine a(simulation, "a");
  net::Machine b(simulation, "b");
  sim::SimTime done = 0;
  simulation.spawn([](net::Network& n, net::Machine& a, net::Machine& b,
                      sim::Simulation& s, sim::SimTime& out) -> Task<> {
    co_await n.send(a, b, 12'500);  // 1 ms serialization per NIC
    out = s.now();
  }(network, a, b, simulation, done));
  simulation.run();
  EXPECT_EQ(done, 2 * sim::kMillisecond + sim::fromMicros(100));
}

// ------------------------------------------------------------------ Report

TEST(ReportTest, TextTableAligns) {
  stats::TextTable t({"name", "value"});
  t.addRow({"a", "1"});
  t.addRow({"longer-name", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  // All lines of a column start at the same offset: check header/row align.
  const auto lines = [&] {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
      auto nl = s.find('\n', pos);
      out.push_back(s.substr(pos, nl - pos));
      pos = nl + 1;
    }
    return out;
  }();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[1].find('-'), 0u);
}

TEST(ReportTest, CsvEscapesQuotesAndCommas) {
  stats::CsvWriter w({"a", "b"});
  w.addRow({"plain", "with,comma"});
  w.addRow({"quote\"inside", "x"});
  const std::string s = w.str();
  EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(stats::fmt(1.234, 2), "1.23");
  EXPECT_EQ(stats::fmtInt(42), "42");
  EXPECT_EQ(stats::fmtPct(0.985), "98.5%");
}

}  // namespace
}  // namespace mwsim

