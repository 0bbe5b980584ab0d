/// Golden digests: simulated results pinned to committed values.
///
/// One miniature point runs for every (app, mix, configuration): the
/// bookstore's three mixes, the auction site's two and the bulletin
/// board's two, each on all six configurations. Three more points cover
/// the paths the paper's configurations do not: a two-replica
/// master/replica database, an open-loop run whose admission cap sheds,
/// and a web-replica crash and recovery under a request timeout.
///
/// Each point's simulated ExperimentResult fields are hashed with FNV-1a
/// over their bit patterns (the same digest perfbench prints), so any
/// change to a simulated number, however small, changes the digest. The
/// trace and the metrics report are observations, not results, and stay
/// out of that hash. The three extra points also pin their metrics report
/// in a second digest: every series' name, kind, capacity and samples, in
/// registration order, and the verdict. That holds the layout and values
/// of the instruments the components register (`db.read.*`, the write
/// stream, `lb/inflight.*`, `wl.*`) to committed values too. A change that
/// alters results on purpose updates the tables below: on a mismatch the
/// test prints every actual digest in the tables' own syntax.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "obs/report.hpp"

namespace mwsim::core {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hashUsage(Fnv1a& h, const std::vector<stats::MachineUsage>& rows) {
  h.u64(rows.size());
  for (const stats::MachineUsage& u : rows) {
    h.str(u.name);
    h.str(u.tier);
    h.u64(static_cast<std::uint64_t>(u.cores));
    h.f64(u.cpuUtilization);
    h.f64(u.nicMbps);
    h.f64(u.nicUtilization);
    h.u64(u.nicPackets);
    h.u64(static_cast<std::uint64_t>(u.memoryBytes));
  }
}

std::uint64_t digest(const ExperimentResult& r) {
  Fnv1a h;
  h.f64(r.throughputIpm);
  h.u64(r.interactions);
  h.u64(r.readWriteInteractions);
  h.u64(r.queries);
  h.f64(r.meanResponseSeconds);
  h.f64(r.p90ResponseSeconds);
  hashUsage(h, r.usage);
  hashUsage(h, r.tierUsage);
  h.u64(r.traffic.size());
  for (const auto& [link, traffic] : r.traffic) {
    h.str(link.first);
    h.str(link.second);
    h.u64(traffic.messages);
    h.u64(traffic.bytes);
    h.u64(traffic.packets);
  }
  h.u64(r.lockAcquisitions);
  h.u64(r.contendedLockAcquisitions);
  h.f64(r.lockWaitSeconds);
  h.f64(r.lockManagerWaitSeconds);
  h.u64(r.databaseBytes);
  h.u64(r.webErrors);
  h.u64(r.reroutedRequests);
  h.u64(r.timedOutRequests);
  h.u64(r.openLoopArrivals);
  h.u64(r.shedSessions);
  if (r.series) {
    h.u64(static_cast<std::uint64_t>(r.series->interval()));
    h.u64(r.series->buckets().size());
    for (const auto& b : r.series->buckets()) {
      h.u64(b.completions);
      h.u64(b.errors);
      h.u64(b.shed);
      h.f64(b.sumResponseSec);
      h.f64(b.maxResponseSec);
    }
  }
  return h.value();
}

template <typename T>
void hashSamples(Fnv1a& h, const std::vector<T>& samples) {
  h.u64(samples.size());
  for (const T v : samples) {
    if constexpr (std::is_floating_point_v<T>) {
      h.f64(v);
    } else {
      h.u64(static_cast<std::uint64_t>(v));
    }
  }
}

std::uint64_t metricsDigest(const obs::MetricsReport& m) {
  Fnv1a h;
  h.u64(static_cast<std::uint64_t>(m.period));
  h.u64(static_cast<std::uint64_t>(m.windowStart));
  h.u64(static_cast<std::uint64_t>(m.windowEnd));
  hashSamples(h, m.times);
  h.u64(m.utilization.size());
  for (const auto& s : m.utilization) {
    h.str(s.name);
    h.u64(static_cast<std::uint64_t>(s.kind));
    h.f64(s.capacity);
    hashSamples(h, s.cumulative);
  }
  h.u64(m.gauges.size());
  for (const auto& s : m.gauges) {
    h.str(s.name);
    hashSamples(h, s.values);
  }
  h.u64(m.counters.size());
  for (const auto& s : m.counters) {
    h.str(s.name);
    hashSamples(h, s.cumulative);
  }
  h.u64(m.little.size());
  for (const auto& s : m.little) {
    h.str(s.name);
    hashSamples(h, s.jobIntegral);
    hashSamples(h, s.completed);
    hashSamples(h, s.sojourn);
  }
  h.u64(m.histograms.size());
  for (const auto& s : m.histograms) {
    h.str(s.name);
    h.u64(s.count);
    for (const double v : {s.mean, s.p50, s.p90, s.p99, s.min, s.max}) h.f64(v);
  }
  const obs::Verdict& v = m.verdict;
  h.str(v.resource);
  h.u64(static_cast<std::uint64_t>(v.kind));
  h.f64(v.utilization);
  h.f64(v.plateauFraction);
  h.u64(v.saturated ? 1 : 0);
  h.str(v.dominant);
  h.str(v.note);
  h.u64(v.little.size());
  for (const obs::LittleRecord& r : v.little) {
    h.str(r.name);
    for (const double x : {r.L, r.lambda, r.W, r.relError}) h.f64(x);
  }
  return h.value();
}

ExperimentParams miniature(App app, int mix, Configuration config) {
  ExperimentParams base;
  base.app = app;
  base.mix = mix;
  base.rampUp = 3 * sim::kSecond;
  base.measure = 8 * sim::kSecond;
  base.rampDown = sim::kSecond;
  base.bookstoreScale = 0.02;
  base.auctionHistoryScale = 0.01;
  base.bbsHistoryScale = 0.01;
  // As the figure benches run; the report itself is not hashed.
  base.metrics.enabled = true;
  return pointParams(base, config, /*clients=*/40);
}

struct GoldenPoint {
  std::string name;
  ExperimentParams params;
  /// Also pin the attached metrics report (kExpectedMetrics).
  bool pinMetrics = false;
};

std::vector<GoldenPoint> goldenPoints() {
  std::vector<GoldenPoint> out;
  const struct {
    App app;
    const char* name;
    int mixes;
  } apps[] = {{App::Bookstore, "bookstore", 3},
              {App::Auction, "auction", 2},
              {App::BulletinBoard, "bbs", 2}};
  for (const auto& a : apps) {
    for (int mix = 0; mix < a.mixes; ++mix) {
      for (Configuration config : allConfigurations()) {
        out.push_back({std::string(a.name) + "/" + mixName(a.app, mix) + "/" +
                           configurationName(config),
                       miniature(a.app, mix, config)});
      }
    }
  }

  ExperimentParams replicated = miniature(App::Auction, 1, Configuration::WsPhpDb);
  Topology two = canonicalTopology(Configuration::WsPhpDb);
  two.db.replicas = 2;
  two.dbPolicy = mw::DbPolicy::MasterReplica;
  replicated.topology = two;
  out.push_back({"auction/bidding/db x2 master-replica", replicated, true});

  ExperimentParams open = miniature(App::Auction, 1, Configuration::WsPhpDb);
  open.scenario.mode = scenario::ArrivalMode::OpenLoop;
  open.scenario.arrivals = scenario::RateSchedule::constant(5.0);
  open.scenario.openThinkMean = sim::kSecond;
  open.scenario.maxInFlightSessions = 4;
  open.scenario.seriesInterval = 2 * sim::kSecond;
  out.push_back({"auction/bidding/open-loop shedding", open, true});

  ExperimentParams crash = miniature(App::Auction, 1, Configuration::WsPhpDb);
  crash.clients = 1500;  // the survivor saturates: reroutes, timeouts, errors
  Topology web2 = canonicalTopology(Configuration::WsPhpDb);
  web2.web.replicas = 2;
  crash.topology = web2;
  crash.scenario.events = {
      scenario::replicaCrash(5 * sim::kSecond, scenario::Tier::Web, 1),
      scenario::replicaRecover(8 * sim::kSecond, scenario::Tier::Web, 1),
  };
  crash.scenario.requestTimeout = sim::fromMillis(500);
  crash.scenario.requestRetries = 2;
  crash.scenario.seriesInterval = 2 * sim::kSecond;
  out.push_back({"auction/bidding/web x2 crash-recover", crash, true});
  return out;
}

// Generated by this test; see the file comment before editing.
const std::map<std::string, std::uint64_t> kExpected = {
    {"bookstore/browsing/WsPhp-DB", 0x95e7a93f0adbf19cULL},
    {"bookstore/browsing/WsServlet-DB", 0xd86a07e2d3f89defULL},
    {"bookstore/browsing/WsServlet-DB(sync)", 0x568113ebd41563a9ULL},
    {"bookstore/browsing/Ws-Servlet-DB", 0xda8350159c15053cULL},
    {"bookstore/browsing/Ws-Servlet-DB(sync)", 0xe314dc82c689c692ULL},
    {"bookstore/browsing/Ws-Servlet-EJB-DB", 0x46fb65c197721b75ULL},
    {"bookstore/shopping/WsPhp-DB", 0x6ef09dc2fb9c11f8ULL},
    {"bookstore/shopping/WsServlet-DB", 0xe995b588794aa214ULL},
    {"bookstore/shopping/WsServlet-DB(sync)", 0x3b1816506f8aa7f4ULL},
    {"bookstore/shopping/Ws-Servlet-DB", 0x08904a56a69af748ULL},
    {"bookstore/shopping/Ws-Servlet-DB(sync)", 0x2262276059e4a4ccULL},
    {"bookstore/shopping/Ws-Servlet-EJB-DB", 0x868aa341dff66979ULL},
    {"bookstore/ordering/WsPhp-DB", 0x77a9f869e3cec740ULL},
    {"bookstore/ordering/WsServlet-DB", 0x1d58e9ea06aa179eULL},
    {"bookstore/ordering/WsServlet-DB(sync)", 0x0fffe694d8907e5eULL},
    {"bookstore/ordering/Ws-Servlet-DB", 0x3d8be0375190cb1bULL},
    {"bookstore/ordering/Ws-Servlet-DB(sync)", 0xe7fb1cba06eeca4cULL},
    {"bookstore/ordering/Ws-Servlet-EJB-DB", 0x510a4edc888c4111ULL},
    {"auction/browsing/WsPhp-DB", 0xd008d67db96b8385ULL},
    {"auction/browsing/WsServlet-DB", 0x9bd0b600a35e92eeULL},
    {"auction/browsing/WsServlet-DB(sync)", 0x1a255b05d41d11bdULL},
    {"auction/browsing/Ws-Servlet-DB", 0x7904bd4d5d22a1e4ULL},
    {"auction/browsing/Ws-Servlet-DB(sync)", 0x50092ce2797cb1b9ULL},
    {"auction/browsing/Ws-Servlet-EJB-DB", 0x1168b75b717139adULL},
    {"auction/bidding/WsPhp-DB", 0xc6f37053ce6544bcULL},
    {"auction/bidding/WsServlet-DB", 0x0eba7197f5eff6a0ULL},
    {"auction/bidding/WsServlet-DB(sync)", 0x5b31a807e1861d14ULL},
    {"auction/bidding/Ws-Servlet-DB", 0x11a9d4c48e2d3918ULL},
    {"auction/bidding/Ws-Servlet-DB(sync)", 0x8018d7891ad20612ULL},
    {"auction/bidding/Ws-Servlet-EJB-DB", 0xff70c5fe76d126feULL},
    {"bbs/browsing/WsPhp-DB", 0xf693fe6979ad103eULL},
    {"bbs/browsing/WsServlet-DB", 0xb0329db4709e67beULL},
    {"bbs/browsing/WsServlet-DB(sync)", 0x009931101e653a75ULL},
    {"bbs/browsing/Ws-Servlet-DB", 0x4bcdc5d050ed8921ULL},
    {"bbs/browsing/Ws-Servlet-DB(sync)", 0x2395b52127561db5ULL},
    {"bbs/browsing/Ws-Servlet-EJB-DB", 0x0e34fd63b97b2389ULL},
    {"bbs/submission/WsPhp-DB", 0xb92d6d0d85a7699fULL},
    {"bbs/submission/WsServlet-DB", 0xbc4c95f0a1db51eaULL},
    {"bbs/submission/WsServlet-DB(sync)", 0xdabd298726c801caULL},
    {"bbs/submission/Ws-Servlet-DB", 0x45750096498b647fULL},
    {"bbs/submission/Ws-Servlet-DB(sync)", 0x7ce7b654d51a0af5ULL},
    {"bbs/submission/Ws-Servlet-EJB-DB", 0xb361b3a1b06fe9a9ULL},
    {"auction/bidding/db x2 master-replica", 0x2eca5a9700037110ULL},
    {"auction/bidding/open-loop shedding", 0x3df40a6673e560fcULL},
    {"auction/bidding/web x2 crash-recover", 0x551b611d06a9efefULL},
};

// Generated by this test, like kExpected.
const std::map<std::string, std::uint64_t> kExpectedMetrics = {
    {"auction/bidding/db x2 master-replica", 0xaacded77cdc3deaeULL},
    {"auction/bidding/open-loop shedding", 0xc7896b2abe2d08beULL},
    {"auction/bidding/web x2 crash-recover", 0xbe5a69c185513bf1ULL},
};

/// Compares `actual` with the committed digest of `name` in `expected`,
/// appending the table line for it to `table`; false on a mismatch.
bool checkDigest(const std::map<std::string, std::uint64_t>& expected,
                 const std::string& name, std::uint64_t actual, std::string& table) {
  char line[160];
  std::snprintf(line, sizeof line, "    {\"%s\", 0x%016" PRIx64 "ULL},\n", name.c_str(),
                actual);
  table += line;
  const auto it = expected.find(name);
  if (it != expected.end() && it->second == actual) return true;
  ADD_FAILURE() << name << ": digest " << std::hex << actual
                << (it == expected.end() ? " has no committed value"
                                         : " differs from the committed one");
  return false;
}

TEST(GoldenDigestTest, EveryPointMatchesItsCommittedDigest) {
  const std::vector<GoldenPoint> points = goldenPoints();
  std::vector<ExperimentParams> params;
  for (const GoldenPoint& p : points) params.push_back(p.params);
  SweepOptions opts;
  opts.jobs = 2;
  const std::vector<ExperimentResult> results = runMany(params, opts);

  std::string table;
  std::string metricsTable;
  bool mismatch = points.size() != kExpected.size();
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    mismatch = !checkDigest(kExpected, points[i].name, digest(results[i]), table) || mismatch;
    if (!points[i].pinMetrics) continue;
    ++pinned;
    ASSERT_NE(results[i].metrics, nullptr) << points[i].name;
    mismatch = !checkDigest(kExpectedMetrics, points[i].name,
                            metricsDigest(*results[i].metrics), metricsTable) ||
               mismatch;
  }
  EXPECT_EQ(points.size(), kExpected.size());
  EXPECT_EQ(pinned, kExpectedMetrics.size());
  if (mismatch) {
    ADD_FAILURE() << "actual digests:\n" << table << "actual metrics digests:\n"
                  << metricsTable;
  }
}

}  // namespace
}  // namespace mwsim::core
