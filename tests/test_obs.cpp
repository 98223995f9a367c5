// Observability layer (src/obs/): IntervalAccount overlap accounting,
// deadline-miss classification, attribution invariants on real serve and
// node sessions, trace determinism + Chrome-JSON validity, the metrics
// registry, and stats JSON round-trips.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/node.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/stats.hpp"
#include "serve/traffic.hpp"

namespace rt3 {
namespace {

// ---------------------------------------------------------------------
// Minimal strict JSON syntax checker (objects, arrays, strings, numbers,
// literals).  The repo emits JSON by hand, so tests validate the full
// grammar rather than trusting substring checks alone.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    i_ = 0;
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) {
      return false;
    }
    switch (s_[i_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++i_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++i_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      if (peek() == '}') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++i_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      if (peek() == ']') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') {
      return false;
    }
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) {
          return false;
        }
      }
      ++i_;
    }
    if (i_ >= s_.size()) {
      return false;
    }
    ++i_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') {
      ++i_;
    }
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }

  bool literal(const std::string& word) {
    if (s_.compare(i_, word.size(), word) != 0) {
      return false;
    }
    i_ += word.size();
    return true;
  }

  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Extracts the number following `"key": ` in flat hand-rolled JSON.
double json_num_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  check(at != std::string::npos, "json_num_field: no key " + key);
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/// Server over the paper ladder, exactly like the simulate CLI path.
Server make_paper_server(double capacity_mj, BatchPolicy policy) {
  const LatencyModel latency = paper_calibrated_latency();
  ServerConfig cfg;
  cfg.battery_capacity_mj = capacity_mj;
  cfg.batch = policy;
  return Server(cfg, VfTable::odroid_xu3_a7(),
                Governor::equal_tranches(paper_serve_ladder()), PowerModel(),
                latency, ModelSpec::paper_transformer(),
                paper_ladder_sparsities(latency, 115.0));
}

/// Bursty traffic with a tight-deadline fraction, so sessions produce
/// misses of more than one class.
std::vector<Request> tight_traffic(double rate_rps, std::int64_t num_models,
                                   double duration_ms = 60'000.0) {
  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kBurst;
  tcfg.duration_ms = duration_ms;
  tcfg.rate_rps = rate_rps;
  tcfg.deadline_slack_ms = 1'000.0;
  tcfg.tight_fraction = 0.4;
  tcfg.tight_slack_ms = 250.0;
  tcfg.num_models = num_models;
  return generate_traffic(tcfg);
}

ModelDeployment paper_deployment(ServerConfig cfg) {
  const LatencyModel latency = paper_calibrated_latency();
  ModelDeployment dep;
  dep.config(cfg)
      .spec(ModelSpec::paper_transformer())
      .latency(latency)
      .sparsities(paper_ladder_sparsities(latency, 115.0));
  return dep;
}

// ---------------------------------------------------------------------
// IntervalAccount

TEST(IntervalAccount, EmptyHasNoOverlap) {
  IntervalAccount acc;
  EXPECT_EQ(acc.size(), 0);
  EXPECT_DOUBLE_EQ(acc.total(), 0.0);
  EXPECT_DOUBLE_EQ(acc.overlap(0.0, 1e9), 0.0);
}

TEST(IntervalAccount, OverlapClipsAtBothEnds) {
  IntervalAccount acc;
  acc.add(10.0, 20.0);
  acc.add(30.0, 40.0);
  EXPECT_EQ(acc.size(), 2);
  EXPECT_DOUBLE_EQ(acc.total(), 20.0);
  EXPECT_DOUBLE_EQ(acc.overlap(0.0, 100.0), 20.0);  // covers everything
  EXPECT_DOUBLE_EQ(acc.overlap(0.0, 15.0), 5.0);    // clips head
  EXPECT_DOUBLE_EQ(acc.overlap(15.0, 35.0), 10.0);  // spans the gap
  EXPECT_DOUBLE_EQ(acc.overlap(12.0, 18.0), 6.0);   // inside one interval
  EXPECT_DOUBLE_EQ(acc.overlap(20.0, 30.0), 0.0);   // exactly the gap
  EXPECT_DOUBLE_EQ(acc.overlap(40.0, 50.0), 0.0);   // past the end
  EXPECT_DOUBLE_EQ(acc.overlap(35.0, 35.0), 0.0);   // empty query window
}

TEST(IntervalAccount, IgnoresZeroLengthAndRejectsOutOfOrder) {
  IntervalAccount acc;
  acc.add(5.0, 5.0);  // zero-length: ignored
  EXPECT_EQ(acc.size(), 0);
  acc.add(10.0, 20.0);
  acc.add(20.0, 25.0);  // abutting is fine (start == previous end)
  EXPECT_EQ(acc.size(), 2);
  EXPECT_THROW(acc.add(15.0, 30.0), CheckError);  // overlaps the past
}

// ---------------------------------------------------------------------
// attribute_wait / classify_miss

TEST(Attribution, FourPartsSumToLatency) {
  IntervalAccount switches;
  IntervalAccount execs;
  execs.add(0.0, 50.0);      // another batch runs while we wait
  switches.add(50.0, 60.0);  // then a pattern-set switch stalls us
  // Request: arrives at 10, starts at 80, ends at 120.
  const WaitBreakdown w = attribute_wait(switches, execs, 10.0, 80.0, 120.0);
  EXPECT_DOUBLE_EQ(w.queue_wait_ms, 40.0);    // [10, 50) of exec
  EXPECT_DOUBLE_EQ(w.switch_stall_ms, 10.0);  // [50, 60) of switch
  EXPECT_DOUBLE_EQ(w.batch_wait_ms, 20.0);    // [60, 80) idle hold
  EXPECT_DOUBLE_EQ(w.exec_ms, 40.0);          // [80, 120) own batch
  EXPECT_DOUBLE_EQ(
      w.queue_wait_ms + w.batch_wait_ms + w.switch_stall_ms + w.exec_ms,
      120.0 - 10.0);
}

TEST(Attribution, ClassifiesEachMissCauseExactlyOnce) {
  WaitBreakdown w;
  w.exec_ms = 40.0;
  w.switch_stall_ms = 10.0;
  // Met: end before deadline.
  EXPECT_EQ(classify_miss(w, 0.0, 90.0, 100.0), MissClass::kNone);
  // Exec: even a zero-wait solo launch (arrival + exec) blows it.
  EXPECT_EQ(classify_miss(w, 0.0, 120.0, 30.0), MissClass::kExec);
  // Switch: without the 10 ms stall it would have met the deadline.
  EXPECT_EQ(classify_miss(w, 0.0, 105.0, 100.0), MissClass::kSwitch);
  // Queued: stall removal is not enough, but the level was fast enough.
  EXPECT_EQ(classify_miss(w, 0.0, 130.0, 100.0), MissClass::kQueued);
  EXPECT_STREQ(miss_class_name(MissClass::kNone), "none");
  EXPECT_STREQ(miss_class_name(MissClass::kQueued), "queued");
  EXPECT_STREQ(miss_class_name(MissClass::kSwitch), "switch");
  EXPECT_STREQ(miss_class_name(MissClass::kExec), "exec");
}

TEST(Attribution, SessionInvariantsHoldOnRealTraffic) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  const ServerStats stats = server.serve(tight_traffic(12.0, 1));
  ASSERT_GT(stats.completed, 0);
  ASSERT_GT(stats.deadline_misses, 0);  // traffic is tight enough to miss
  // Every miss lands in exactly one class.
  EXPECT_EQ(stats.miss_queued + stats.miss_switch + stats.miss_exec,
            stats.deadline_misses);
  // The decomposition vectors are parallel to latency_ms and each
  // request's four parts sum to its latency.
  const std::size_t n = stats.latency_ms.size();
  ASSERT_EQ(stats.queue_wait_ms.size(), n);
  ASSERT_EQ(stats.batch_wait_ms.size(), n);
  ASSERT_EQ(stats.switch_stall_req_ms.size(), n);
  ASSERT_EQ(stats.exec_req_ms.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double parts = stats.queue_wait_ms[i] + stats.batch_wait_ms[i] +
                         stats.switch_stall_req_ms[i] + stats.exec_req_ms[i];
    EXPECT_NEAR(parts, stats.latency_ms[i], 1e-6);
  }
  // The totals are the sums of the same vectors, so the summed
  // decomposition also closes against total latency.
  double latency_total = 0.0;
  for (double x : stats.latency_ms) {
    latency_total += x;
  }
  double exec_total = 0.0;
  for (double x : stats.exec_req_ms) {
    exec_total += x;
  }
  EXPECT_NEAR(stats.queue_wait_total_ms() + stats.batch_wait_total_ms() +
                  stats.switch_stall_total_ms() + exec_total,
              latency_total, 1e-6 * static_cast<double>(n + 1));
}

// ---------------------------------------------------------------------
// Tracing: overhead contract, determinism, Chrome JSON validity

TEST(Trace, OffPathIsBitwiseIdenticalToUntraced) {
  const std::vector<Request> schedule = tight_traffic(10.0, 1);
  Server plain = make_paper_server(9'000.0, {4, 30.0});
  const ServerStats untraced = plain.serve(schedule);

  Server traced_server = make_paper_server(9'000.0, {4, 30.0});
  TraceRecorder trace(/*record_wall=*/false);
  traced_server.set_trace(&trace);
  const ServerStats traced = traced_server.serve(schedule);

  EXPECT_GT(trace.num_events(), 0);
  EXPECT_EQ(untraced.to_json(), traced.to_json());
}

TEST(Trace, SameSeedSameTraceBytes) {
  const std::vector<Request> schedule = tight_traffic(10.0, 1);
  std::vector<std::string> dumps;
  for (int run = 0; run < 2; ++run) {
    Server server = make_paper_server(9'000.0, {4, 30.0});
    TraceRecorder trace(/*record_wall=*/false);
    server.set_trace(&trace);
    server.serve(schedule);
    dumps.push_back(trace.to_chrome_json());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(Trace, ChromeJsonIsValidAndCarriesLifecycle) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  TraceRecorder trace(/*record_wall=*/false);
  server.set_trace(&trace);
  const ServerStats stats = server.serve(tight_traffic(10.0, 1));

  const std::string json = trace.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  // One complete request span per completed request.
  std::int64_t request_spans = 0;
  std::int64_t miss_instants = 0;
  for (const TraceEvent& e : trace.merged()) {
    if (e.name == "request" && e.ph == 'X') {
      ++request_spans;
    }
    if (e.name == "miss") {
      ++miss_instants;
    }
    EXPECT_GE(e.ts_ms, 0.0);
  }
  EXPECT_EQ(request_spans, stats.completed);
  EXPECT_EQ(miss_instants, stats.deadline_misses);
  // Track metadata names the governor lane.
  EXPECT_NE(json.find("node: governor + battery"), std::string::npos);
}

TEST(Trace, AttachIsStickyUntilExplicitDetach) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  TraceRecorder trace(/*record_wall=*/false);
  server.set_trace(&trace);
  const std::vector<Request> schedule = tight_traffic(10.0, 1);
  server.serve(schedule);
  const std::int64_t events_after_first = trace.num_events();
  EXPECT_GT(events_after_first, 0);
  // The recorder stays attached across sessions...
  server.serve(schedule);
  const std::int64_t events_after_second = trace.num_events();
  EXPECT_GT(events_after_second, events_after_first);
  // ...until explicitly detached; then a session records nothing.
  server.set_trace(nullptr);
  server.serve(schedule);
  EXPECT_EQ(trace.num_events(), events_after_second);
}

/// Ladder decisions, except that while armed the first decide after a
/// step-down throws: a session that fails mid-run after its engine has
/// already switched pattern sets.
class ThrowAfterStepDownPolicy final : public GovernorPolicy {
 public:
  explicit ThrowAfterStepDownPolicy(const Governor& ladder)
      : GovernorPolicy(ladder), inner_(ladder) {}

  std::string name() const override { return "throw-after-step-down"; }
  std::int64_t decide(const GovernorObservation& obs) override {
    if (armed_ && last_ > 0) {
      armed_ = false;
      throw CheckError("test: decide failed after a step-down");
    }
    last_ = inner_.decide(obs);
    return last_;
  }
  void reset() override { last_ = -1; }

 private:
  LadderPolicy inner_;
  bool armed_ = true;
  std::int64_t last_ = -1;
};

// A session that throws mid-run must leave nothing attached: a later
// session with its observers detached writes into neither the old
// recorder nor the old sampler.
TEST(Trace, ObserversDoNotOutliveAThrowingSession) {
  ServeSessionConfig cfg;
  cfg.battery_capacity_mj = 9'000.0;
  cfg.governor_policy = std::make_shared<ThrowAfterStepDownPolicy>(
      Governor::equal_tranches(paper_serve_ladder()));
  ServeSession session(cfg);
  const std::vector<Request> schedule = tight_traffic(12.0, 1);

  TraceRecorder trace(/*record_wall=*/false);
  TelemetrySampler sampler;
  session.server().set_trace(&trace);
  session.server().set_telemetry(&sampler);
  EXPECT_THROW(session.server().serve(schedule), CheckError);
  // The throw came after the engine stepped down (and was recorded).
  ASSERT_GE(session.engine().current_level(), 1);
  session.server().set_trace(nullptr);
  session.server().set_telemetry(nullptr);
  const std::int64_t events = trace.num_events();
  const std::int64_t points = sampler.num_points();
  ASSERT_GT(events, 0);
  ASSERT_NE(sampler.series("node.swap_bytes"), nullptr);

  // The policy is disarmed now; this session switches the engine back to
  // level 0 and steps down again, all unobserved.
  const ServerStats stats = session.server().serve(schedule);
  EXPECT_GE(stats.switches, 1);
  EXPECT_EQ(trace.num_events(), events);
  EXPECT_EQ(sampler.num_points(), points);
}

// `enqueue` is stamped at admission: never before the request's arrive,
// and exactly the first loop instant at or after it — the arrival itself
// when the loop was idle, else the end of the batch or switch it waited
// out (no batch starts between arrive and enqueue).
TEST(Trace, EnqueueIsStampedAtAdmission) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  TraceRecorder trace(/*record_wall=*/false);
  server.set_trace(&trace);
  const ServerStats stats = server.serve(tight_traffic(12.0, 1));
  ASSERT_GT(stats.switches, 0);

  const std::vector<TraceEvent> events = trace.merged();
  std::map<std::int64_t, double> arrive_ms;
  std::vector<double> batch_starts;
  std::set<double> loop_instants;  // ends of batch and switch spans
  for (const TraceEvent& e : events) {
    if (e.name == "arrive") {
      arrive_ms[e.id] = e.ts_ms;
    } else if (e.name == "batch" || e.name == "switch") {
      loop_instants.insert(e.ts_ms + e.dur_ms);
      if (e.name == "batch") {
        batch_starts.push_back(e.ts_ms);
      }
    }
  }
  std::int64_t enqueues = 0;
  std::int64_t waited = 0;
  for (const TraceEvent& e : events) {
    if (e.name != "enqueue") {
      continue;
    }
    ++enqueues;
    const auto it = arrive_ms.find(e.id);
    ASSERT_NE(it, arrive_ms.end()) << "enqueue without arrive: " << e.id;
    const double arrived = it->second;
    EXPECT_GE(e.ts_ms, arrived) << "request " << e.id;
    for (double start : batch_starts) {
      EXPECT_FALSE(start >= arrived && start < e.ts_ms)
          << "request " << e.id << " passed over by the batch at " << start;
    }
    if (e.ts_ms != arrived) {
      ++waited;
      EXPECT_EQ(loop_instants.count(e.ts_ms), 1U)
          << "request " << e.id << " enqueued off a loop instant";
    }
  }
  EXPECT_EQ(enqueues, static_cast<std::int64_t>(arrive_ms.size()));
  EXPECT_GT(waited, 0);  // the traffic is busy enough to queue at ingress
}

// ---------------------------------------------------------------------
// Metrics registry

TEST(Metrics, LabelsAreOrderIndependent) {
  MetricLabels ab;
  ab.add("policy", "edf").add("backend", "analytic");
  MetricLabels ba;
  ba.add("backend", "analytic").add("policy", "edf");
  EXPECT_EQ(ab.suffix(), ba.suffix());
  EXPECT_EQ(ab.suffix(), "{backend=\"analytic\",policy=\"edf\"}");
  EXPECT_EQ(MetricLabels{}.suffix(), "");
}

TEST(Metrics, CountersAndGaugesRoundTrip) {
  MetricsRegistry registry;
  registry.counter("serve.completed").inc(3);
  registry.counter("serve.completed").inc();
  EXPECT_EQ(registry.counter_value("serve.completed"), 4);
  MetricLabels labels;
  labels.add("model", std::int64_t{7});
  registry.counter("serve.completed", labels).inc(10);
  EXPECT_EQ(registry.counter_value("serve.completed", labels), 10);
  EXPECT_EQ(registry.counter_value("serve.completed"), 4);  // unlabeled
  EXPECT_EQ(registry.counter_value("serve.missing"), 0);
  registry.gauge("battery.fraction").set(0.25);
  EXPECT_EQ(registry.size(), 3);
}

TEST(Metrics, HistogramBucketsAreLogScale) {
  Histogram h(/*lo=*/1.0, /*num_buckets=*/4);  // edges 1,2,4,8,16 + rails
  h.observe(0.5);   // underflow rail
  h.observe(1.0);   // [1, 2)
  h.observe(3.9);   // [2, 4)
  h.observe(100.0); // overflow rail
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 105.4);
  const std::vector<std::int64_t>& buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 6U);
  EXPECT_EQ(buckets.front(), 1);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets.back(), 1);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 4.0);
}

TEST(Metrics, RegistryJsonIsValidWithLabeledKeys) {
  MetricsRegistry registry;
  MetricLabels labels;
  labels.add("policy", "edf-prio");
  registry.counter("serve.completed", labels).inc(5);
  registry.histogram("serve.latency_ms", labels).observe(12.0);
  const std::string json = registry.to_json();
  // Label suffixes embed quotes; they must arrive escaped, still valid.
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("serve.completed{policy=\\\"edf-prio\\\"}"),
            std::string::npos);
}

TEST(Metrics, ServeSessionPublishesMirrorOfStats) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  MetricsRegistry registry;
  server.set_metrics(&registry);
  const ServerStats stats = server.serve(tight_traffic(10.0, 1));
  MetricLabels labels;
  labels.add("policy", stats.policy).add("backend", stats.backend);
  EXPECT_EQ(registry.counter_value("serve.completed", labels),
            stats.completed);
  EXPECT_EQ(registry.counter_value("serve.deadline_misses", labels),
            stats.deadline_misses);
  EXPECT_EQ(registry.counter_value("serve.miss_queued", labels) +
                registry.counter_value("serve.miss_switch", labels) +
                registry.counter_value("serve.miss_exec", labels),
            stats.deadline_misses);
  EXPECT_TRUE(JsonChecker(registry.to_json()).valid());
}

// ---------------------------------------------------------------------
// Stats JSON round-trips and node aggregation

TEST(ServerStatsJson, RoundTripsThroughParser) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  const ServerStats stats = server.serve(tight_traffic(10.0, 1));
  const std::string json = stats.to_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(static_cast<std::int64_t>(json_num_field(json, "completed")),
            stats.completed);
  EXPECT_EQ(
      static_cast<std::int64_t>(json_num_field(json, "deadline_misses")),
      stats.deadline_misses);
  EXPECT_EQ(static_cast<std::int64_t>(json_num_field(json, "miss_queued")),
            stats.miss_queued);
  EXPECT_EQ(static_cast<std::int64_t>(json_num_field(json, "miss_switch")),
            stats.miss_switch);
  EXPECT_EQ(static_cast<std::int64_t>(json_num_field(json, "miss_exec")),
            stats.miss_exec);
  // to_json renders doubles at ostream default precision (6 sig figs).
  EXPECT_NEAR(json_num_field(json, "miss_rate"), stats.miss_rate(), 1e-5);
  // summary() surfaces the attribution line too.
  EXPECT_NE(stats.summary().find("miss attribution"), std::string::npos);
}

TEST(NodeStats, AggregateTotalsEqualPerModelSums) {
  NodeConfig ncfg;
  ncfg.battery_capacity_mj = 16'000.0;
  ServeNode node(ncfg, VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  ServerConfig cfg;
  cfg.battery_capacity_mj = ncfg.battery_capacity_mj;
  cfg.batch = {4, 30.0};
  node.add_model(0, paper_deployment(cfg));
  node.add_model(1, paper_deployment(cfg));
  NodeStats stats = node.serve(tight_traffic(10.0, 2));
  ASSERT_EQ(stats.per_model.size(), 2U);
  ASSERT_GT(stats.completed, 0);

  std::int64_t submitted = stats.unroutable;
  std::int64_t completed = 0;
  std::int64_t misses = 0;
  std::int64_t queued = 0;
  std::int64_t switched = 0;
  std::int64_t exec = 0;
  double energy = 0.0;
  for (const auto& [id, s] : stats.per_model) {
    submitted += s.submitted;
    completed += s.completed;
    misses += s.deadline_misses;
    queued += s.miss_queued;
    switched += s.miss_switch;
    exec += s.miss_exec;
    energy += s.energy_used_mj;
    // Per-shard attribution closes as well.
    EXPECT_EQ(s.miss_queued + s.miss_switch + s.miss_exec,
              s.deadline_misses);
  }
  EXPECT_EQ(stats.submitted, submitted);
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.deadline_misses, misses);
  EXPECT_EQ(stats.miss_queued, queued);
  EXPECT_EQ(stats.miss_switch, switched);
  EXPECT_EQ(stats.miss_exec, exec);
  EXPECT_NEAR(stats.energy_used_mj, energy, 1e-9);
  EXPECT_EQ(stats.miss_queued + stats.miss_switch + stats.miss_exec,
            stats.deadline_misses);
  EXPECT_TRUE(JsonChecker(stats.to_json()).valid());
}

TEST(NodeStats, TracedNodeSessionStaysBitwiseIdentical) {
  const std::vector<Request> schedule = tight_traffic(10.0, 2);
  const auto build = [] {
    NodeConfig ncfg;
    ncfg.battery_capacity_mj = 16'000.0;
    auto node = std::make_unique<ServeNode>(
        ncfg, VfTable::odroid_xu3_a7(),
        Governor::equal_tranches(paper_serve_ladder()), PowerModel());
    ServerConfig cfg;
    cfg.battery_capacity_mj = ncfg.battery_capacity_mj;
    cfg.batch = BatchPolicy{4, 30.0};
    node->add_model(0, paper_deployment(cfg));
    node->add_model(1, paper_deployment(cfg));
    return node;
  };
  auto plain = build();
  const NodeStats untraced = plain->serve(schedule);

  auto traced_node = build();
  TraceRecorder trace(/*record_wall=*/false);
  traced_node->set_trace(&trace);
  const NodeStats traced = traced_node->serve(schedule);

  EXPECT_GT(trace.num_events(), 0);
  EXPECT_EQ(untraced.to_json(), traced.to_json());
  EXPECT_TRUE(JsonChecker(trace.to_chrome_json()).valid());
  // Per-model lanes show up as named tracks.
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"model 0\""), std::string::npos);
  EXPECT_NE(json.find("\"model 1\""), std::string::npos);
}

// ---------------------------------------------------------------------
// TimeSeries: fixed-capacity buffer with stride-doubling downsampling

TEST(TimeSeries, StoresEveryPointBelowCapacity) {
  TimeSeries ts(8);
  for (int i = 0; i < 5; ++i) {
    ts.record(static_cast<double>(i * 10), static_cast<double>(i));
  }
  EXPECT_EQ(ts.size(), 5);
  EXPECT_EQ(ts.offered(), 5);
  EXPECT_EQ(ts.stride(), 1);
  EXPECT_DOUBLE_EQ(ts.times().front(), 0.0);
  EXPECT_DOUBLE_EQ(ts.times().back(), 40.0);
  EXPECT_DOUBLE_EQ(ts.last_value(), 4.0);
}

TEST(TimeSeries, DownsamplesByStrideDoublingAtCapacity) {
  TimeSeries ts(4);
  const int offered = 25;
  for (int i = 0; i < offered; ++i) {
    ts.record(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(ts.offered(), offered);
  EXPECT_LE(ts.size(), 4);
  EXPECT_GT(ts.stride(), 1);
  // Stored points are exactly the offered indices {0, s, 2s, ...}: a pure
  // function of the offered sequence, independent of compaction timing.
  for (std::int64_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(ts.values()[static_cast<std::size_t>(i)],
                     static_cast<double>(i * ts.stride()));
  }
  // last_value tracks the last OFFERED point even when downsampled away.
  EXPECT_DOUBLE_EQ(ts.last_value(), static_cast<double>(offered - 1));
  // The full time span is preserved at halved resolution: the first
  // stored point is still t=0.
  EXPECT_DOUBLE_EQ(ts.times().front(), 0.0);
}

TEST(TimeSeries, LongSessionStaysWithinCapacity) {
  TimeSeries ts(16);
  for (int i = 0; i < 10'000; ++i) {
    ts.record(static_cast<double>(i), 1.0);
  }
  EXPECT_LE(ts.size(), 16);
  EXPECT_EQ(ts.offered(), 10'000);
  EXPECT_EQ(ts.stride() % 2, 0);  // power-of-two stride after compactions
}

// ---------------------------------------------------------------------
// TelemetrySampler

BatchOutcome batch_at(double end_ms, std::int64_t misses,
                      double latency_sum_ms, std::int64_t size = 2) {
  BatchOutcome s;
  s.model_id = 0;
  s.start_ms = end_ms - 10.0;
  s.end_ms = end_ms;
  s.batch_size = size;
  s.energy_mj = 5.0;
  s.battery_fraction = 0.9;
  s.misses = misses;
  s.latency_sum_ms = latency_sum_ms;
  return s;
}

TEST(Telemetry, EwmaUpdatesEveryBatchWhileCadenceThinsStorage) {
  TelemetryConfig cfg;
  cfg.sample_every_batches = 2;
  cfg.ewma_alpha = 0.5;
  TelemetrySampler sampler(cfg);
  // 4 batches: miss fractions 1, 0, 1, 0 — EWMA seeded from the first
  // observation, then halved toward each next one.
  sampler.on_batch(batch_at(100.0, 2, 200.0));  // miss frac 1.0 -> ewma 1.0
  sampler.on_batch(batch_at(200.0, 0, 100.0));  // -> 0.5
  sampler.on_batch(batch_at(300.0, 2, 200.0));  // -> 0.75
  sampler.on_batch(batch_at(400.0, 0, 100.0));  // -> 0.375
  EXPECT_EQ(sampler.batches_seen(), 4);
  EXPECT_DOUBLE_EQ(sampler.miss_ewma(0), 0.375);
  EXPECT_DOUBLE_EQ(sampler.miss_ewma(99), 0.0);  // unseen model
  // Cadence 2 stores only batches 0 and 2.
  const TimeSeries* series = sampler.series("m0.miss_ewma");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 2);
  EXPECT_DOUBLE_EQ(series->times()[0], 100.0);
  EXPECT_DOUBLE_EQ(series->times()[1], 300.0);
  EXPECT_EQ(sampler.series("m0.nonexistent"), nullptr);
}

TEST(Telemetry, SessionDumpIsDeterministicAndPureObservation) {
  const std::vector<Request> schedule = tight_traffic(12.0, 1);
  Server plain = make_paper_server(9'000.0, {4, 30.0});
  const ServerStats bare = plain.serve(schedule);

  std::vector<std::string> dumps;
  for (int run = 0; run < 2; ++run) {
    Server server = make_paper_server(9'000.0, {4, 30.0});
    TelemetrySampler sampler;
    server.set_telemetry(&sampler);
    const ServerStats stats = server.serve(schedule);
    // Telemetry attachment is pure observation.
    EXPECT_EQ(stats.to_json(), bare.to_json());
    EXPECT_GT(sampler.batches_seen(), 0);
    EXPECT_GT(sampler.num_points(), 0);
    dumps.push_back(sampler.to_json());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_TRUE(JsonChecker(dumps[0]).valid());
  EXPECT_NE(dumps[0].find("\"node.battery_fraction\""), std::string::npos);
  EXPECT_NE(dumps[0].find("\"m0.queue_depth\""), std::string::npos);
}

TEST(Telemetry, ExportCountersEmitsValidCounterEvents) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  TelemetrySampler sampler;
  server.set_telemetry(&sampler);
  server.serve(tight_traffic(12.0, 1));

  TraceRecorder trace(/*record_wall=*/false);
  sampler.export_counters(trace);
  std::int64_t counter_events = 0;
  for (const TraceEvent& e : trace.merged()) {
    if (e.ph == 'C') {
      ++counter_events;
      EXPECT_GE(e.ts_ms, 0.0);
    }
  }
  // One counter event per stored point.
  EXPECT_EQ(counter_events, sampler.num_points());
  EXPECT_TRUE(JsonChecker(trace.to_chrome_json()).valid());
}

// ---------------------------------------------------------------------
// SloMonitor rule state machines

BatchOutcome slo_obs(double end_ms, std::int64_t completed,
                     std::int64_t missed, double battery = 0.9,
                     double mean_latency_ms = 100.0) {
  BatchOutcome o;
  o.end_ms = end_ms;
  o.batch_size = completed;
  o.misses = missed;
  o.battery_fraction = battery;
  o.latency_sum_ms = mean_latency_ms * static_cast<double>(completed);
  return o;
}

SloRule miss_burn_rule() {
  SloRule rule;
  rule.name = "burn";
  rule.kind = SloRuleKind::kMissBurn;
  rule.short_window_ms = 1'000.0;
  rule.long_window_ms = 4'000.0;
  rule.short_threshold = 0.5;
  rule.long_threshold = 0.2;
  rule.min_misses = 2;
  return rule;
}

TEST(Slo, MissBurnBreachesOnBothWindowsAndRecovers) {
  SloMonitor monitor({miss_burn_rule()});
  // All-missed batches: short and long rates hit 1.0 once 2 misses land.
  monitor.observe(slo_obs(100.0, 2, 2));
  ASSERT_EQ(monitor.breaches(), 1);
  EXPECT_EQ(monitor.active_breaches(), 1);
  const SloEpisode& open = monitor.episodes().front();
  EXPECT_EQ(open.rule, "burn");
  EXPECT_DOUBLE_EQ(open.start_ms, 100.0);
  EXPECT_DOUBLE_EQ(open.end_ms, -1.0);
  EXPECT_GE(open.trigger_misses, 2);
  EXPECT_DOUBLE_EQ(open.trigger_value, 1.0);
  // Clean batches push the short-window rate to zero: recover.
  monitor.observe(slo_obs(1'600.0, 4, 0));
  EXPECT_EQ(monitor.active_breaches(), 0);
  EXPECT_DOUBLE_EQ(monitor.episodes().front().end_ms, 1'600.0);
  EXPECT_EQ(monitor.breaches(), 1);  // one closed episode, not two
}

TEST(Slo, MissBurnFloorSuppressesSingleMissPages) {
  SloMonitor monitor({miss_burn_rule()});  // min_misses = 2
  // One missed request out of one: 100% rate but below the floor.
  monitor.observe(slo_obs(100.0, 1, 1));
  EXPECT_EQ(monitor.breaches(), 0);
  // A second miss inside the short window crosses the floor.
  monitor.observe(slo_obs(200.0, 1, 1));
  EXPECT_EQ(monitor.breaches(), 1);
}

TEST(Slo, LatencyEwmaBreachesAboveThreshold) {
  SloRule rule;
  rule.name = "lat";
  rule.kind = SloRuleKind::kLatencyEwma;
  rule.latency_threshold_ms = 100.0;
  rule.ewma_alpha = 1.0;  // ewma == latest observation
  SloMonitor monitor({rule});
  monitor.observe(slo_obs(100.0, 2, 0, 0.9, 50.0));
  EXPECT_EQ(monitor.breaches(), 0);
  monitor.observe(slo_obs(200.0, 2, 0, 0.9, 150.0));
  EXPECT_EQ(monitor.active_breaches(), 1);
  EXPECT_DOUBLE_EQ(monitor.episodes().front().trigger_value, 150.0);
  monitor.observe(slo_obs(300.0, 2, 0, 0.9, 50.0));
  EXPECT_EQ(monitor.active_breaches(), 0);
}

TEST(Slo, BatterySlopeProjectsTimeToEmpty) {
  SloRule rule;
  rule.name = "batt";
  rule.kind = SloRuleKind::kBatterySlope;
  rule.slope_window_ms = 10'000.0;
  rule.min_projected_ms = 60'000.0;
  SloMonitor monitor({rule});
  // Window spans less than half its width: rule holds (no breach).
  monitor.observe(slo_obs(0.0, 1, 0, 1.0));
  monitor.observe(slo_obs(2'000.0, 1, 0, 0.9));
  EXPECT_EQ(monitor.breaches(), 0);
  // Fast drain: 0.5 fraction over 6 s projects 6 s to empty — breach.
  monitor.observe(slo_obs(6'000.0, 1, 0, 0.5));
  ASSERT_EQ(monitor.active_breaches(), 1);
  EXPECT_NEAR(monitor.episodes().front().trigger_value, 6'000.0, 1.0);
}

TEST(Slo, TransitionsEmitRuleTaggedTraceEvents) {
  SloMonitor monitor({miss_burn_rule()});
  TraceRecorder trace(/*record_wall=*/false);
  monitor.observe(slo_obs(100.0, 2, 2), &trace);
  monitor.observe(slo_obs(1'600.0, 4, 0), &trace);
  std::int64_t breach_events = 0;
  std::int64_t recover_events = 0;
  for (const TraceEvent& e : trace.merged()) {
    if (e.name == "slo.breach") {
      ++breach_events;
    }
    if (e.name == "slo.recover") {
      ++recover_events;
    }
    EXPECT_EQ(e.tid, 0);  // transitions live on the node/governor lane
  }
  EXPECT_EQ(breach_events, 1);
  EXPECT_EQ(recover_events, 1);
  const std::string json = trace.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"rule\": \"burn\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(monitor.to_json()).valid());
  // Metrics publication counts the episode.
  MetricsRegistry registry;
  monitor.publish(registry);
  EXPECT_EQ(registry.counter_value("slo.breaches"), 1);
}

// The ISSUE acceptance criterion: breach decisions must agree with the
// post-hoc per-request attribution — every flagged miss-burn window
// contains at least the rule's min_misses classified misses.
TEST(Slo, BreachEpisodesAgreeWithMissAttribution) {
  const std::vector<Request> schedule = tight_traffic(12.0, 1);
  Server server = make_paper_server(9'000.0, {4, 30.0});
  TraceRecorder trace(/*record_wall=*/false);
  TelemetrySampler sampler;
  SloMonitor monitor(SloMonitor::default_rules());
  server.set_trace(&trace);
  server.set_telemetry(&sampler);
  server.set_slo(&monitor);
  const ServerStats stats = server.serve(schedule);
  ASSERT_GT(stats.deadline_misses, 0);
  ASSERT_GT(monitor.breaches(), 0);  // the tight traffic must page

  const SloRule* burn = nullptr;
  for (const SloRule& rule : monitor.rules()) {
    if (rule.kind == SloRuleKind::kMissBurn) {
      burn = &rule;
    }
  }
  ASSERT_NE(burn, nullptr);
  std::int64_t burn_episodes = 0;
  for (const SloEpisode& ep : monitor.episodes()) {
    if (ep.rule != burn->name) {
      continue;
    }
    ++burn_episodes;
    EXPECT_GE(ep.trigger_misses, burn->min_misses);
    // Post-hoc check against the trace: the classified "miss" instants
    // inside [start - short_window, start] must cover the floor.
    std::int64_t misses_in_window = 0;
    for (const TraceEvent& e : trace.merged()) {
      if (e.name == "miss" && e.ts_ms >= ep.start_ms - burn->short_window_ms &&
          e.ts_ms <= ep.start_ms) {
        ++misses_in_window;
      }
    }
    EXPECT_GE(misses_in_window, burn->min_misses)
        << "episode at " << ep.start_ms;
  }
  EXPECT_GT(burn_episodes, 0);
}

// ---------------------------------------------------------------------
// TraceRecorder event cap

TEST(Trace, MaxEventsCapDropsAndCounts) {
  TraceConfig cfg;
  cfg.max_events = 5;
  TraceRecorder trace(cfg);
  for (int i = 0; i < 8; ++i) {
    TraceEvent ev("tick", "test", static_cast<double>(i), 0);
    ev.ph = 'i';
    trace.record(std::move(ev));
  }
  EXPECT_EQ(trace.num_events(), 5);
  EXPECT_EQ(trace.dropped_events(), 3);
  EXPECT_EQ(trace.max_events(), 5);
  const std::string json = trace.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  // The footer surfaces the drop count for tooling.
  EXPECT_NE(json.find("\"dropped_events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"max_events\": 5"), std::string::npos);
}

TEST(Trace, ZeroMaxEventsMeansUnlimited) {
  TraceRecorder trace(/*record_wall=*/false);
  for (int i = 0; i < 100; ++i) {
    TraceEvent ev("tick", "test", static_cast<double>(i), 0);
    ev.ph = 'i';
    trace.record(std::move(ev));
  }
  EXPECT_EQ(trace.num_events(), 100);
  EXPECT_EQ(trace.dropped_events(), 0);
  EXPECT_NE(trace.to_chrome_json().find("\"dropped_events\": 0"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Prometheus text exposition

TEST(Prometheus, SanitizesNamesAndEscapesLabelValues) {
  MetricsRegistry registry;
  MetricLabels labels;
  labels.add("path", "a\\b\"c\nd");  // every escape class at once
  registry.counter("serve.completed", labels).inc(7);
  registry.gauge("battery.fraction").set(0.25);
  const std::string text = registry.to_prometheus();
  // Dots sanitize to underscores; the family gets one TYPE line.
  EXPECT_NE(text.find("# TYPE serve_completed counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE battery_fraction gauge"), std::string::npos);
  // Label values escape backslash, quote, and newline per the 0.0.4
  // text-exposition rules.
  EXPECT_NE(text.find("serve_completed{path=\"a\\\\b\\\"c\\nd\"} 7"),
            std::string::npos);
  EXPECT_EQ(text.find("serve.completed"), std::string::npos);
}

TEST(Prometheus, HistogramRendersCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("serve.latency_ms");
  h = Histogram(/*lo=*/1.0, /*num_buckets=*/3);  // edges 1, 2, 4, 8
  h.observe(0.5);  // underflow
  h.observe(1.5);  // [1, 2)
  h.observe(3.0);  // [2, 4)
  h.observe(9.0);  // overflow
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE serve_latency_ms histogram"),
            std::string::npos);
  // Cumulative counts at the upper edges: le="1" holds the underflow
  // rail, each next bucket adds its own count.
  EXPECT_NE(text.find("serve_latency_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{le=\"4\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_count 4"), std::string::npos);
}

// ---------------------------------------------------------------------
// Histogram bucket boundaries (log2 buckets, lo = 1): 0 is underflow,
// exact powers of two open their own bucket, the top rail saturates.

TEST(Metrics, HistogramBucketBoundariesAtPowersOfTwo) {
  Histogram h(/*lo=*/1.0, /*num_buckets=*/4);  // buckets [1,2) [2,4) [4,8) [8,16)
  EXPECT_DOUBLE_EQ(h.lo(), 1.0);
  h.observe(0.0);   // below lo: underflow rail
  h.observe(1.0);   // exactly lo: first bucket, not underflow
  h.observe(2.0);   // exact power of two: lower-inclusive -> [2, 4)
  h.observe(4.0);   // -> [4, 8)
  h.observe(8.0);   // -> [8, 16)
  h.observe(16.0);  // exactly the top edge: overflow rail
  const std::vector<std::int64_t>& buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 6U);
  EXPECT_EQ(buckets[0], 1);  // underflow: 0.0
  EXPECT_EQ(buckets[1], 1);  // 1.0
  EXPECT_EQ(buckets[2], 1);  // 2.0
  EXPECT_EQ(buckets[3], 1);  // 4.0
  EXPECT_EQ(buckets[4], 1);  // 8.0
  EXPECT_EQ(buckets[5], 1);  // overflow: 16.0
  EXPECT_EQ(h.count(), 6);
}

TEST(Metrics, HistogramTopBucketSaturates) {
  Histogram h(/*lo=*/1.0, /*num_buckets=*/4);
  h.observe(16.0);
  h.observe(1e18);  // astronomically large still lands in the top rail
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.buckets().back(), 3);
  EXPECT_EQ(h.count(), 3);
}

}  // namespace
}  // namespace rt3
