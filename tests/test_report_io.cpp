// Tests for the mergeable, self-describing RunReport: merge algebra,
// field enumeration, and golden CSV/JSON renderings.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/config.hpp"
#include "core/report_io.hpp"
#include "stats/json.hpp"
#include "stats/serialize.hpp"

namespace xdrs::core {
namespace {

using sim::Time;

/// A fully populated synthetic report with easy-to-check numbers.
RunReport sample_report() {
  RunReport r;
  r.policy_stack = "islip-i2/-/instantaneous/hardware";
  r.duration = Time::milliseconds(1);
  r.offered_packets = 10;
  r.offered_bytes = 15'000;
  r.delivered_packets = 8;
  r.delivered_bytes = 12'000;
  r.serviced_bytes = 13'000;
  r.ocs_bytes = 9'000;
  r.eps_bytes = 3'000;
  r.class_bytes = {1'000, 2'000, 9'000};
  r.voq_drops = 1;
  r.eps_drops = 2;
  r.sync_losses = 3;
  r.reconfig_cuts = 4;
  r.reconfigurations = 5;
  r.dark_time = Time::microseconds(2);
  r.ocs_duty_cycle = 0.5;
  r.peak_switch_buffer_bytes = 400;
  r.peak_host_buffer_bytes = 200;
  r.scheduler_decisions = 4;
  r.mean_decision_latency = Time::nanoseconds(250);
  r.latency.record(3);
  r.latency.record(7);
  r.latency_sensitive.record(5);
  r.jitter_us.record(1.5);
  r.deadline_flows_met = 6;
  r.deadline_flows_missed = 2;
  r.goodput_before_deadline_bytes = 11'000;
  r.fct_deadline.record_time(Time::microseconds(40));
  r.fct_other.record_time(Time::microseconds(90));
  r.intra_rack_bytes = 9'000;
  r.cross_rack_bytes = 3'000;
  r.fct_intra_rack.record_time(Time::microseconds(40));
  r.fct_cross_rack.record_time(Time::microseconds(90));
  r.core_link_bytes = 3'000;
  r.core_drops = 2;
  r.peak_core_queue_bytes = 150;
  r.core_utilization = 0.25;
  return r;
}

TEST(RunReportMerge, CountersSumAndPeaksMax) {
  RunReport a = sample_report();
  RunReport b = sample_report();
  b.peak_switch_buffer_bytes = 900;
  b.peak_host_buffer_bytes = 100;
  a.merge(b);
  EXPECT_EQ(a.duration, Time::milliseconds(2));
  EXPECT_EQ(a.offered_packets, 20u);
  EXPECT_EQ(a.offered_bytes, 30'000);
  EXPECT_EQ(a.delivered_bytes, 24'000);
  EXPECT_EQ(a.class_bytes[1], 4'000);
  EXPECT_EQ(a.voq_drops, 2u);
  EXPECT_EQ(a.reconfigurations, 10u);
  EXPECT_EQ(a.dark_time, Time::microseconds(4));
  EXPECT_EQ(a.peak_switch_buffer_bytes, 900);
  EXPECT_EQ(a.peak_host_buffer_bytes, 200);
  EXPECT_EQ(a.latency.count(), 4u);
  EXPECT_EQ(a.latency_sensitive.count(), 2u);
  // Deadline metrics fold shard-wise: counters sum, histograms merge, and
  // the miss ratio re-derives from the merged counters.
  EXPECT_EQ(a.deadline_flows_met, 12u);
  EXPECT_EQ(a.deadline_flows_missed, 4u);
  EXPECT_DOUBLE_EQ(a.deadline_miss_ratio(), 0.25);
  EXPECT_EQ(a.goodput_before_deadline_bytes, 22'000);
  EXPECT_EQ(a.fct_deadline.count(), 2u);
  EXPECT_EQ(a.fct_other.count(), 2u);
  // Per-hop metrics (schema 4): byte totals and drops sum, queue peaks take
  // the max, the FCT locality split merges like every other histogram.
  EXPECT_EQ(a.intra_rack_bytes, 18'000);
  EXPECT_EQ(a.cross_rack_bytes, 6'000);
  EXPECT_EQ(a.fct_intra_rack.count(), 2u);
  EXPECT_EQ(a.fct_cross_rack.count(), 2u);
  EXPECT_EQ(a.core_link_bytes, 6'000);
  EXPECT_EQ(a.core_drops, 4u);
  EXPECT_EQ(a.peak_core_queue_bytes, 150);
}

TEST(RunReportMerge, CoreUtilizationIsDurationWeighted) {
  RunReport a = sample_report();  // 1 ms at 0.25
  RunReport b = sample_report();
  b.duration = Time::milliseconds(3);
  b.core_utilization = 0.65;
  a.merge(b);
  EXPECT_NEAR(a.core_utilization, (0.25 * 1.0 + 0.65 * 3.0) / 4.0, 1e-12);
}

TEST(RunReportMerge, DerivedRatesAreReweighted) {
  RunReport a = sample_report();  // 1 ms at duty 0.5, 4 decisions at 250 ns
  RunReport b = sample_report();
  b.duration = Time::milliseconds(3);
  b.ocs_duty_cycle = 0.9;
  b.scheduler_decisions = 12;
  b.mean_decision_latency = Time::nanoseconds(500);
  a.merge(b);
  EXPECT_NEAR(a.ocs_duty_cycle, (0.5 * 1.0 + 0.9 * 3.0) / 4.0, 1e-12);
  EXPECT_EQ(a.scheduler_decisions, 16u);
  EXPECT_EQ(a.mean_decision_latency.ps(), (4 * 250'000 + 12 * 500'000) / 16);
}

TEST(RunReportMerge, PolicyStackAgreesOrGoesMixed) {
  RunReport a = sample_report();
  a.merge(sample_report());
  EXPECT_EQ(a.policy_stack, "islip-i2/-/instantaneous/hardware");

  RunReport other = sample_report();
  other.policy_stack = "-/solstice/instantaneous/hardware";
  a.merge(other);
  EXPECT_EQ(a.policy_stack, "mixed");

  RunReport fresh;  // empty adopts the other side's stack
  fresh.merge(other);
  EXPECT_EQ(fresh.policy_stack, "-/solstice/instantaneous/hardware");
}

TEST(RunReportMerge, MergingEmptyIsIdentity) {
  RunReport a = sample_report();
  const std::string before = a.to_json();
  a.merge(RunReport{});
  EXPECT_EQ(a.to_json(), before);
}

TEST(RunReportMerge, SummaryMergeMatchesDirectRecording) {
  stats::Summary left, right, direct;
  for (const double x : {1.0, 2.0, 3.0}) {
    left.record(x);
    direct.record(x);
  }
  for (const double x : {10.0, 20.0}) {
    right.record(x);
    direct.record(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), direct.count());
  EXPECT_NEAR(left.mean(), direct.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), direct.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), 1.0);
  EXPECT_DOUBLE_EQ(left.max(), 20.0);
}

TEST(RunReportFields, EveryFieldHasAUniqueName) {
  const auto fields = sample_report().fields();
  ASSERT_FALSE(fields.empty());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    for (std::size_t j = i + 1; j < fields.size(); ++j) {
      EXPECT_NE(fields[i].name(), fields[j].name());
    }
  }
}

TEST(RunReportFields, CsvHeaderAndRowAgreeOnColumnCount) {
  const auto count_commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count_commas(RunReport::csv_header()), count_commas(sample_report().csv_row()));
}

// Golden renderings: these strings are the stable serialization contract.
// If a change to RunReport alters them intentionally, update the goldens —
// and know that every archived BENCH_sweep.json just changed schema.

TEST(RunReportGolden, Json) {
  EXPECT_EQ(
      sample_report().to_json(),
      R"({"schema_version":5,"policy_stack":"islip-i2/-/instantaneous/hardware",)"
      R"("duration_ps":1000000000,"offered_packets":10,"offered_bytes":15000,)"
      R"("delivered_packets":8,"delivered_bytes":12000,"serviced_bytes":13000,)"
      R"("ocs_bytes":9000,"eps_bytes":3000,"latency_sensitive_bytes":1000,)"
      R"("throughput_bytes":2000,"best_effort_bytes":9000,"voq_drops":1,"eps_drops":2,)"
      R"("sync_losses":3,"reconfig_cuts":4,"reconfigurations":5,"dark_time_ps":2000000,)"
      R"("ocs_duty_cycle":0.5,"peak_switch_buffer_bytes":400,"peak_host_buffer_bytes":200,)"
      R"("scheduler_decisions":4,"mean_decision_latency_ps":250000,"delivery_ratio":0.8,)"
      R"("latency_count":2,"latency_mean_ps":5,"latency_p50_ps":3,"latency_p99_ps":3,)"
      R"("latency_max_ps":7,"latency_sensitive_count":1,"latency_sensitive_mean_ps":5,)"
      R"("latency_sensitive_p99_ps":5,"jitter_flows":1,"jitter_mean_us":1.5,"jitter_max_us":1.5,)"
      R"("deadline_flows_met":6,"deadline_flows_missed":2,"deadline_miss_ratio":0.25,)"
      R"("goodput_before_deadline_bytes":11000,"fct_deadline_count":1,)"
      R"("fct_deadline_mean_ps":4e+07,"fct_deadline_p50_ps":40000000,)"
      R"("fct_deadline_p99_ps":40000000,"fct_deadline_max_ps":40000000,"fct_other_count":1,)"
      R"("fct_other_mean_ps":9e+07,"fct_other_p99_ps":90000000,"intra_rack_bytes":9000,)"
      R"("cross_rack_bytes":3000,"fct_intra_rack_count":1,"fct_intra_rack_mean_ps":4e+07,)"
      R"("fct_intra_rack_p99_ps":40000000,"fct_cross_rack_count":1,)"
      R"("fct_cross_rack_mean_ps":9e+07,"fct_cross_rack_p99_ps":90000000,)"
      R"("core_link_bytes":3000,"core_drops":2,)"
      R"("peak_core_queue_bytes":150,"core_utilization":0.25})");
}

TEST(RunReportGolden, CsvRow) {
  EXPECT_EQ(RunReport::csv_header(),
            "schema_version,policy_stack,"
            "duration_ps,offered_packets,offered_bytes,delivered_packets,delivered_bytes,"
            "serviced_bytes,ocs_bytes,eps_bytes,latency_sensitive_bytes,throughput_bytes,"
            "best_effort_bytes,voq_drops,eps_drops,sync_losses,reconfig_cuts,reconfigurations,"
            "dark_time_ps,ocs_duty_cycle,peak_switch_buffer_bytes,peak_host_buffer_bytes,"
            "scheduler_decisions,mean_decision_latency_ps,delivery_ratio,latency_count,"
            "latency_mean_ps,latency_p50_ps,latency_p99_ps,latency_max_ps,"
            "latency_sensitive_count,latency_sensitive_mean_ps,latency_sensitive_p99_ps,"
            "jitter_flows,jitter_mean_us,jitter_max_us,deadline_flows_met,deadline_flows_missed,"
            "deadline_miss_ratio,goodput_before_deadline_bytes,fct_deadline_count,"
            "fct_deadline_mean_ps,fct_deadline_p50_ps,fct_deadline_p99_ps,fct_deadline_max_ps,"
            "fct_other_count,fct_other_mean_ps,fct_other_p99_ps,intra_rack_bytes,"
            "cross_rack_bytes,fct_intra_rack_count,fct_intra_rack_mean_ps,fct_intra_rack_p99_ps,"
            "fct_cross_rack_count,fct_cross_rack_mean_ps,fct_cross_rack_p99_ps,"
            "core_link_bytes,core_drops,peak_core_queue_bytes,core_utilization");
  EXPECT_EQ(sample_report().csv_row(),
            "5,islip-i2/-/instantaneous/hardware,"
            "1000000000,10,15000,8,12000,13000,9000,3000,1000,2000,9000,1,2,3,4,5,2000000,0.5,"
            "400,200,4,250000,0.8,2,5,3,3,7,1,5,5,1,1.5,1.5,"
            "6,2,0.25,11000,1,4e+07,40000000,40000000,40000000,1,9e+07,90000000,"
            "9000,3000,1,4e+07,40000000,1,9e+07,90000000,3000,2,150,0.25");
}

// ---- state round-trip: the read side (core/report_io) ----------------------

TEST(RunReportStateIo, RoundTripIsByteIdentical) {
  const RunReport original = sample_report();
  const std::string state = report_state_json(original);
  const RunReport parsed = report_from_state_json(state);
  // Exact reconstruction: both the state form and the artefact digest of the
  // parsed report match the original byte for byte.
  EXPECT_EQ(report_state_json(parsed), state);
  EXPECT_EQ(parsed.to_json(), original.to_json());
  EXPECT_EQ(parsed.csv_row(), original.csv_row());
}

TEST(RunReportStateIo, StateIsASupersetOfTheArtefactObject) {
  // Every artefact key appears in the state object with the same rendering,
  // so state files stay greppable with artefact field names.
  const RunReport r = sample_report();
  const stats::JsonValue state = stats::parse_json(report_state_json(r));
  const stats::JsonValue artefact = stats::parse_json(r.to_json());
  for (const auto& [key, value] : artefact.members()) {
    EXPECT_EQ(state.at(key).dump(), value.dump()) << "field: " << key;
  }
  EXPECT_TRUE(state.find("latency_state") != nullptr);
  EXPECT_TRUE(state.find("jitter_state") != nullptr);
}

TEST(RunReportStateIo, ReconstructionMergesExactlyLikeTheOriginal) {
  RunReport a = sample_report();
  RunReport b = sample_report();
  b.ocs_duty_cycle = 0.9;
  b.duration = Time::milliseconds(3);
  b.latency.record(1'000'000);
  b.jitter_us.record(99.5);

  RunReport a2 = report_from_state_json(report_state_json(a));
  const RunReport b2 = report_from_state_json(report_state_json(b));
  a.merge(b);
  a2.merge(b2);
  EXPECT_EQ(a2.to_json(), a.to_json());
  EXPECT_EQ(report_state_json(a2), report_state_json(a));
}

TEST(RunReportStateIo, EmptyReportRoundTrips) {
  const RunReport empty;
  const RunReport parsed = report_from_state_json(report_state_json(empty));
  EXPECT_EQ(parsed.to_json(), empty.to_json());
}

TEST(RunReportStateIo, RejectsSchemaMismatchAndMissingKeys) {
  const std::string state = report_state_json(sample_report());

  // Wrong schema version: flip the leading "schema_version":5.
  std::string wrong = state;
  const auto pos = wrong.find("\"schema_version\":5");
  ASSERT_NE(pos, std::string::npos);
  wrong.replace(pos, 18, "\"schema_version\":1");
  EXPECT_THROW((void)report_from_state_json(wrong), std::invalid_argument);

  // Artefact digest alone (no distribution states) is not parseable state.
  EXPECT_THROW((void)report_from_state_json(sample_report().to_json()), std::invalid_argument);
  EXPECT_THROW((void)report_from_state_json("{}"), std::invalid_argument);
  EXPECT_THROW((void)report_from_state_json("not json"), std::invalid_argument);
}

TEST(RunReportStateIo, HistogramStateRoundTripPreservesQuantiles) {
  stats::Histogram h;
  for (std::int64_t v : {3, 7, 7, 250, 1'000'000, 123'456'789}) h.record(v);
  const stats::Histogram back = stats::Histogram::from_state(h.state());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.min(), h.min());
  EXPECT_EQ(back.max(), h.max());
  EXPECT_DOUBLE_EQ(back.mean(), h.mean());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) EXPECT_EQ(back.quantile(q), h.quantile(q));

  stats::Histogram::State bad = h.state();
  bad.count += 1;  // disagrees with slot sum
  EXPECT_THROW((void)stats::Histogram::from_state(bad), std::invalid_argument);
}

TEST(SerializeField, JsonEscapingAndCsvQuoting) {
  const auto f = stats::Field::str("note", "a \"quoted\", line\nnext");
  EXPECT_EQ(f.json(), R"("a \"quoted\", line\nnext")");
  EXPECT_EQ(f.csv(), "\"a \"\"quoted\"\", line\nnext\"");
  EXPECT_EQ(stats::Field::f64("x", 0.1).json(), "0.1");
  EXPECT_EQ(stats::Field::i64("n", -3).csv(), "-3");
}

}  // namespace
}  // namespace xdrs::core
