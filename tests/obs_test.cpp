// Observability layer: metrics registry, span tracer, exporters, and the
// span structure both enactment machines emit.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agent/chaos.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/enact.hpp"
#include "wfl/structure.hpp"
#include "wfl/xml_io.hpp"

namespace ig {
namespace {

// -- metrics registry ----------------------------------------------------------

TEST(Metrics, CountersAndGaugesRoundTripThroughSnapshot) {
  obs::MetricsRegistry registry;
  registry.counter("events_total").inc();
  registry.counter("events_total").inc(4);
  registry.gauge("depth").set(3.5);
  registry.gauge("depth", {{"queue", "a"}}).set(1.0);

  const obs::RegistrySnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.points.size(), 3u);
  const obs::MetricPoint* events = snapshot.find("events_total");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->kind, obs::MetricKind::Counter);
  EXPECT_DOUBLE_EQ(events->value, 5.0);
  const obs::MetricPoint* labelled = snapshot.find("depth", {{"queue", "a"}});
  ASSERT_NE(labelled, nullptr);
  EXPECT_DOUBLE_EQ(labelled->value, 1.0);
  EXPECT_EQ(snapshot.find("missing"), nullptr);
}

TEST(Metrics, SameNameDifferentKindThrows) {
  obs::MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x", obs::default_latency_buckets()),
               std::logic_error);
  // Same name under different labels is a distinct instrument, same kind only.
  registry.counter("x", {{"shard", "0"}}).inc();
  EXPECT_THROW(registry.gauge("x", {{"shard", "0"}}), std::logic_error);
}

TEST(Metrics, InstrumentReferencesAreStableAcrossRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter& first = registry.counter("stable_total");
  first.inc();
  for (int i = 0; i < 100; ++i)
    registry.counter("filler_" + std::to_string(i)).inc();
  obs::Counter& again = registry.counter("stable_total");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(first.value(), 1u);
}

TEST(Metrics, HistogramQuantilesMatchSampleSetBitwise) {
  // The acceptance bar for the SampleSet -> registry migration: as long as
  // the sample ring has not wrapped, the histogram's quantiles are the same
  // doubles SampleSet::percentile produced — not approximately, bitwise.
  util::SampleSet reference;
  obs::Histogram histogram(obs::default_latency_buckets(), 4096);
  util::Rng rng(2004);
  for (int i = 0; i < 1000; ++i) {
    const double sample = rng.next_double(0.0, 45.0);
    reference.add(sample);
    histogram.observe(sample);
  }
  const obs::HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count, 1000u);
  for (const double q : {0.0, 12.5, 50.0, 90.0, 99.0, 100.0}) {
    const double expected = reference.percentile(q);
    const double actual = snapshot.quantile(q);
    EXPECT_EQ(expected, actual) << "q=" << q;  // bitwise, not EXPECT_DOUBLE_EQ
  }
  const std::vector<double> multi = snapshot.quantiles({50.0, 99.0});
  EXPECT_EQ(multi[0], reference.percentile(50.0));
  EXPECT_EQ(multi[1], reference.percentile(99.0));
}

TEST(Metrics, HistogramBucketsAreCumulativeConsistent) {
  obs::Histogram histogram({1.0, 2.0, 4.0}, 16);
  for (const double v : {0.5, 1.5, 1.5, 3.0, 100.0}) histogram.observe(v);
  const obs::HistogramSnapshot snapshot = histogram.snapshot();
  ASSERT_EQ(snapshot.buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snapshot.buckets[0], 1u);
  EXPECT_EQ(snapshot.buckets[1], 2u);
  EXPECT_EQ(snapshot.buckets[2], 1u);
  EXPECT_EQ(snapshot.buckets[3], 1u);
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 106.5);
}

TEST(Metrics, EmptyHistogramQuantileIsNaN) {
  obs::Histogram histogram(obs::default_latency_buckets());
  const obs::HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_TRUE(std::isnan(snapshot.quantile(50.0)));
  EXPECT_TRUE(std::isnan(snapshot.mean()));
}

TEST(Metrics, ConcurrentObserversProduceConsistentTotals) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("hits_total");
  obs::Histogram& histogram =
      registry.histogram("lat_seconds", obs::default_latency_buckets(), {}, 1 << 16);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        histogram.observe(0.001 * static_cast<double>(t + 1));
        if (i % 512 == 0) (void)registry.snapshot();  // readers race writers
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  const obs::HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_EQ(snapshot.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snapshot.samples.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

// -- span tracer ---------------------------------------------------------------

TEST(Spans, DisabledTracerHandsOutZeroAndRecordsNothing) {
  obs::SpanTracer tracer;
  EXPECT_EQ(tracer.begin(obs::SpanKind::Case, "c", "case-1", 0, 0.0), 0u);
  tracer.tag(0, "k", "v");
  tracer.end(0, 1.0);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Spans, LifecycleTagsAndParentLinks) {
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  const obs::SpanId root = tracer.begin(obs::SpanKind::Case, "proc", "case-1", 0, 1.0);
  const obs::SpanId child =
      tracer.begin(obs::SpanKind::Activity, "POD", "case-1", root, 2.0);
  tracer.tag(child, "status", "ok");
  tracer.end(child, 3.0);
  tracer.end(root, 4.0);
  tracer.end(root, 9.0);  // idempotent: the first close wins

  const std::vector<obs::Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::Case);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_DOUBLE_EQ(spans[0].end, 4.0);
  EXPECT_EQ(spans[1].parent, root);
  ASSERT_NE(spans[1].tag("status"), nullptr);
  EXPECT_EQ(*spans[1].tag("status"), "ok");
  EXPECT_EQ(spans[1].tag("missing"), nullptr);
  EXPECT_TRUE(spans[0].closed && spans[1].closed);
}

TEST(Spans, LimitDropsOldestClosedButKeepsOpenSpans) {
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  tracer.set_limit(4);
  const obs::SpanId open = tracer.begin(obs::SpanKind::Case, "c", "case-1", 0, 0.0);
  for (int i = 0; i < 10; ++i)
    tracer.instant(obs::SpanKind::Choice, "s" + std::to_string(i), "case-1", open,
                   static_cast<double>(i));
  EXPECT_LE(tracer.size(), 4u);
  EXPECT_GT(tracer.dropped(), 0u);
  // The open root survived the trim, so its close still lands.
  tracer.end(open, 99.0);
  bool root_closed = false;
  for (const obs::Span& span : tracer.spans())
    if (span.id == open) root_closed = span.closed;
  EXPECT_TRUE(root_closed);
}

TEST(Spans, CaseSpansFiltersByCase) {
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  tracer.instant(obs::SpanKind::Choice, "a", "case-1", 0, 0.0);
  tracer.instant(obs::SpanKind::Choice, "b", "case-2", 0, 0.0);
  tracer.instant(obs::SpanKind::Choice, "c", "case-1", 0, 0.0);
  EXPECT_EQ(tracer.case_spans("case-1").size(), 2u);
  EXPECT_EQ(tracer.case_spans("case-2").size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

// -- exporters and validators --------------------------------------------------

TEST(Exporters, PrometheusExpositionValidatesAndSkipsNaNGauges) {
  obs::MetricsRegistry registry;
  registry.counter("jobs_total", {{"state", "done"}}).inc(7);
  registry.gauge("temperature").set(std::nan(""));
  registry.histogram("lat_seconds", {0.1, 1.0}).observe(0.5);

  const std::string text = obs::to_prometheus(registry.snapshot());
  std::string problem;
  EXPECT_TRUE(obs::validate_prometheus(text, &problem)) << problem;
  EXPECT_NE(text.find("jobs_total{state=\"done\"} 7"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  // The NaN gauge is absent, not serialized as an unparseable value.
  EXPECT_EQ(text.find("temperature"), std::string::npos);
}

TEST(Exporters, JsonLinesEveryLineIsValidJson) {
  obs::MetricsRegistry registry;
  registry.counter("a_total").inc();
  registry.gauge("b").set(std::nan(""));  // must serialize as null
  registry.histogram("c_seconds", {1.0}).observe(0.5);
  const std::string lines = obs::to_json_lines(registry.snapshot(), "obs_test");
  std::istringstream stream(lines);
  std::string line;
  int count = 0;
  while (std::getline(stream, line)) {
    std::string problem;
    EXPECT_TRUE(obs::validate_json(line, &problem)) << problem << "\n" << line;
    ++count;
  }
  EXPECT_EQ(count, 3);
  EXPECT_NE(lines.find("null"), std::string::npos);
}

TEST(Exporters, ChromeTraceValidatesAndCarriesLinks) {
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  const obs::SpanId root = tracer.begin(obs::SpanKind::Case, "proc", "case-1", 0, 0.0);
  const obs::SpanId child =
      tracer.begin(obs::SpanKind::Activity, "A \"quoted\"\n", "case-1", root, 1.0);
  tracer.tag(child, "status", "ok");
  tracer.end(child, 2.0);
  tracer.end(root, 3.0);

  const std::string trace = obs::to_chrome_trace(tracer.spans());
  std::string problem;
  EXPECT_TRUE(obs::validate_json(trace, &problem)) << problem;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"parent\":" + std::to_string(root)), std::string::npos);
}

TEST(Exporters, ValidatorsRejectMalformedInput) {
  std::string problem;
  EXPECT_FALSE(obs::validate_json("{\"a\":}", &problem));
  EXPECT_FALSE(problem.empty());
  EXPECT_FALSE(obs::validate_json("{\"a\":1} trailing", &problem));
  EXPECT_FALSE(obs::validate_json("{'a':1}", &problem));  // no single quotes
  EXPECT_FALSE(obs::validate_json("[1,2,]", &problem));
  EXPECT_FALSE(obs::validate_json("", &problem));
  EXPECT_TRUE(obs::validate_json("{\"nested\":[1,2,{\"b\":null}]}", &problem)) << problem;

  EXPECT_FALSE(obs::validate_prometheus("", &problem));  // empty page = no metrics
  EXPECT_FALSE(obs::validate_prometheus("1metric 2\n", &problem));  // bad name
  EXPECT_FALSE(obs::validate_prometheus("metric notanumber\n", &problem));
  EXPECT_FALSE(obs::validate_prometheus("metric nan\n", &problem));  // not finite
  EXPECT_TRUE(obs::validate_prometheus("# HELP x y\nx{a=\"b\"} 4.5\n", &problem))
      << problem;
}

// -- synchronous machine span structure ----------------------------------------

TEST(EnactSpans, ForkJoinWorkflowEmitsOneActivitySpanPerExecution) {
  const wfl::ProcessDescription process = wfl::lower_to_process(
      wfl::parse_flow(
          "BEGIN, POD; P3DR1=P3DR; {FORK {P3DR2=P3DR} {P3DR3=P3DR} JOIN}; PSF, END"),
      "forky");
  const wfl::ServiceCatalogue catalogue = virolab::make_catalogue();
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  wfl::EnactmentOptions options;
  options.tracer = &tracer;
  options.trace_case_id = "case-sync";
  const wfl::EnactmentResult result =
      enact(process, virolab::make_case_description(), wfl::make_catalogue_executor(catalogue),
            options);
  ASSERT_TRUE(result.success) << result.error;

  const std::vector<obs::Span> spans = tracer.spans();
  ASSERT_FALSE(spans.empty());
  const obs::Span& root = spans.front();
  EXPECT_EQ(root.kind, obs::SpanKind::Case);
  ASSERT_NE(root.tag("success"), nullptr);
  EXPECT_EQ(*root.tag("success"), "true");

  std::map<std::string, int> activity_spans;
  int forks = 0;
  int joins = 0;
  for (const obs::Span& span : spans) {
    EXPECT_TRUE(span.closed) << span.name;
    EXPECT_LE(span.start, span.end);
    EXPECT_EQ(span.case_id, "case-sync");
    if (span.id != root.id) {
      EXPECT_EQ(span.parent, root.id);
      EXPECT_GE(span.start, root.start);
      EXPECT_LE(span.end, root.end);
    }
    if (span.kind == obs::SpanKind::Activity) {
      ++activity_spans[span.name];
      ASSERT_NE(span.tag("status"), nullptr) << span.name;
      EXPECT_EQ(*span.tag("status"), "ok");
      EXPECT_GT(span.end, span.start);  // an execution costs a machine step
    }
    if (span.kind == obs::SpanKind::Barrier) {
      ASSERT_NE(span.tag("type"), nullptr);
      if (*span.tag("type") == "fork") {
        ++forks;
        ASSERT_NE(span.tag("fanout"), nullptr);
        EXPECT_EQ(*span.tag("fanout"), "2");
      } else {
        ++joins;
        ASSERT_NE(span.tag("arrivals"), nullptr);
        EXPECT_EQ(*span.tag("arrivals"), "2");
      }
    }
  }
  // Exactly one Activity span per end-user execution of this loop-free flow.
  EXPECT_EQ(activity_spans.size(), 5u);
  for (const auto& [name, count] : activity_spans) EXPECT_EQ(count, 1) << name;
  EXPECT_EQ(forks, 1);
  EXPECT_EQ(joins, 1);
}

TEST(EnactSpans, LoopEmitsIterationSpansAndChoiceDecisions) {
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  wfl::EnactmentOptions options;
  options.tracer = &tracer;
  const wfl::ServiceCatalogue catalogue = virolab::make_catalogue();
  virolab::SyntheticKernels kernels;
  const auto executor = [&](const wfl::Activity& activity,
                            const wfl::DataSet& state)
      -> std::optional<std::vector<wfl::DataSpec>> {
    const wfl::ServiceType* service = catalogue.find(activity.service_name);
    if (service == nullptr) return std::nullopt;
    auto bindings = service->bind_inputs(state);
    if (!bindings.has_value()) return std::nullopt;
    return kernels.execute(*service, *bindings, activity.output_data);
  };
  const wfl::EnactmentResult result = enact(
      virolab::make_fig10_process(), virolab::make_case_description(), executor, options);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.activities_executed, 12);  // two refinement passes

  int choices = 0;
  int iterations = 0;
  for (const obs::Span& span : tracer.spans()) {
    EXPECT_TRUE(span.closed);
    if (span.kind == obs::SpanKind::Choice) ++choices;
    if (span.kind == obs::SpanKind::Iteration) ++iterations;
  }
  EXPECT_EQ(choices, 2);     // loop decision taken twice (continue, then exit)
  EXPECT_EQ(iterations, 1);  // one back-edge pass opened and closed
}

// -- coordination service span structure (chaos crash + retry + replay) --------

using agent::AclMessage;
using agent::Performative;

class SpanClient : public agent::Agent {
 public:
  using Agent::Agent;
  void handle_message(const AclMessage& message) override { replies.push_back(message); }
  std::vector<AclMessage> replies;
};

struct ChaosTraceRun {
  std::vector<obs::Span> spans;
  std::string success;
};

/// One traced fig10 enactment where the container that would serve the
/// first dispatch crashes on delivery, forcing a visible retry.
ChaosTraceRun traced_chaos_run() {
  svc::EnvironmentOptions options;
  options.span_tracing = true;
  agent::AgentFault crash;
  crash.agent = "ac-1";
  crash.after_deliveries = 1;
  options.chaos.agent_faults.push_back(crash);
  options.chaos.seed = 11;
  auto environment = svc::make_environment(options);
  auto& client = environment->platform().spawn<SpanClient>("ui");

  AclMessage request;
  request.performative = Performative::Request;
  request.sender = client.name();
  request.receiver = svc::names::kCoordination;
  request.protocol = svc::protocols::kEnactCase;
  request.content = wfl::process_to_xml_string(virolab::make_fig10_process());
  request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
  environment->platform().send(request);
  environment->run();

  ChaosTraceRun run;
  run.spans = environment->tracer().spans();
  if (!client.replies.empty()) run.success = client.replies.back().param("success");
  return run;
}

TEST(CoordinationSpans, ChaosCrashLeavesRetryTagsWithExactLinksAndOrdering) {
  const ChaosTraceRun run = traced_chaos_run();
  ASSERT_EQ(run.success, "true");
  ASSERT_FALSE(run.spans.empty());

  const obs::Span& root = run.spans.front();
  ASSERT_EQ(root.kind, obs::SpanKind::Case);
  EXPECT_TRUE(root.closed);
  ASSERT_NE(root.tag("success"), nullptr);
  EXPECT_EQ(*root.tag("success"), "true");

  bool saw_retry = false;
  for (const obs::Span& span : run.spans) {
    EXPECT_TRUE(span.closed) << span.name;
    EXPECT_LE(span.start, span.end) << span.name;
    EXPECT_EQ(span.case_id, root.case_id);
    if (span.id == root.id) continue;
    // Every child hangs off the case span and lives inside its window.
    EXPECT_EQ(span.parent, root.id) << span.name;
    EXPECT_GE(span.start, root.start) << span.name;
    EXPECT_LE(span.end, root.end) << span.name;
    if (span.kind != obs::SpanKind::Activity) continue;
    if (span.tag("retry") != nullptr) {
      saw_retry = true;
      // The crash bounced the dispatch: the span records the fault, then the
      // re-dispatch that succeeded on another container.
      ASSERT_NE(span.tag("fault"), nullptr) << span.name;
      ASSERT_NE(span.tag("status"), nullptr) << span.name;
      EXPECT_EQ(*span.tag("status"), "ok") << span.name;
      ASSERT_NE(span.tag("container"), nullptr) << span.name;
      EXPECT_NE(*span.tag("container"), "ac-1") << span.name;
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(CoordinationSpans, SameSeedChaosRunReplaysSpansBitwise) {
  const ChaosTraceRun first = traced_chaos_run();
  const ChaosTraceRun second = traced_chaos_run();
  ASSERT_EQ(first.success, second.success);
  ASSERT_EQ(first.spans.size(), second.spans.size());
  for (std::size_t i = 0; i < first.spans.size(); ++i)
    EXPECT_EQ(first.spans[i], second.spans[i]) << "span " << i;
}

}  // namespace
}  // namespace ig
