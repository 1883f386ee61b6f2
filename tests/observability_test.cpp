/**
 * @file
 * Unit and integration tests for the observability layer (ptm::obs):
 * registry path rules and reset scopes, histogram percentile correctness
 * against a reference sort, trace-sink JSON well-formedness, and the
 * bit-identity guarantee of disarmed tracing on a full System.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/stat_registry.hpp"
#include "obs/trace_sink.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "sim/suite.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace ptm {
namespace {

using obs::ResetScope;
using obs::StatRegistry;
using obs::StatSnapshot;
using obs::TraceSink;

// ---- registry ------------------------------------------------------

TEST(StatRegistry, SnapshotReadsLiveCounters)
{
    Counter hits;
    Counter misses;
    StatRegistry registry;
    registry.counter("l1.hits", &hits);
    registry.counter("l1.misses", &misses);
    hits.inc(7);
    misses.inc(3);

    StatSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.size(), 2u);
    EXPECT_TRUE(snap.has("l1.hits"));
    EXPECT_FALSE(snap.has("l1.evictions"));
    EXPECT_DOUBLE_EQ(snap.value("l1.hits"), 7.0);
    EXPECT_DOUBLE_EQ(snap.value("l1.misses"), 3.0);

    // The snapshot is a copy: later increments do not bleed into it.
    hits.inc(100);
    EXPECT_DOUBLE_EQ(snap.value("l1.hits"), 7.0);
    EXPECT_DOUBLE_EQ(registry.snapshot().value("l1.hits"), 107.0);
}

TEST(StatRegistry, SnapshotSummarizesHistograms)
{
    Histogram lat;
    StatRegistry registry;
    registry.histogram("walker.walk_cycles", &lat);
    for (std::uint64_t v = 1; v <= 100; ++v)
        lat.record(v);

    StatSnapshot snap = registry.snapshot();
    const obs::HistogramSummary &s = snap.histogram("walker.walk_cycles");
    EXPECT_EQ(s.count, 100u);
    EXPECT_EQ(s.sum, 5050u);
    EXPECT_EQ(s.min, 1u);
    EXPECT_EQ(s.max, 100u);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    // Log2 buckets: the quantiles land on bucket upper bounds, so they
    // over-estimate by at most 2x and never under-estimate.
    EXPECT_GE(s.p50, 50u);
    EXPECT_LE(s.p50, 100u);
    EXPECT_GE(s.p99, 99u);
}

TEST(StatRegistryDeathTest, DuplicatePathIsFatal)
{
    Counter a;
    Counter b;
    StatRegistry registry;
    registry.counter("vm0.kernel.faults", &a);
    EXPECT_DEATH(registry.counter("vm0.kernel.faults", &b), "duplicate");
}

TEST(StatRegistryDeathTest, TypeMismatchOnReadIsFatal)
{
    Counter c;
    StatRegistry registry;
    registry.counter("x", &c);
    StatSnapshot snap = registry.snapshot();
    EXPECT_DEATH(snap.histogram("x"), "x");
    EXPECT_DEATH(snap.value("missing"), "missing");
}

TEST(StatRegistry, ResetHonorsScope)
{
    Counter lifetime;
    Counter window;
    Histogram hist;
    StatRegistry registry;
    registry.counter("buddy.alloc_calls", &lifetime,
                     ResetScope::Lifetime);
    registry.counter("core0.job.ops", &window, ResetScope::Measurement);
    registry.histogram("core0.walker.walk_cycles", &hist,
                       ResetScope::Measurement);
    lifetime.inc(5);
    window.inc(5);
    hist.record(42);

    registry.reset(ResetScope::Measurement);
    EXPECT_EQ(lifetime.value(), 5u);
    EXPECT_EQ(window.value(), 0u);
    EXPECT_EQ(hist.count(), 0u);

    registry.reset(ResetScope::Lifetime);
    EXPECT_EQ(lifetime.value(), 0u);
}

// ---- snapshot equality ----------------------------------------------

obs::HistogramSummary
summary_with_p99(std::uint64_t p99)
{
    obs::HistogramSummary h;
    h.count = 10;
    h.sum = 100;
    h.max = p99;
    h.mean = 10.0;
    h.p50 = 8;
    h.p90 = 16;
    h.p99 = p99;
    return h;
}

TEST(StatSnapshotEquality, OneCounterApartComparesUnequal)
{
    StatSnapshot a;
    a.add_counter("vm0.buddy.alloc_calls", 5);
    a.add_counter("vm0.buddy.free_calls", 2);
    StatSnapshot b = a;
    EXPECT_TRUE(a == b);

    StatSnapshot c;
    c.add_counter("vm0.buddy.alloc_calls", 5);
    c.add_counter("vm0.buddy.free_calls", 3);
    EXPECT_FALSE(a == c);
}

TEST(StatSnapshotEquality, OneHistogramP99ApartComparesUnequal)
{
    StatSnapshot a;
    a.add_histogram("vm0.core0.walker.walk_cycles_hist",
                    summary_with_p99(64));
    StatSnapshot b;
    b.add_histogram("vm0.core0.walker.walk_cycles_hist",
                    summary_with_p99(64));
    EXPECT_TRUE(a == b);

    StatSnapshot c;
    obs::HistogramSummary h = summary_with_p99(64);
    h.p99 = 128;
    c.add_histogram("vm0.core0.walker.walk_cycles_hist", h);
    EXPECT_FALSE(a == c);
}

TEST(StatSnapshotEquality, EntryOrderMatters)
{
    StatSnapshot a;
    a.add_counter("host.kernel.faults_handled", 1);
    a.add_counter("vm0.kernel.faults_handled", 2);
    StatSnapshot b;
    b.add_counter("vm0.kernel.faults_handled", 2);
    b.add_counter("host.kernel.faults_handled", 1);
    EXPECT_FALSE(a == b);
}

// ---- histogram percentiles vs a reference sort ---------------------

/// The ceil(q/100 * n)-th smallest sample — the rank percentile() aims at.
std::uint64_t
reference_percentile(std::vector<std::uint64_t> values, double q)
{
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(values.size())));
    if (rank == 0)
        rank = 1;
    return values[rank - 1];
}

TEST(HistogramPercentiles, LinearPolicyIsExact)
{
    // With one bucket per value, percentile() must agree exactly with a
    // sorted reference for any distribution.
    Histogram h(BucketPolicy::Linear, 256);
    Rng rng(17);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 10'000; ++i) {
        std::uint64_t v = rng.below(256);
        values.push_back(v);
        h.record(v);
    }
    for (double q : {10.0, 50.0, 90.0, 99.0}) {
        EXPECT_EQ(h.percentile(q), reference_percentile(values, q))
            << "q=" << q;
    }
    EXPECT_EQ(h.p50(), reference_percentile(values, 50.0));
    EXPECT_EQ(h.p90(), reference_percentile(values, 90.0));
    EXPECT_EQ(h.p99(), reference_percentile(values, 99.0));
}

TEST(HistogramPercentiles, Log2PolicyBoundsTheReference)
{
    // Log2 buckets report the bucket's upper bound: never below the true
    // percentile and at most 2x above it.
    Histogram h;
    Rng rng(23);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 10'000; ++i) {
        std::uint64_t v = 1 + rng.below(100'000);
        values.push_back(v);
        h.record(v);
    }
    for (double q : {50.0, 90.0, 99.0}) {
        std::uint64_t truth = reference_percentile(values, q);
        std::uint64_t est = h.percentile(q);
        EXPECT_GE(est, truth) << "q=" << q;
        EXPECT_LE(est, 2 * truth) << "q=" << q;
    }
}

TEST(HistogramPercentiles, MergeMatchesCombinedRecording)
{
    Histogram a(BucketPolicy::Linear, 64);
    Histogram b(BucketPolicy::Linear, 64);
    Histogram both(BucketPolicy::Linear, 64);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.below(64);
        ((i % 2 == 0) ? a : b).record(v);
        both.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    for (double q : {0.50, 0.90, 0.99})
        EXPECT_EQ(a.percentile(q), both.percentile(q)) << "q=" << q;
}

// ---- trace sink ----------------------------------------------------

TEST(TraceSinkTest, JsonRoundTripsThroughSimParser)
{
    TraceSink sink;
    sink.set_now(100, 2);
    sink.event_now("walk", "mmu", 40,
                   {{"gva", 0x1234000ull}, {"gpa", 0x5000ull},
                    {"hpa", 0x9000ull}});
    sink.event("guest_fault", "kernel", 150, 1200, 0,
               {{"pid", 1ull}, {"gvpn", 7ull}, {"gfn", 42ull}});

    sim::Json doc = sim::Json::parse(sink.to_json());
    const sim::JsonArray &events = doc.at("traceEvents").as_array();
    ASSERT_EQ(events.size(), 2u);

    const sim::Json &walk = events[0];
    EXPECT_EQ(walk.at("name").as_string(), "walk");
    EXPECT_EQ(walk.at("cat").as_string(), "mmu");
    EXPECT_EQ(walk.at("ph").as_string(), "X");
    EXPECT_EQ(walk.at("ts").as_u64(), 100u);
    EXPECT_EQ(walk.at("dur").as_u64(), 40u);
    EXPECT_EQ(walk.at("tid").as_u64(), 2u);
    EXPECT_EQ(walk.at("args").at("gva").as_u64(), 0x1234000u);
    EXPECT_EQ(walk.at("args").at("gpa").as_u64(), 0x5000u);
    EXPECT_EQ(walk.at("args").at("hpa").as_u64(), 0x9000u);

    const sim::Json &fault = events[1];
    EXPECT_EQ(fault.at("name").as_string(), "guest_fault");
    EXPECT_EQ(fault.at("args").at("gfn").as_u64(), 42u);
}

TEST(TraceSinkTest, RetentionCapCountsDrops)
{
    TraceSink sink(4);
    for (unsigned i = 0; i < 10; ++i)
        sink.event("e", "c", i, 1, 0, {});
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    sim::Json doc = sim::Json::parse(sink.to_json());
    EXPECT_EQ(doc.at("otherData").at("dropped_events").as_u64(), 6u);
}

// ---- System integration --------------------------------------------

sim::PlatformConfig
tiny_platform()
{
    sim::PlatformConfig platform;
    platform.guest_frames = 32 * 1024;
    platform.host_frames = 48 * 1024;
    return platform;
}

/// Run a small two-job scenario, optionally with a trace sink armed,
/// and return the resulting metric set.
MetricSet
run_traced(TraceSink *sink)
{
    sim::System system(tiny_platform(), 2);
    system.set_policy("ptemagnet");
    if (sink != nullptr)
        system.set_trace_sink(sink);
    workload::WorkloadOptions options;
    options.scale = 0.125;
    sim::Job &victim =
        system.add_job(workload::make_workload("pagerank", options));
    options.seed = 2;
    system.add_job(workload::make_workload("objdet", options));
    system.run_until([&]() {
        return victim.stats().ops.value() >= 30'000;
    });
    return sim::collect_metrics(system, victim);
}

TEST(SystemObservability, DisarmedTraceIsBitIdentical)
{
    // The null-check-hook discipline: simulated state with tracing armed
    // must equal state with tracing disarmed, metric for metric.
    MetricSet disarmed = run_traced(nullptr);
    TraceSink sink;
    MetricSet armed = run_traced(&sink);

    EXPECT_GT(sink.size(), 0u);
    for (const auto &[name, value] : disarmed.values()) {
        EXPECT_DOUBLE_EQ(armed.get(name), value) << name;
    }
    // Sanity: the run did real work, so key metrics are nonzero.
    EXPECT_GT(disarmed.get("execution_time"), 0.0);
    EXPECT_GT(disarmed.get("tlb_misses"), 0.0);
}

TEST(SystemObservability, TraceCarriesWalkAndFaultEvents)
{
    TraceSink sink;
    run_traced(&sink);
    sim::Json doc = sim::Json::parse(sink.to_json());
    const sim::JsonArray &events = doc.at("traceEvents").as_array();
    ASSERT_FALSE(events.empty());

    bool saw_walk = false;
    bool saw_fault = false;
    for (const sim::Json &event : events) {
        const std::string &name = event.at("name").as_string();
        if (name == "walk") {
            saw_walk = true;
            EXPECT_TRUE(event.at("args").contains("gva"));
            EXPECT_TRUE(event.at("args").contains("gpa"));
            EXPECT_TRUE(event.at("args").contains("hpa"));
        } else if (name == "guest_fault") {
            saw_fault = true;
            EXPECT_TRUE(event.at("args").contains("gvpn"));
            EXPECT_TRUE(event.at("args").contains("gfn"));
        }
    }
    EXPECT_TRUE(saw_walk);
    EXPECT_TRUE(saw_fault);
}

TEST(SystemObservability, RegistryCoversEveryLayer)
{
    sim::System system(tiny_platform(), 1);
    system.set_policy("ptemagnet");
    workload::WorkloadOptions options;
    options.scale = 0.125;
    sim::Job &job =
        system.add_job(workload::make_workload("gcc", options));
    system.run_ops(job, 5'000);

    StatSnapshot snap = system.stat_registry().snapshot();
    // One representative path per component family.
    EXPECT_TRUE(snap.has("vm0.kernel.faults_handled"));
    EXPECT_TRUE(snap.has("vm0.buddy.alloc_calls"));
    EXPECT_TRUE(snap.has("vm0.provider.part_hits"));
    EXPECT_TRUE(snap.has("host.kernel.pages_backed"));
    EXPECT_TRUE(snap.has("vm0.hier.llc.hits.data"));
    EXPECT_TRUE(snap.has("vm0.core0.job.ops"));
    EXPECT_TRUE(snap.has("vm0.core0.walker.tlb_misses"));
    EXPECT_TRUE(snap.has("vm0.core0.l2tlb.misses"));
    EXPECT_TRUE(snap.has("vm0.core0.pwc_l0.hits"));
    EXPECT_TRUE(snap.has("vm0.core0.nested_tlb.hits"));
    EXPECT_TRUE(snap.has("vm0.core0.walker.walk_cycles_hist"));
    EXPECT_TRUE(snap.has("vm0.kernel.fault_latency"));
    EXPECT_TRUE(snap.has("vm0.buddy.split_depth"));

    EXPECT_GT(snap.value("vm0.core0.job.ops"), 0.0);
    const obs::HistogramSummary &walks =
        snap.histogram("vm0.core0.walker.walk_cycles_hist");
    EXPECT_GT(walks.count, 0u);
    EXPECT_GT(walks.p50, 0u);
    EXPECT_LE(walks.p50, walks.p99);

    // Measurement reset clears the window stats but not the allocators.
    system.reset_measurement();
    StatSnapshot after = system.stat_registry().snapshot();
    EXPECT_DOUBLE_EQ(after.value("vm0.core0.job.ops"), 0.0);
    EXPECT_EQ(after.histogram("vm0.core0.walker.walk_cycles_hist").count,
              0u);
    EXPECT_GT(after.value("vm0.buddy.alloc_calls"), 0.0);
}

TEST(SystemObservability, ScenarioResultCarriesStatsBlock)
{
    sim::ScenarioConfig config;
    config.victim = "pagerank";
    config.scale = 0.125;
    config.measure_ops = 20'000;
    config.corunner_warmup_ops = 0;
    config.platform = tiny_platform();
    sim::ScenarioResult result = sim::run_scenario(config);
    EXPECT_FALSE(result.stats.empty());
    EXPECT_GT(result.stats.value("vm0.core0.job.ops"), 0.0);
    EXPECT_GT(
        result.stats.histogram("vm0.core0.walker.walk_cycles_hist").count,
        0u);
}

TEST(StatSnapshotEquality, JsonRoundTripComparesEqual)
{
    sim::ScenarioConfig config;
    config.victim = "pagerank";
    config.scale = 0.125;
    config.measure_ops = 20'000;
    config.corunner_warmup_ops = 0;
    config.platform = tiny_platform();
    const sim::ScenarioResult result =
        sim::run_scenario(config.with_ptemagnet());
    ASSERT_FALSE(result.stats.empty());

    const sim::ScenarioResult back = sim::scenario_result_from_json(
        sim::Json::parse(sim::to_json(result).dump(2)));
    EXPECT_TRUE(back.stats == result.stats);
    EXPECT_TRUE(back.vms == result.vms);
}

}  // namespace
}  // namespace ptm
