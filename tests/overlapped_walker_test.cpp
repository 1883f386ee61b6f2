/**
 * @file
 * Batched-dispatch identity tests: the dispatch batch depth is a pure
 * simulator-performance knob. Running the same scenario at depths
 * {1, 2, 8, 32} must produce bit-identical simulated results — every
 * metric, every registered counter and histogram — because batches never
 * cross slice boundaries and what a kernel path can read mid-batch (the
 * trace clock, the op clock) advances per op. Only the ".wrf.batches"
 * count may differ: it describes the batching itself. The matrix covers
 * both translation tables (radix descends level by level, hashed probe
 * by probe, each through its own table Cursor), armed fault plans, forked (COW-capable) jobs under a churn storm with
 * overcommit and dirty rings, and traced runs.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/trace_sink.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace ptm::sim {
namespace {

constexpr unsigned kDepths[] = {1, 2, 8, 32};

ScenarioConfig
small_config(const std::string &victim, std::uint64_t seed)
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim(victim)
                                .with_corunner("stress-ng", 2)
                                .with_scale(0.05)
                                .with_measure_ops(8'000)
                                .with_warmup_ops(3'000)
                                .with_seed(seed);
    config.platform.guest_frames = 16 * 1024;
    config.platform.host_frames = 24 * 1024;
    // Large enough that depth 32 actually forms 32-op batches (the
    // effective depth is min(walk_batch, remaining slice); the default
    // slice of 2 would cap every depth at 2).
    config.platform.slice_ops = 32;
    return config;
}

/// Every detailed op goes through a dispatch batch: each core's
/// ".walker.wrf.batched_ops" equals its ".job.ops".
void
expect_all_ops_batched(const obs::StatSnapshot &stats, unsigned depth)
{
    const std::string suffix = ".walker.wrf.batched_ops";
    unsigned cores = 0;
    for (const auto &entry : stats.entries()) {
        if (!entry.path.ends_with(suffix))
            continue;
        ++cores;
        const std::string prefix =
            entry.path.substr(0, entry.path.size() - suffix.size());
        EXPECT_EQ(entry.value, stats.value(prefix + ".job.ops"))
            << entry.path << " at depth " << depth;
    }
    EXPECT_GT(cores, 0u);
}

ScenarioResult
run_at_depth(ScenarioConfig config, unsigned depth)
{
    config.platform.walk_batch = depth;
    ScenarioResult result = run_scenario(config);
    expect_all_ops_batched(result.stats, depth);
    return result;
}

/// Assert two stat snapshots are identical; ".wrf.batches" is the one
/// allowed difference.
void
expect_same_stats(const obs::StatSnapshot &a, const obs::StatSnapshot &b,
                  unsigned depth)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        const auto &ea = a.entries()[i];
        const auto &eb = b.entries()[i];
        ASSERT_EQ(ea.path, eb.path);
        if (ea.path.ends_with(".wrf.batches"))
            continue;  // how many batches the ops were dispatched in
        if (ea.is_histogram) {
            EXPECT_EQ(ea.histogram.count, eb.histogram.count) << ea.path;
            EXPECT_EQ(ea.histogram.sum, eb.histogram.sum) << ea.path;
            EXPECT_EQ(ea.histogram.min, eb.histogram.min) << ea.path;
            EXPECT_EQ(ea.histogram.max, eb.histogram.max) << ea.path;
            EXPECT_EQ(ea.histogram.p50, eb.histogram.p50) << ea.path;
            EXPECT_EQ(ea.histogram.p99, eb.histogram.p99) << ea.path;
        } else {
            EXPECT_EQ(ea.value, eb.value)
                << "stat '" << ea.path << "' diverged at depth " << depth;
        }
    }
}

void
expect_same_metrics(const MetricSet &a, const MetricSet &b, unsigned depth)
{
    const auto &am = a.values();
    const auto &bm = b.values();
    ASSERT_EQ(am.size(), bm.size());
    for (const auto &[name, value] : am) {
        auto it = bm.find(name);
        ASSERT_NE(it, bm.end()) << name;
        EXPECT_EQ(value, it->second)
            << "metric '" << name << "' diverged at depth " << depth;
    }
}

/// Assert two results are simulated-state identical.
void
expect_identical(const ScenarioResult &a, const ScenarioResult &b,
                 unsigned depth)
{
    EXPECT_EQ(a.victim_cycles, b.victim_cycles) << "depth " << depth;
    EXPECT_EQ(a.victim_ops, b.victim_ops) << "depth " << depth;
    EXPECT_EQ(a.victim_rss_pages, b.victim_rss_pages) << "depth " << depth;
    EXPECT_EQ(a.total_ops, b.total_ops) << "depth " << depth;

    expect_same_metrics(a.metrics, b.metrics, depth);
    expect_same_stats(a.stats, b.stats, depth);
}

TEST(OverlappedWalker, BatchDepthIsMetricInvisible)
{
    ScenarioConfig config = small_config("pagerank", 7);
    ScenarioResult serial = run_at_depth(config, 1);
    for (unsigned depth : kDepths) {
        if (depth == 1)
            continue;
        expect_identical(serial, run_at_depth(config, depth), depth);
    }
}

TEST(OverlappedWalker, RandomizedWorkloadsAndSeedsMatchSerial)
{
    const struct {
        const char *victim;
        std::uint64_t seed;
    } cases[] = {{"cc", 3}, {"mcf", 11}, {"alloc_sweep", 23}};
    for (const auto &c : cases) {
        ScenarioConfig config = small_config(c.victim, c.seed);
        config.with_measure_ops(5'000);
        ScenarioResult serial = run_at_depth(config, 1);
        expect_identical(serial, run_at_depth(config, 8), 8);
    }
}

TEST(OverlappedWalker, IdentityHoldsUnderPtemagnet)
{
    ScenarioConfig config = small_config("pagerank", 7).with_ptemagnet();
    ScenarioResult serial = run_at_depth(config, 1);
    expect_identical(serial, run_at_depth(config, 8), 8);
}

TEST(OverlappedWalker, IdentityHoldsForHashedTables)
{
    // The hashed table's native step cursor must reproduce its buffered
    // walk() bit for bit at every depth — probe sequences, probe-bound
    // faults, and the probes counter included.
    ScenarioConfig config = small_config("pagerank", 7).with_table("hashed");
    ScenarioResult serial = run_at_depth(config, 1);
    for (unsigned depth : kDepths) {
        if (depth == 1)
            continue;
        expect_identical(serial, run_at_depth(config, depth), depth);
    }
}

TEST(OverlappedWalker, IdentityHoldsForHashedTablesWithFaultPlan)
{
    ScenarioConfig config = small_config("pagerank", 7)
                                .with_table("hashed")
                                .with_fault_plan(
                                    FaultPlan{}.deny_guest(3, 1'000)
                                        .periodic_pressure(2'000));
    ScenarioResult serial = run_at_depth(config, 1);
    ScenarioResult batched = run_at_depth(config, 32);
    expect_identical(serial, batched, 32);
    EXPECT_GT(batched.injected_denials + batched.pressure_episodes, 0u)
        << "plan never fired; the test exercises nothing";
}

TEST(OverlappedWalker, IdentityHoldsWithFaultPlanArmed)
{
    // Injected denials and pressure episodes fire at allocation events
    // (fault-time state), which batching must not displace. Order-3
    // denials exercise the single-frame fallback path without making
    // any fault unserviceable.
    ScenarioConfig config = small_config("pagerank", 7).with_fault_plan(
        FaultPlan{}.deny_guest(3, /*count=*/1'000)
                   .periodic_pressure(2'000));
    ScenarioResult serial = run_at_depth(config, 1);
    for (unsigned depth : kDepths) {
        if (depth == 1)
            continue;
        ScenarioResult batched = run_at_depth(config, depth);
        expect_identical(serial, batched, depth);
        EXPECT_GT(batched.injected_denials + batched.pressure_episodes,
                  0u)
            << "plan never fired; the test exercises nothing";
    }
}

TEST(OverlappedWalker, IdentityHoldsForForkedJobsUnderChurn)
{
    // Forked jobs break COW pages inside the batch loop; overcommit
    // reclaim and dirty-ring epochs run from host faults mid-batch.
    const std::uint64_t measure_ops = 20'000;
    ScenarioConfig config = ScenarioConfig{}
                                .with_workload("fork_storm")
                                .with_workload_param("request_ops", 96)
                                .with_scale(0.25)
                                .with_measure_ops(measure_ops)
                                .with_warmup_ops(0)
                                .with_seed(3);
    config.platform.guest_frames = 8192;
    config.platform.host_frames = 16 * 1024;
    config.platform.slice_ops = 32;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(192, 384)
                               .with_balloon_step(96)
                               .with_backoff(4, 64));
    config.with_churn(ChurnPlan::storm(/*seed=*/71, /*begin_step=*/500,
                                       /*end_step=*/measure_ops,
                                       /*boots=*/12, /*kills=*/4,
                                       /*forks=*/6)
                          .with_workload("fork_storm")
                          .with_scale(0.1)
                          .with_guest_frames(2048));
    // Short epochs: host faults close them mid-batch (reclaim daemon
    // ticks), on an op clock that must advance per op, not per batch.
    config.with_dirty_ring(DirtyRingConfig{}
                               .with_ring_entries(512)
                               .with_epoch_ops(256));

    ScenarioResult serial = run_at_depth(config, 1);
    EXPECT_GT(serial.churn_forks, 0u) << "no fork; no COW-capable job ran";
    EXPECT_GT(serial.dirty_ring_logged, 0u);
    for (unsigned depth : {2u, 8u})
        expect_identical(serial, run_at_depth(config, depth), depth);
}

struct TracedRun {
    std::string trace_json;
    std::size_t trace_events = 0;
    MetricSet metrics;
    obs::StatSnapshot stats;
};

/// A pagerank job forked mid-run (so its writes take COW breaks), with
/// or without a trace sink armed.
TracedRun
run_forked(unsigned depth, bool traced)
{
    PlatformConfig platform;
    platform.guest_frames = 16 * 1024;
    platform.host_frames = 24 * 1024;
    platform.slice_ops = 32;
    platform.walk_batch = depth;
    obs::TraceSink sink;  // declared first: outlives the system
    System system(platform, 2);
    if (traced)
        system.set_trace_sink(&sink);

    workload::WorkloadOptions options;
    options.scale = 0.05;
    options.seed = 7;
    Job &parent =
        system.add_job(workload::make_workload("pagerank", options));
    system.run_ops(parent, 4'000);
    options.seed = 8;
    system.fork_job(parent, workload::make_workload("pagerank", options));
    system.run_ops(parent, 8'000);

    TracedRun run;
    run.trace_json = sink.to_json();
    run.trace_events = sink.size();
    run.metrics = collect_metrics(system, parent);
    run.stats = system.stat_registry().snapshot();
    expect_all_ops_batched(run.stats, depth);
    return run;
}

TEST(OverlappedWalker, TracedForkedRunIsDepthAndObserverInvisible)
{
    TracedRun serial = run_forked(1, /*traced=*/true);
    ASSERT_GT(serial.trace_events, 0u);
    EXPECT_NE(serial.trace_json.find("\"walk\""), std::string::npos);
    EXPECT_GT(serial.stats.value("vm0.kernel.write_faults"), 0.0)
        << "no COW break; the forked path was not exercised";

    TracedRun batched = run_forked(8, /*traced=*/true);
    EXPECT_EQ(serial.trace_json, batched.trace_json);
    expect_same_metrics(serial.metrics, batched.metrics, 8);
    expect_same_stats(serial.stats, batched.stats, 8);

    // Armed vs disarmed: the sink is a pure observer.
    TracedRun disarmed = run_forked(8, /*traced=*/false);
    EXPECT_EQ(disarmed.trace_events, 0u);
    expect_same_metrics(batched.metrics, disarmed.metrics, 8);
    expect_same_stats(batched.stats, disarmed.stats, 8);
}

}  // namespace
}  // namespace ptm::sim
