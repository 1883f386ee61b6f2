/**
 * @file
 * Integration tests: whole-system scenarios asserting the paper's
 * qualitative claims end-to-end (small scales to keep ctest fast).
 */
#include <gtest/gtest.h>

#include "core/ptemagnet_provider.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace ptm::sim {
namespace {

PlatformConfig
small_platform()
{
    PlatformConfig platform;
    platform.guest_frames = 32 * 1024;
    platform.host_frames = 48 * 1024;
    return platform;
}

ScenarioConfig
small_scenario(const std::string &victim, bool ptemagnet)
{
    ScenarioConfig config;
    config.victim = victim;
    config.corunners = {{"objdet", 4}};
    config.policy_name = ptemagnet ? "ptemagnet" : "buddy";
    config.scale = 0.125;
    config.measure_ops = 60'000;
    config.corunner_warmup_ops = 20'000;
    config.platform = small_platform();
    return config;
}

TEST(SystemTest, JobRunsAndAccumulatesCycles)
{
    System system(small_platform(), 1);
    workload::WorkloadOptions options;
    options.scale = 0.125;
    Job &job = system.add_job(workload::make_workload("gcc", options));
    system.run_ops(job, 1000);
    EXPECT_GE(job.stats().ops.value(), 1000u);
    EXPECT_GT(job.stats().cycles.value(),
              job.stats().ops.value());
    EXPECT_GT(system.guest().stats().faults_handled.value(), 0u);
    EXPECT_GT(system.host().stats().pages_backed.value(), 0u);
}

TEST(SystemTest, DeterministicGivenSeed)
{
    auto run = []() {
        ScenarioConfig config = small_scenario("pagerank", false);
        config.measure_ops = 20'000;
        return run_scenario(config).victim_cycles;
    };
    EXPECT_EQ(run(), run());
}

TEST(SystemTest, SeedChangesOutcome)
{
    ScenarioConfig config = small_scenario("pagerank", false);
    config.measure_ops = 20'000;
    ScenarioResult a = run_scenario(config);
    config.seed = 99;
    ScenarioResult b = run_scenario(config);
    EXPECT_NE(a.victim_cycles, b.victim_cycles);
}

TEST(SystemTest, PtemagnetDrivesFragmentationToOne)
{
    ScenarioResult result = run_scenario(small_scenario("pagerank", true));
    EXPECT_DOUBLE_EQ(result.fragmentation.average_hpte_lines, 1.0);
    EXPECT_DOUBLE_EQ(result.fragmentation.fragmented_fraction, 0.0);
}

TEST(SystemTest, BaselineFragmentsUnderColocation)
{
    ScenarioResult result =
        run_scenario(small_scenario("pagerank", false));
    EXPECT_GT(result.fragmentation.average_hpte_lines, 1.5);
    EXPECT_GT(result.fragmentation.fragmented_fraction, 0.3);
}

TEST(SystemTest, PtemagnetNeverSlower)
{
    // The paper's deployment-critical claim (§6.1), probed on a
    // TLB-heavy and a TLB-light benchmark.
    for (const char *victim : {"pagerank", "gcc"}) {
        PairedResult pair = run_paired(small_scenario(victim, false));
        EXPECT_GE(pair.improvement_percent(), -0.5)
            << victim << " must not regress";
    }
}

TEST(SystemTest, PtemagnetCutsBuddyCallsRoughly8x)
{
    PairedResult pair = run_paired(small_scenario("pagerank", false));
    EXPECT_LT(pair.ptemagnet.buddy_calls * 4, pair.baseline.buddy_calls);
    EXPECT_GT(pair.ptemagnet.stats.value("vm0.provider.part_hits"),
              static_cast<double>(pair.ptemagnet.buddy_calls));
}

TEST(SystemTest, MetricSetContainsPaperCounters)
{
    ScenarioResult result = run_scenario(small_scenario("xz", false));
    for (const char *name :
         {"execution_time", "cache_misses", "tlb_misses",
          "page_walk_cycles", "host_pt_walk_cycles",
          "guest_pt_mem_accesses", "host_pt_mem_accesses",
          "host_pt_fragmentation"}) {
        EXPECT_TRUE(result.metrics.has(name)) << name;
        EXPECT_GE(result.metrics.get(name), 0.0) << name;
    }
}

TEST(SystemTest, IdenticalAccessStreamsAcrossProviders)
{
    // PTEMagnet must not change *what* the application does — only the
    // frames behind it. TLB miss counts are a fingerprint of the access
    // stream.
    PairedResult pair = run_paired(small_scenario("cc", false));
    EXPECT_EQ(pair.baseline.metrics.get("tlb_misses"),
              pair.ptemagnet.metrics.get("tlb_misses"));
    EXPECT_EQ(pair.baseline.victim_ops, pair.ptemagnet.victim_ops);
}

TEST(SystemTest, GranularitySweepIsMonotonic)
{
    ScenarioConfig config = small_scenario("pagerank", true);
    config.measure_ops = 30'000;
    double prev = 100.0;
    for (unsigned pages : {2u, 4u, 8u}) {
        config.reservation_pages = pages;
        ScenarioResult result = run_scenario(config);
        EXPECT_LE(result.fragmentation.average_hpte_lines, prev + 1e-9)
            << pages;
        prev = result.fragmentation.average_hpte_lines;
    }
    EXPECT_DOUBLE_EQ(prev, 1.0) << "8-page groups pack perfectly";
}

TEST(SystemTest, UnusedReservationFractionIsSmall)
{
    ScenarioResult result = run_scenario(small_scenario("cc", true));
    EXPECT_LT(result.peak_unused_reservation_fraction, 0.02)
        << "paper: <0.2% of footprint; generous bound for small scale";
}

TEST(SystemTest, Table1ProtocolShowsFragmentationSlowdown)
{
    // Baseline-kernel execution with fragmented memory must be slower
    // than standalone at equal work, with TLB misses unchanged.
    ScenarioConfig config;
    config.victim = "pagerank";
    config.scale = 0.125;
    config.measure_ops = 60'000;
    config.stop_corunners_after_init = true;
    config.platform = small_platform();

    ScenarioResult standalone = run_scenario(config);
    config.corunners = {{"stress-ng", 8}};
    ScenarioResult colocated = run_scenario(config);

    EXPECT_GT(colocated.fragmentation.average_hpte_lines,
              standalone.fragmentation.average_hpte_lines * 1.5);
    EXPECT_GT(colocated.victim_cycles, standalone.victim_cycles);
    EXPECT_EQ(colocated.metrics.get("tlb_misses"),
              standalone.metrics.get("tlb_misses"));
}

TEST(SystemTest, ForkedJobSharesThenDiverges)
{
    System system(small_platform(), 2);
    workload::WorkloadOptions options;
    options.scale = 0.05;
    Job &parent =
        system.add_job(workload::make_workload("gcc", options));
    system.run_ops(parent, 2000);  // parent faults in some memory
    std::uint64_t parent_rss = parent.process().rss_pages();
    ASSERT_GT(parent_rss, 0u);

    Job &child =
        system.fork_job(parent, workload::make_workload("gcc", options));
    EXPECT_EQ(child.process().rss_pages(), parent_rss);

    // Both keep running; COW breaks must not corrupt translations.
    system.run_ops(parent, 2000);
    system.run_ops(child, 2000);
    EXPECT_GT(system.guest().stats().write_faults.value(), 0u);
}

TEST(SystemTest, StressWorkersChurnWithoutLeaks)
{
    System system(small_platform(), 2);
    workload::WorkloadOptions options;
    options.scale = 0.125;
    system.add_job(workload::make_workload("stress-ng", options));
    Job &anchor =
        system.add_job(workload::make_workload("pyaes", options));
    system.run_ops(anchor, 30'000);
    system.guest().buddy().check_invariants();
    // The churner's live memory is bounded by its live-chunk window.
    EXPECT_LT(system.guest().buddy().allocated_frames_count(),
              system.guest().buddy().total_frames() / 2);
}

}  // namespace
}  // namespace ptm::sim
