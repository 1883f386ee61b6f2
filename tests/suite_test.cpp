/**
 * @file
 * Tests for the experiment driver layer: the JSON model, the thread
 * pool, and — most importantly — that ExperimentSuite's parallel
 * execution is bit-identical to serial execution (every `System` is
 * self-contained, so scheduling runs across threads must not perturb
 * results).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/suite.hpp"

namespace ptm::sim {
namespace {

// ---- Json ------------------------------------------------------------

TEST(JsonTest, BuildsAndDumpsCompact)
{
    Json doc = Json::object();
    doc.set("name", "fig6");
    doc.set("count", std::uint64_t{42});
    doc.set("ratio", 0.5);
    doc.set("ok", true);
    Json arr = Json::array();
    arr.push_back(1).push_back(2);
    doc.set("values", std::move(arr));

    EXPECT_EQ(doc.dump(),
              "{\"name\":\"fig6\",\"count\":42,\"ratio\":0.5,"
              "\"ok\":true,\"values\":[1,2]}");
}

TEST(JsonTest, ParsesWhatItDumps)
{
    Json doc = Json::object();
    doc.set("text", "line\n\"quoted\"\tand \\ backslash");
    doc.set("negative", -17.25);
    doc.set("big", std::uint64_t{1} << 52);
    doc.set("null_field", nullptr);
    Json nested = Json::object();
    nested.set("inner", Json::array());
    doc.set("nested", std::move(nested));

    Json reparsed = Json::parse(doc.dump(2));
    EXPECT_EQ(reparsed.at("text").as_string(),
              "line\n\"quoted\"\tand \\ backslash");
    EXPECT_DOUBLE_EQ(reparsed.at("negative").as_double(), -17.25);
    EXPECT_EQ(reparsed.at("big").as_u64(), std::uint64_t{1} << 52);
    EXPECT_TRUE(reparsed.at("null_field").is_null());
    EXPECT_TRUE(reparsed.at("nested").at("inner").is_array());
    // Insertion order survives the round trip.
    EXPECT_EQ(reparsed.as_object().front().first, "text");
}

TEST(JsonTest, ParsesHandwrittenDocument)
{
    Json doc = Json::parse(
        "  { \"a\" : [ 1 , 2.5 , true , null , \"x\\u0041\" ] } ");
    const JsonArray &a = doc.at("a").as_array();
    ASSERT_EQ(a.size(), 5u);
    EXPECT_EQ(a[0].as_u64(), 1u);
    EXPECT_DOUBLE_EQ(a[1].as_double(), 2.5);
    EXPECT_TRUE(a[2].as_bool());
    EXPECT_TRUE(a[3].is_null());
    EXPECT_EQ(a[4].as_string(), "xA");
}

// ---- ThreadPool -------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    std::atomic<int> count{0};
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    for (int i = 0; i < 100; ++i)
        pool.submit([&count]() { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);

    // The pool stays usable after a wait().
    pool.submit([&count]() { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPoolTest, ThrowingTaskIsCapturedNotTerminal)
{
    std::atomic<int> count{0};
    ThreadPool pool(2);
    pool.submit([]() { throw std::runtime_error("task exploded"); });
    for (int i = 0; i < 20; ++i)
        pool.submit([&count]() { count.fetch_add(1); });

    // Sibling tasks all ran; the first escaped exception surfaces from
    // wait() instead of std::terminate-ing the worker.
    try {
        pool.wait();
        FAIL() << "wait() swallowed the task exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task exploded");
    }
    EXPECT_EQ(count.load(), 20);

    // The error slot is cleared: the pool remains usable afterwards.
    pool.submit([&count]() { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 21);
}

// ---- suite fixtures ---------------------------------------------------

ScenarioConfig
tiny_config(const std::string &victim)
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim(victim)
                                .with_corunner("objdet", 2)
                                .with_scale(0.05)
                                .with_measure_ops(15'000)
                                .with_warmup_ops(5'000);
    config.platform.guest_frames = 16 * 1024;
    config.platform.host_frames = 24 * 1024;
    return config;
}

/// A suite exercising all entry shapes: paired, single, and a sweep.
ExperimentSuite
tiny_suite()
{
    ExperimentSuite suite("suite_test");
    suite.add("pagerank", tiny_config("pagerank"));
    suite.add("gcc_single",
              ScenarioConfig(tiny_config("gcc")).with_ptemagnet(),
              RunKind::Single);
    suite.sweep("pagerank", "reservation_pages", {4, 16},
                ScenarioConfig(tiny_config("pagerank")).with_ptemagnet(),
                RunKind::Single);
    return suite;
}

SuiteOptions
quiet(unsigned threads)
{
    SuiteOptions options;
    options.threads = threads;
    options.write_json = false;
    options.announce = false;
    return options;
}

void
expect_identical(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.metrics.values(), b.metrics.values());
    EXPECT_EQ(a.victim_cycles, b.victim_cycles);
    EXPECT_EQ(a.victim_ops, b.victim_ops);
    EXPECT_EQ(a.victim_rss_pages, b.victim_rss_pages);
    EXPECT_EQ(a.fragmentation.average_hpte_lines,
              b.fragmentation.average_hpte_lines);
    EXPECT_EQ(a.fragmentation.fragmented_fraction,
              b.fragmentation.fragmented_fraction);
    EXPECT_EQ(a.fragmentation.max_hpte_lines,
              b.fragmentation.max_hpte_lines);
    EXPECT_EQ(a.fragmentation.groups, b.fragmentation.groups);
    EXPECT_EQ(a.peak_unused_reservation_fraction,
              b.peak_unused_reservation_fraction);
    EXPECT_EQ(a.buddy_calls, b.buddy_calls);
    EXPECT_TRUE(a.stats == b.stats);
}

// ---- ExperimentSuite --------------------------------------------------

TEST(SuiteTest, ParallelExecutionMatchesSerialBitForBit)
{
    ExperimentSuite suite = tiny_suite();
    SuiteResult serial = suite.run(quiet(1));
    SuiteResult parallel = suite.run(quiet(4));

    ASSERT_EQ(serial.entries().size(), parallel.entries().size());
    EXPECT_EQ(serial.entries().size(), 4u);
    EXPECT_GE(parallel.threads(), 4u);

    for (std::size_t i = 0; i < serial.entries().size(); ++i) {
        const EntryResult &s = serial.entries()[i];
        const EntryResult &p = parallel.entries()[i];
        EXPECT_EQ(s.entry.name, p.entry.name);
        ASSERT_EQ(s.is_paired(), p.is_paired());
        if (s.is_paired()) {
            expect_identical(s.paired.baseline, p.paired.baseline);
            expect_identical(s.paired.ptemagnet, p.paired.ptemagnet);
        } else {
            expect_identical(s.single, p.single);
        }
    }
}

TEST(SuiteTest, PairedEntryRunsBothPolicies)
{
    ExperimentSuite suite("paired");
    suite.add("pagerank", tiny_config("pagerank"));
    SuiteResult result = suite.run(quiet(2));

    const EntryResult &entry = result.at("pagerank");
    ASSERT_TRUE(entry.is_paired());
    // The baseline leg never creates reservations; the PTEMagnet leg
    // must.
    EXPECT_FALSE(entry.paired.baseline.stats.has(
        "vm0.provider.reservations_created"));
    EXPECT_GT(entry.paired.ptemagnet.stats.value(
                  "vm0.provider.reservations_created"),
              0.0);
    // And the pair matches what the serial primitive produces.
    PairedResult direct = run_paired(tiny_config("pagerank"));
    expect_identical(entry.paired.baseline, direct.baseline);
    expect_identical(entry.paired.ptemagnet, direct.ptemagnet);
}

TEST(SuiteTest, SweepRegistersNamedVariants)
{
    ExperimentSuite suite = tiny_suite();
    EXPECT_EQ(suite.size(), 4u);
    SuiteResult result = suite.run(quiet(4));

    ASSERT_TRUE(result.has("pagerank/reservation_pages=4"));
    ASSERT_TRUE(result.has("pagerank/reservation_pages=16"));
    const EntryResult &wide =
        result.at("pagerank/reservation_pages=16");
    EXPECT_EQ(wide.entry.sweep_param, "reservation_pages");
    EXPECT_EQ(wide.entry.config.reservation_pages, 16u);
    // Wider groups -> at least as few reservations created.
    const EntryResult &narrow =
        result.at("pagerank/reservation_pages=4");
    EXPECT_LE(wide.single.stats.value("vm0.provider.reservations_created"),
              narrow.single.stats.value("vm0.provider.reservations_created"));
}

TEST(SuiteTest, GeomeanCoversOnlyPairedEntries)
{
    ExperimentSuite suite = tiny_suite();
    SuiteResult result = suite.run(quiet(4));
    EXPECT_EQ(result.improvements().size(), 1u);  // one paired entry
    EXPECT_DOUBLE_EQ(result.geomean(),
                     geomean_improvement(result.improvements()));
}

TEST(SuiteTest, ScenarioResultJsonRoundTripsTheMetricSet)
{
    ScenarioResult run =
        run_scenario(ScenarioConfig(tiny_config("pagerank"))
                         .with_ptemagnet()
                         .with_measure_ops(5'000));

    ScenarioResult reread =
        scenario_result_from_json(Json::parse(to_json(run).dump(2)));
    expect_identical(run, reread);
    // Sanity: the metric set actually had content.
    EXPECT_TRUE(run.metrics.has("execution_time"));
    EXPECT_TRUE(run.metrics.has("host_pt_fragmentation"));
}

TEST(SuiteTest, WritesWellFormedBenchJson)
{
    ExperimentSuite suite("suite_json_test");
    suite.add("pagerank",
              ScenarioConfig(tiny_config("pagerank"))
                  .with_measure_ops(5'000));

    SuiteOptions options = quiet(2);
    options.write_json = true;
    options.json_dir = ::testing::TempDir();
    SuiteResult result = suite.run(options);

    std::string path =
        options.json_dir + "/BENCH_suite_json_test.json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream text;
    text << in.rdbuf();

    Json doc = Json::parse(text.str());
    EXPECT_EQ(doc.at("suite").as_string(), "suite_json_test");
    EXPECT_EQ(doc.at("threads").as_u64(), 2u);
    const JsonArray &entries = doc.at("entries").as_array();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].at("kind").as_string(), "paired");
    EXPECT_EQ(entries[0].at("config").at("victim").as_string(),
              "pagerank");
    ScenarioResult ptm_leg =
        scenario_result_from_json(entries[0].at("ptemagnet"));
    expect_identical(ptm_leg, result.at("pagerank").paired.ptemagnet);
    EXPECT_DOUBLE_EQ(
        doc.at("summary").at("geomean_improvement_percent").as_double(),
        result.geomean());
    std::remove(path.c_str());
}

TEST(SuiteTest, FluentConfigBuildsDeclaratively)
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("xz")
                                .with_corunner_preset("combo")
                                .with_ptemagnet(16)
                                .with_scale(0.25)
                                .with_measure_ops(1234)
                                .with_seed(7)
                                .with_warmup_ops(99)
                                .with_stop_corunners_after_init()
                                .with_measure_init();
    EXPECT_EQ(config.victim, "xz");
    EXPECT_EQ(config.corunners.size(),
              workload::corunner_preset("combo").size());
    EXPECT_EQ(config.resolved_policy(), "ptemagnet");
    EXPECT_EQ(config.resolved_policy_params().get_u64("group_pages"), 16u);
    EXPECT_EQ(config.reservation_pages, 16u);
    EXPECT_DOUBLE_EQ(config.scale, 0.25);
    EXPECT_EQ(config.measure_ops, 1234u);
    EXPECT_EQ(config.seed, 7u);
    EXPECT_EQ(config.corunner_warmup_ops, 99u);
    EXPECT_TRUE(config.stop_corunners_after_init);
    EXPECT_TRUE(config.measure_init);
}

TEST(SuiteTest, CorunnerPresetsMatchThePaperCombos)
{
    const auto &presets = workload::corunner_presets();
    ASSERT_TRUE(presets.count("objdet8"));
    ASSERT_TRUE(presets.count("combo"));
    ASSERT_TRUE(presets.count("stressng12"));
    ASSERT_TRUE(presets.count("none"));

    const auto &objdet8 = workload::corunner_preset("objdet8");
    ASSERT_EQ(objdet8.size(), 1u);
    EXPECT_EQ(objdet8[0].name, "objdet");
    EXPECT_EQ(objdet8[0].workers, 8u);

    // The Figure 7 combination covers every Table 3 co-runner.
    const auto &combo = workload::corunner_preset("combo");
    EXPECT_EQ(combo.size(), workload::corunner_names().size());
    unsigned workers = 0;
    for (const auto &spec : combo)
        workers += spec.workers;
    EXPECT_EQ(workers, 8u);

    EXPECT_TRUE(workload::corunner_preset("none").empty());
}

}  // namespace
}  // namespace ptm::sim
