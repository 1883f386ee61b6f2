/**
 * @file
 * Tier-1 smoke test for the experiment driver: one tiny paired scenario
 * plus a two-point sweep through ExperimentSuite on ≥4 worker threads,
 * exercising the whole bench path — registration, parallel execution,
 * text report, JSON sink — in a few seconds. Registered as a ctest
 * (`bench_smoke`) so a broken driver fails the tier-1 run, not just the
 * (slow) full bench tier.
 *
 * Exits nonzero on any violated invariant.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/suite.hpp"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "bench_smoke: FAIL: %s\n", what);
        ++failures;
    }
}

}  // namespace

int
main()
{
    using namespace ptm::sim;

    ScenarioConfig tiny = ScenarioConfig{}
                              .with_victim("pagerank")
                              .with_corunner("objdet", 2)
                              .with_scale(0.05)
                              .with_measure_ops(20'000)
                              .with_warmup_ops(5'000);
    tiny.platform.guest_frames = 16 * 1024;
    tiny.platform.host_frames = 24 * 1024;

    ExperimentSuite suite("smoke");
    suite.add("pagerank_tiny", tiny);
    suite.sweep("pagerank_tiny", "reservation_pages", {4, 8},
                ScenarioConfig(tiny).with_ptemagnet(), RunKind::Single);

    // Robustness leg 1: a periodic pressure plan must drive real
    // reservation reclaim while the run still completes (fallback
    // singles, not failed faults).
    suite.add("pagerank_pressure",
              ScenarioConfig(tiny).with_ptemagnet().with_fault_plan(
                  FaultPlan{}.periodic_pressure(1'000)),
              RunKind::Single);

    // Robustness leg 2: a guest too small for the workload must fail as
    // an isolated entry — recorded in the JSON, siblings unaffected,
    // process exit still 0.
    ScenarioConfig doomed = tiny;
    doomed.corunners.clear();
    doomed.platform.guest_frames = 512;
    suite.add("pagerank_oom", doomed, RunKind::Single);

    SuiteOptions options;
    options.threads = 4;
    options.json_dir = ".";
    SuiteResult result = suite.run(options);

    check(result.threads() == 4, "suite ran on 4 threads");
    check(result.entries().size() == 5, "5 scenarios executed");
    check(result.has("pagerank_tiny"), "paired entry present");

    const EntryResult &paired = result.at("pagerank_tiny");
    check(paired.paired.baseline.victim_ops >= 20'000,
          "baseline measured the requested ops");
    check(paired.paired.ptemagnet.fragmentation.average_hpte_lines <=
              paired.paired.baseline.fragmentation.average_hpte_lines,
          "PTEMagnet does not increase fragmentation");

    const EntryResult &swept =
        result.at("pagerank_tiny/reservation_pages=8");
    check(swept.single.stats.has("vm0.provider.reservations_created") &&
              swept.single.stats.value(
                  "vm0.provider.reservations_created") > 0,
          "sweep leg ran under PTEMagnet");

    const EntryResult &pressured = result.at("pagerank_pressure");
    check(!pressured.failed(), "pressured run completed");
    const auto &pressure_stats = pressured.single.stats;
    check(pressure_stats.has("fault_injection.reclaim_sweeps"),
          "fault plan was armed");
    check(pressure_stats.has("fault_injection.reclaim_sweeps") &&
              pressure_stats.value("fault_injection.reclaim_sweeps") > 0,
          "pressure swept");
    check(pressure_stats.value("vm0.kernel.frames_reclaimed") > 0,
          "pressure reclaimed reservation frames");
    check(pressure_stats.value("vm0.kernel.oom_events") == 0,
          "reclaim degraded service without failing faults");
    check(pressured.single.metrics.values().size() ==
              paired.paired.ptemagnet.metrics.values().size(),
          "armed and unarmed runs report the same metric set");

    // Observability: every completed run exports the full registry
    // snapshot — component counters plus walk-latency percentiles.
    const ScenarioResult &base = paired.paired.baseline;
    check(!base.stats.empty(), "result carries a stats snapshot");
    check(base.stats.has("vm0.core0.job.ops"),
          "stats cover the job counters");
    check(base.stats.has("vm0.hier.llc.hits.data"),
          "stats cover the cache hierarchy");
    check(base.stats.has("vm0.core0.l2tlb.misses"),
          "stats cover the TLBs");
    check(base.stats.has("vm0.buddy.alloc_calls"),
          "stats cover the buddy allocator");
    check(base.stats.has("host.kernel.pages_backed"),
          "stats cover the host kernel");
    check(base.stats.histogram("vm0.core0.walker.walk_cycles_hist").p50 >
              0,
          "walk-latency p50 recorded");

    const EntryResult &doomed_result = result.at("pagerank_oom");
    check(doomed_result.failed(), "hopeless entry marked failed");
    check(!doomed_result.error.empty(), "failure recorded its error");

    // The JSON sink must round-trip the whole result set.
    std::string path = "BENCH_smoke.json";
    Json reread;
    {
        FILE *f = std::fopen(path.c_str(), "rb");
        check(f != nullptr, "BENCH_smoke.json written");
        if (f != nullptr) {
            std::string text;
            char buf[4096];
            std::size_t n;
            while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
                text.append(buf, n);
            std::fclose(f);
            reread = Json::parse(text);
        }
    }
    if (reread.is_object()) {
        check(reread.at("suite").as_string() == "smoke",
              "JSON names the suite");
        check(reread.at("entries").as_array().size() == 5,
              "JSON carries every entry");
        ScenarioResult baseline = scenario_result_from_json(
            reread.at("entries").as_array()[0].at("baseline"));
        check(baseline.victim_cycles ==
                  paired.paired.baseline.victim_cycles,
              "JSON round-trips victim_cycles");
        check(baseline.stats == base.stats,
              "JSON round-trips the stats block, histograms included");

        // Per-entry status must land in the document, failed included.
        for (const Json &e : reread.at("entries").as_array()) {
            const std::string &name = e.at("name").as_string();
            if (name == "pagerank_oom") {
                check(e.at("status").as_string() == "failed",
                      "JSON marks the failed entry");
                check(e.contains("error"), "JSON carries the error");
            } else {
                check(e.at("status").as_string() == "ok",
                      "JSON marks completed entries ok");
            }
        }
        ScenarioResult rob = scenario_result_from_json(
            reread.at("entries").as_array()[3].at("result"));
        check(rob.stats == pressure_stats,
              "JSON round-trips robustness counters");
    }
    {
        // The atomic writer must not leave its temp file behind.
        FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
        check(tmp == nullptr, "no BENCH temp file left behind");
        if (tmp != nullptr)
            std::fclose(tmp);
    }
    std::remove(path.c_str());

    if (failures == 0)
        std::printf("bench_smoke: OK (5 scenarios, 4 threads, failure "
                    "isolation, JSON round-trip)\n");
    return failures == 0 ? 0 : 1;
}
