/**
 * @file
 * Multi-VM overcommit bench: co-resident VMs on one overcommitted host,
 * exercising the survival ladder (balloon sweeps, reclaim backoff,
 * deterministic OOM-kill) and the seeded churn-storm engine.
 *
 * Two modes:
 *
 * - default: an ExperimentSuite with a `vms` co-residency sweep plus a
 *   64-VM boot/kill/fork storm, emitting per-VM robustness blocks
 *   (balloon pages, reclaim sweeps, backoff waits, OOM kills, survivor
 *   walk cycles) into BENCH_multi_vm_overcommit.json — the slow bench
 *   tier, run manually.
 * - `--storm-smoke`: the tier-1 ctest (`churn_storm_smoke`). Runs the
 *   64-VM storm under armed overcommit pressure, asserts the host
 *   survived with >=1 deterministic OOM-kill, and checks the full
 *   result is bit-identical across repeats and across suite thread
 *   counts (1 vs 4). Exits nonzero on any violation.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/suite.hpp"

namespace {

using namespace ptm::sim;

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "multi_vm_overcommit: FAIL: %s\n", what);
        ++failures;
    }
}

/// Co-residency base: one victim plus (vms - 1) stress-ng guests on a
/// host sized so ~4 VMs overcommit it, watermark reclaim armed.
ScenarioConfig
colocate_config()
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("stress-ng")
                                .with_scale(0.5)
                                .with_measure_ops(60'000)
                                .with_warmup_ops(0);
    config.platform.guest_frames = 4096;
    config.platform.host_frames = 8 * 1024;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(128, 256)
                               .with_balloon_step(64)
                               .with_backoff(4, 64));
    return config;
}

/**
 * The acceptance scenario: 64 VM boots, 24 kills, and 8 forks storm a
 * host with far fewer frames than the peak co-resident footprint, with
 * periodic guest reclaim pressure armed on top. The ladder must keep the
 * protected victim VM alive — shedding load through balloons first,
 * OOM-kills when sweeps run dry.
 */
ScenarioConfig
storm_config()
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("stress-ng")
                                .with_scale(0.4)
                                .with_measure_ops(40'000)
                                .with_warmup_ops(0);
    config.platform.guest_frames = 8192;
    config.platform.host_frames = 16 * 1024;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(256, 512)
                               .with_balloon_step(128)
                               .with_backoff(4, 64));
    config.with_churn(ChurnPlan::storm(/*seed=*/41, /*begin_step=*/500,
                                       /*end_step=*/60'000, /*boots=*/64,
                                       /*kills=*/24, /*forks=*/8)
                          .with_scale(0.1)
                          .with_guest_frames(2048));
    config.with_fault_plan(FaultPlan{}.periodic_pressure(20'000));
    return config;
}

/// Host overcommit daemon counter "host.overcommit.<name>"; every
/// scenario here arms overcommit, so the path always exists.
unsigned long long
overcommit(const ScenarioResult &result, const char *name)
{
    return static_cast<unsigned long long>(
        result.stats.value(std::string("host.overcommit.") + name));
}

void
print_robustness(const char *name, const ScenarioResult &result)
{
    std::printf(
        "%-24s oom_kills=%llu sweeps=%llu(+%llu emergency) "
        "backoff_waits=%llu balloon_pages=%llu boots=%llu kills=%llu "
        "forks=%llu\n",
        name, overcommit(result, "oom_kills"),
        overcommit(result, "reclaim_sweeps"),
        overcommit(result, "emergency_sweeps"),
        overcommit(result, "backoff_waits"),
        overcommit(result, "balloon_pages"),
        overcommit(result, "churn_boots"),
        overcommit(result, "churn_kills"),
        overcommit(result, "churn_forks"));
    for (const VmRecord &vm : result.vms) {
        std::printf("    vm%-3u %-12s balloon=%-6llu backed=%-6llu "
                    "walk_cycles=%-12llu ops=%llu\n",
                    vm.vm, vm.status.c_str(),
                    (unsigned long long)vm.balloon_pages,
                    (unsigned long long)vm.backed_pages,
                    (unsigned long long)vm.walk_cycles,
                    (unsigned long long)vm.ops);
    }
}

/// Equality over every simulated counter and per-VM record.
bool
same_result(const ScenarioResult &a, const ScenarioResult &b,
            const char *what)
{
    const bool ok = a.victim_ops == b.victim_ops &&
                    a.victim_cycles == b.victim_cycles &&
                    a.victim_rss_pages == b.victim_rss_pages &&
                    a.stats == b.stats && a.vms == b.vms;
    check(ok, what);
    return ok;
}

/// Tier-1 acceptance run: survive the storm, deterministically.
int
storm_smoke()
{
    const ScenarioConfig config = storm_config();

    ScenarioResult first = run_scenario(config);
    print_robustness("storm64 (serial)", first);
    const unsigned long long boots = overcommit(first, "churn_boots");
    const unsigned long long oom_kills = overcommit(first, "oom_kills");
    check(boots >= 32, "the storm actually booted a VM fleet");
    check(oom_kills >= 1, "host pressure forced >=1 OOM-kill");
    check(overcommit(first, "reclaim_sweeps") >= 1, "reclaim daemon swept");
    check(!first.vms.empty() && first.vms[0].status == "alive",
          "the protected primary VM survived");
    check(first.vms.size() == 1 + boots,
          "every booted VM has a per-VM record");
    unsigned long long oom_records = 0;
    for (const VmRecord &vm : first.vms)
        oom_records += vm.status == "oom_killed" ? 1 : 0;
    check(oom_records == oom_kills,
          "every OOM-kill surfaced as a degradation record");

    ScenarioResult second = run_scenario(config);
    same_result(first, second, "repeat run is bit-identical");

    // Thread-count invariance: the same entry, run concurrently with a
    // sibling on 1- and 4-thread suite pools, must match the serial run.
    for (unsigned threads : {1u, 4u}) {
        ExperimentSuite suite("multi_vm_storm_smoke");
        suite.add("storm", config, RunKind::Single);
        suite.add("storm-echo", config, RunKind::Single);
        SuiteOptions options;
        options.threads = threads;
        options.write_json = false;
        options.announce = false;
        SuiteResult result = suite.run(options);
        check(!result.at("storm").failed(), "suite storm leg completed");
        same_result(first, result.at("storm").single,
                    "suite run matches the serial run");
        same_result(first, result.at("storm-echo").single,
                    "concurrent sibling matches the serial run");
    }

    if (failures == 0)
        std::printf("storm smoke OK: %llu boots, %llu OOM-kills, "
                    "identical across repeats and 1/4-thread suites\n",
                    boots, oom_kills);
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--storm-smoke") == 0)
        return storm_smoke();

    ExperimentSuite suite("multi_vm_overcommit");
    suite.sweep("colocate", "vms", {1, 2, 4, 6}, colocate_config(),
                RunKind::Single);
    suite.add("storm64", storm_config(), RunKind::Single);

    SuiteOptions options;
    options.json_dir = ".";
    SuiteResult result = suite.run(options);

    std::printf("\n== multi_vm_overcommit: per-VM robustness ==\n");
    for (const EntryResult &entry : result.entries()) {
        if (entry.failed()) {
            std::printf("%-24s FAILED: %s\n", entry.entry.name.c_str(),
                        entry.error.c_str());
            continue;
        }
        print_robustness(entry.entry.name.c_str(), entry.single);
    }
    return EXIT_SUCCESS;
}
