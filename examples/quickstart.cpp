/**
 * @file
 * Quickstart: build a virtualized system, colocate one benchmark with a
 * co-runner, and compare the default Linux allocator against PTEMagnet.
 *
 * Run:  ./build/examples/quickstart [benchmark] [corunner]
 */
#include <cstdio>
#include <string>

#include "sim/experiment.hpp"

int
main(int argc, char **argv)
{
    std::string victim = argc > 1 ? argv[1] : "pagerank";
    std::string corunner = argc > 2 ? argv[2] : "objdet";

    ptm::sim::ScenarioConfig config;
    config.victim = victim;
    // The paper's co-runners are multi-threaded (objdet runs 8 threads).
    config.corunners = {{corunner, 8}};
    config.measure_ops = 400'000;
    config.scale = 0.5;

    std::printf("colocating %s with %s inside one VM...\n\n",
                victim.c_str(), corunner.c_str());

    ptm::sim::PairedResult pair = ptm::sim::run_paired(config);

    ptm::MetricSet::print_change_table(
        pair.baseline.metrics, pair.ptemagnet.metrics,
        "PTEMagnet vs default kernel (" + victim + " + " + corunner + ")");

    std::printf("\nhost PT fragmentation: %.2f -> %.2f (1.0 is perfect)\n",
                pair.baseline.fragmentation.average_hpte_lines,
                pair.ptemagnet.fragmentation.average_hpte_lines);
    std::printf("performance improvement: %.1f%%\n",
                pair.improvement_percent());
    std::printf("buddy calls: %llu -> %llu (PaRT hits: %llu)\n",
                static_cast<unsigned long long>(pair.baseline.buddy_calls),
                static_cast<unsigned long long>(pair.ptemagnet.buddy_calls),
                static_cast<unsigned long long>(pair.ptemagnet.stats.value(
                    "vm0.provider.part_hits")));
    return 0;
}
