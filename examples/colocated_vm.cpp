/**
 * @file
 * The paper's §3.3 motivating experiment as a narrated walk-through:
 * pagerank sharing a VM with a 12-worker stress-ng churner, built
 * directly against the System API (no experiment-runner sugar), showing
 * how fragmentation arises during the allocation phase and what it costs
 * afterwards — then the same run under PTEMagnet.
 *
 * Run: ./build/examples/colocated_vm
 */
#include <cstdio>

#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace {

struct Outcome {
    double frag = 0.0;
    double cycles_per_op = 0.0;
    double walk_share = 0.0;
    std::uint64_t buddy_calls = 0;
};

Outcome
run(bool use_ptemagnet)
{
    using namespace ptm;

    sim::PlatformConfig platform;
    sim::System system(platform, 13);  // victim + 12 stress workers
    if (use_ptemagnet)
        system.set_policy("ptemagnet");

    workload::WorkloadOptions options;
    options.scale = 0.5;
    sim::Job &victim =
        system.add_job(workload::make_workload("pagerank", options));
    for (unsigned worker = 0; worker < 12; ++worker) {
        workload::WorkloadOptions worker_options = options;
        worker_options.seed = 100 + worker;
        system.add_job(workload::make_workload("stress-ng",
                                               worker_options));
    }

    // Allocation phase: pagerank initializes its arrays while stress-ng
    // churns; every pagerank page fault races 12 other allocators.
    system.run_until_init_done(victim);
    std::printf("  allocation done: rss=%llu pages, guest faults=%llu\n",
                static_cast<unsigned long long>(
                    victim.process().rss_pages()),
                static_cast<unsigned long long>(
                    system.guest().stats().faults_handled.value()));

    // Stop the churner (Table 1 protocol) and measure clean.
    for (auto &job : system.jobs()) {
        if (job.get() != &victim)
            job->set_paused(true);
    }
    system.reset_measurement();
    system.run_ops(victim, 400'000);

    Outcome outcome;
    outcome.frag = sim::host_pt_fragmentation(victim.process(),
                                              system.vm())
                       .average_hpte_lines;
    outcome.cycles_per_op =
        static_cast<double>(victim.stats().cycles.value()) /
        static_cast<double>(victim.stats().ops.value());
    outcome.walk_share =
        static_cast<double>(victim.walker().stats().walk_cycles.value()) /
        static_cast<double>(victim.stats().cycles.value());
    outcome.buddy_calls =
        system.guest().buddy().stats().alloc_calls.value();
    return outcome;
}

}  // namespace

int
main()
{
    std::printf("pagerank + 12x stress-ng in one VM "
                "(co-runner stopped before measurement)\n\n");

    std::printf("default Linux allocator:\n");
    Outcome baseline = run(false);
    std::printf("PTEMagnet:\n");
    Outcome magnet = run(true);

    std::printf("\n%-26s %12s %12s\n", "", "default", "ptemagnet");
    std::printf("%-26s %12.2f %12.2f\n", "host PT fragmentation",
                baseline.frag, magnet.frag);
    std::printf("%-26s %12.1f %12.1f\n", "cycles per operation",
                baseline.cycles_per_op, magnet.cycles_per_op);
    std::printf("%-26s %11.1f%% %11.1f%%\n", "page-walk cycle share",
                100.0 * baseline.walk_share, 100.0 * magnet.walk_share);
    std::printf("%-26s %12llu %12llu\n", "buddy allocator calls",
                static_cast<unsigned long long>(baseline.buddy_calls),
                static_cast<unsigned long long>(magnet.buddy_calls));
    std::printf("\nspeedup from PTEMagnet: %.1f%%\n",
                100.0 * (baseline.cycles_per_op - magnet.cycles_per_op) /
                    baseline.cycles_per_op);
    return 0;
}
