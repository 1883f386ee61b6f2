/**
 * @file
 * Visualizes the paper's Figures 1-4: how interleaved allocation breaks
 * guest-physical (== host-virtual) contiguity, how that scatters host
 * PTEs across cache lines, and what a nested walk trajectory looks like
 * for eight neighbouring pages — with and without PTEMagnet. Then runs a
 * small colocated System with the observability layer armed and prints
 * the walk-latency distribution straight from the stat registry.
 *
 * Run: ./build/examples/walk_trajectory [--trace out.json]
 *
 * With --trace, every page walk, guest fault, and reclaim sweep of the
 * System demo is written as a chrome://tracing JSON file; load it into
 * chrome://tracing or Perfetto (tracks are keyed by core).
 */
#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "core/ptemagnet_provider.hpp"
#include "host/host_kernel.hpp"
#include "obs/stat_registry.hpp"
#include "obs/trace_sink.hpp"
#include "sim/system.hpp"
#include "vm/guest_kernel.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace ptm;

void
show(bool use_ptemagnet)
{
    host::HostKernel host(64 * 1024);
    host::VmInstance &vm = host.create_vm();
    vm::GuestKernel guest(32 * 1024);
    if (use_ptemagnet) {
        guest.set_provider(
            std::make_unique<core::PtemagnetProvider>(&guest));
    }

    vm::Process &app = guest.create_process("app");
    vm::Process &noisy = guest.create_process("co-runner");
    Addr app_base = app.vas().mmap(kReservationBytes);
    Addr noisy_base = noisy.vas().mmap(64 * kPageSize);

    // Figure 1/4: the app touches its 8-page region while the co-runner
    // keeps allocating — faults interleave 1:2.
    std::uint64_t noisy_vpn = page_number(noisy_base);
    for (unsigned i = 0; i < 8; ++i) {
        guest.handle_fault(app, page_number(app_base) + i);
        guest.handle_fault(noisy, noisy_vpn++);
        guest.handle_fault(noisy, noisy_vpn++);
    }

    std::printf("%s\n",
                use_ptemagnet ? "--- with PTEMagnet ---"
                              : "--- default Linux allocator ---");
    std::printf("%5s %10s %12s %16s %16s\n", "page", "gvpn", "gfn",
                "gPTE cache line", "hPTE cache line");

    std::set<std::uint64_t> hpte_lines;
    for (unsigned i = 0; i < 8; ++i) {
        std::uint64_t gvpn = page_number(app_base) + i;
        std::uint64_t gfn = app.page_table().lookup(gvpn)->frame();
        // Touch the host side (lazy backing) so the hPTE slot exists.
        host.handle_fault(vm, gfn);
        Addr gpte = *app.page_table().leaf_entry_paddr(gvpn);
        Addr hpte = *vm.page_table().leaf_entry_paddr(gfn);
        hpte_lines.insert(line_number(hpte));
        std::printf("%5u %10llu %12llu %16llu %16llu\n", i,
                    static_cast<unsigned long long>(gvpn),
                    static_cast<unsigned long long>(gfn),
                    static_cast<unsigned long long>(line_number(gpte)),
                    static_cast<unsigned long long>(line_number(hpte)));
    }
    std::printf("=> the 8 neighbouring pages' host PTEs span %zu cache "
                "line(s)\n\n", hpte_lines.size());
}

void
print_walk_histogram(const obs::StatSnapshot &snap, const char *label)
{
    const obs::HistogramSummary &walks =
        snap.histogram("vm0.core0.walker.walk_cycles_hist");
    std::printf("  %-22s walks=%-8llu p50=%-5llu p90=%-5llu p99=%-5llu "
                "mean=%.1f\n",
                label, static_cast<unsigned long long>(walks.count),
                static_cast<unsigned long long>(walks.p50),
                static_cast<unsigned long long>(walks.p90),
                static_cast<unsigned long long>(walks.p99), walks.mean);
}

/// The same colocation as show(), but executed: a victim and a noisy
/// co-runner interleave on a System, and the registry reports the walk
/// latency each policy produces.
void
run_system_demo(const std::string &trace_path)
{
    std::printf("--- measured walk latency (registry histograms) ---\n");
    obs::TraceSink sink;
    for (bool use_ptemagnet : {false, true}) {
        sim::PlatformConfig platform;
        platform.guest_frames = 32 * 1024;
        platform.host_frames = 48 * 1024;
        sim::System system(platform, 2);
        if (use_ptemagnet)
            system.set_policy("ptemagnet");
        // Arm tracing only for the PTEMagnet leg, so the file shows the
        // interesting (packed-reservation) trajectories.
        if (use_ptemagnet && !trace_path.empty())
            system.set_trace_sink(&sink);

        workload::WorkloadOptions options;
        options.scale = 0.125;
        sim::Job &victim =
            system.add_job(workload::make_workload("pagerank", options));
        options.seed = 2;
        system.add_job(workload::make_workload("objdet", options));
        system.run_until([&]() {
            return victim.stats().ops.value() >= 50'000;
        });

        print_walk_histogram(system.stat_registry().snapshot(),
                             use_ptemagnet ? "ptemagnet" : "buddy");
        if (use_ptemagnet && !trace_path.empty())
            system.set_trace_sink(nullptr);
    }
    if (!trace_path.empty()) {
        sink.write_json(trace_path);
        std::printf("  wrote %zu trace events to %s\n", sink.size(),
                    trace_path.c_str());
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace out.json]\n", argv[0]);
            return 1;
        }
    }

    std::printf(
        "Eight virtually-contiguous pages of an application, allocated\n"
        "while a co-runner's faults interleave (Figures 1-4 of the "
        "paper).\nGuest PTEs always share one line (indexed by virtual "
        "address);\nhost PTEs only do if guest-physical contiguity "
        "survived.\n\n");
    show(false);
    show(true);
    std::printf(
        "A nested walk for each page must fetch its hPTE line; scattered\n"
        "lines mean up to 8 distinct memory blocks per group (Figure "
        "2b),\npacked lines mean one (Figure 2a). That difference is the\n"
        "entire performance effect measured in the evaluation benches:\n\n");
    run_system_demo(trace_path);
    return 0;
}
