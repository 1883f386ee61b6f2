/**
 * @file
 * Golden-metrics regression test: pins the complete simulated metric set
 * of one fixed-seed paired scenario (pagerank victim + stress-ng churn,
 * buddy vs PTEMagnet) and of one direct System run (every WalkerStats
 * counter, the hierarchy's per-kind serving counters, per-level
 * CacheStats), over radix and over hashed tables, against checked-in
 * snapshots.
 *
 * Purpose: hot-path refactors (SoA tag stores, devirtualized replacement,
 * walker changes) must keep simulated behaviour bit-identical. Any
 * divergence — a different victim, a perturbed LRU order, a dropped
 * counter — fails here loudly instead of silently shifting paper figures.
 *
 * If a change *intentionally* alters simulated behaviour, regenerate the
 * snapshot and justify the diff in the PR:
 *
 *     PTM_GOLDEN_PRINT=1 ./golden_metrics_test
 *
 * prints the new snapshot blocks in source form.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "sim/suite.hpp"
#include "workload/catalog.hpp"

namespace ptm::sim {
namespace {

bool
print_mode()
{
    return std::getenv("PTM_GOLDEN_PRINT") != nullptr;
}

ScenarioConfig
golden_config()
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("pagerank")
                                .with_corunner("stress-ng", 2)
                                .with_scale(0.05)
                                .with_measure_ops(15'000)
                                .with_warmup_ops(5'000)
                                .with_seed(7);
    config.platform.guest_frames = 16 * 1024;
    config.platform.host_frames = 24 * 1024;
    return config;
}

using Snapshot = std::map<std::string, double>;

/// Every simulated (deterministic) scalar of a ScenarioResult. Host-side
/// provenance (host_seconds, ops/sec) is intentionally absent.
Snapshot
snapshot_of(const ScenarioResult &r)
{
    Snapshot s;
    for (const auto &[name, value] : r.metrics.values())
        s["metrics." + name] = value;
    s["victim_cycles"] = static_cast<double>(r.victim_cycles);
    s["victim_ops"] = static_cast<double>(r.victim_ops);
    s["victim_rss_pages"] = static_cast<double>(r.victim_rss_pages);
    s["frag.average_hpte_lines"] = r.fragmentation.average_hpte_lines;
    s["frag.fragmented_fraction"] = r.fragmentation.fragmented_fraction;
    s["frag.max_hpte_lines"] = r.fragmentation.max_hpte_lines;
    s["frag.groups"] = static_cast<double>(r.fragmentation.groups);
    s["peak_unused_reservation_fraction"] =
        r.peak_unused_reservation_fraction;
    // PTEMagnet counters; the baseline registers no provider subtree.
    for (const char *name : {"reservations_created", "part_hits"}) {
        const std::string path = std::string("vm0.provider.") + name;
        s[name] = r.stats.has(path) ? r.stats.value(path) : 0.0;
    }
    s["buddy_calls"] = static_cast<double>(r.buddy_calls);
    s["total_ops"] = static_cast<double>(r.total_ops);
    return s;
}

void
print_snapshot(const char *label, const Snapshot &snapshot)
{
    std::printf("const Snapshot %s = {\n", label);
    for (const auto &[name, value] : snapshot)
        std::printf("    {\"%s\", %.17g},\n", name.c_str(), value);
    std::printf("};\n");
}

void
expect_matches(const Snapshot &actual, const Snapshot &golden,
               const char *label)
{
    for (const auto &[name, value] : golden) {
        auto it = actual.find(name);
        ASSERT_NE(it, actual.end())
            << label << ": metric '" << name << "' disappeared";
        EXPECT_EQ(it->second, value)
            << label << ": '" << name << "' diverged from the snapshot";
    }
    for (const auto &[name, value] : actual) {
        EXPECT_TRUE(golden.count(name))
            << label << ": new metric '" << name
            << "' is missing from the snapshot — regenerate it";
    }
}

// ---- checked-in snapshots (PTM_GOLDEN_PRINT=1 regenerates) -----------

const Snapshot kGoldenBaseline = {
    {"buddy_calls", 38394},
    {"frag.average_hpte_lines", 5.4705882352941178},
    {"frag.fragmented_fraction", 0.99264705882352944},
    {"frag.groups", 136},
    {"frag.max_hpte_lines", 8},
    {"metrics.cache_misses", 1924},
    {"metrics.execution_time", 574345},
    {"metrics.fragmented_group_fraction", 0.99264705882352944},
    {"metrics.guest_pt_mem_accesses", 18},
    {"metrics.host_pt_fragmentation", 5.4705882352941178},
    {"metrics.host_pt_mem_accesses", 22},
    {"metrics.host_pt_walk_cycles", 27868},
    {"metrics.page_walk_cycles", 39206},
    {"metrics.tlb_misses", 1090},
    {"part_hits", 0},
    {"peak_unused_reservation_fraction", 0},
    {"reservations_created", 0},
    {"total_ops", 53220},
    {"victim_cycles", 574345},
    {"victim_ops", 15000},
    {"victim_rss_pages", 1076},
};
const Snapshot kGoldenPtemagnet = {
    {"buddy_calls", 7280},
    {"frag.average_hpte_lines", 1},
    {"frag.fragmented_fraction", 0},
    {"frag.groups", 136},
    {"frag.max_hpte_lines", 1},
    {"metrics.cache_misses", 1897},
    {"metrics.execution_time", 559805},
    {"metrics.fragmented_group_fraction", 0},
    {"metrics.guest_pt_mem_accesses", 9},
    {"metrics.host_pt_fragmentation", 1},
    {"metrics.host_pt_mem_accesses", 14},
    {"metrics.host_pt_walk_cycles", 22974},
    {"metrics.page_walk_cycles", 31798},
    {"metrics.tlb_misses", 1090},
    {"part_hits", 30940},
    {"peak_unused_reservation_fraction", 0.011152416356877323},
    {"reservations_created", 7280},
    {"total_ops", 53220},
    {"victim_cycles", 559805},
    {"victim_ops", 15000},
    {"victim_rss_pages", 1076},
};
const Snapshot kGoldenSystem = {
    {"cache.l1_0.hits", 35034},
    {"cache.l1_0.misses", 7799},
    {"cache.l1_0.resident_lines", 256},
    {"cache.l2_0.hits", 3061},
    {"cache.l2_0.misses", 4738},
    {"cache.l2_0.resident_lines", 1024},
    {"cache.llc.hits", 1065},
    {"cache.llc.misses", 62618},
    {"cache.llc.resident_lines", 4096},
    {"hier.data.accesses", 78220},
    {"hier.data.cycles", 12522392},
    {"hier.data.served_by.L1", 19686},
    {"hier.data.served_by.L2", 2100},
    {"hier.data.served_by.LLC", 7},
    {"hier.data.served_by.memory", 56427},
    {"hier.guest-pt.accesses", 58701},
    {"hier.guest-pt.cycles", 1416202},
    {"hier.guest-pt.served_by.L1", 52893},
    {"hier.guest-pt.served_by.L2", 355},
    {"hier.guest-pt.served_by.LLC", 0},
    {"hier.guest-pt.served_by.memory", 5453},
    {"hier.host-pt.accesses", 127274},
    {"hier.host-pt.cycles", 725274},
    {"hier.host-pt.served_by.L1", 124033},
    {"hier.host-pt.served_by.L2", 1445},
    {"hier.host-pt.served_by.LLC", 1058},
    {"hier.host-pt.served_by.memory", 738},
    {"system.total_steps", 78220},
    {"walker.fault_cycles", 3625720},
    {"walker.guest_faults", 1076},
    {"walker.guest_pt_accesses", 3680},
    {"walker.guest_pt_cycles", 58446},
    {"walker.guest_pt_mem_accesses", 186},
    {"walker.host_faults", 662},
    {"walker.host_pt_accesses", 13077},
    {"walker.host_pt_cycles", 98240},
    {"walker.host_pt_mem_accesses", 167},
    {"walker.host_walks", 2608},
    {"walker.nested_tlb_hits", 3671},
    {"walker.tlb_l1_hits", 20228},
    {"walker.tlb_l2_hits", 3249},
    {"walker.tlb_misses", 2599},
    {"walker.translations", 26076},
    {"walker.walk_cycles", 156686},
};
const Snapshot kGoldenHashedSystem = {
    {"cache.l1_0.hits", 23712},
    {"cache.l1_0.misses", 11024},
    {"cache.l1_0.resident_lines", 256},
    {"cache.l2_0.hits", 3470},
    {"cache.l2_0.misses", 7554},
    {"cache.l2_0.resident_lines", 1024},
    {"cache.llc.hits", 5042},
    {"cache.llc.misses", 68582},
    {"cache.llc.resident_lines", 4096},
    {"hier.data.accesses", 78220},
    {"hier.data.cycles", 12602406},
    {"hier.data.served_by.L1", 19530},
    {"hier.data.served_by.L2", 1835},
    {"hier.data.served_by.LLC", 54},
    {"hier.data.served_by.memory", 56801},
    {"hier.guest-pt.accesses", 79224},
    {"hier.guest-pt.cycles", 2608398},
    {"hier.guest-pt.served_by.L1", 51676},
    {"hier.guest-pt.served_by.L2", 15095},
    {"hier.guest-pt.served_by.LLC", 3121},
    {"hier.guest-pt.served_by.memory", 9332},
    {"hier.host-pt.accesses", 48473},
    {"hier.host-pt.cycles", 996146},
    {"hier.host-pt.served_by.L1", 24298},
    {"hier.host-pt.served_by.L2", 19859},
    {"hier.host-pt.served_by.LLC", 1867},
    {"hier.host-pt.served_by.memory", 2449},
    {"system.total_steps", 78220},
    {"walker.fault_cycles", 3682920},
    {"walker.guest_faults", 1076},
    {"walker.guest_pt_accesses", 4320},
    {"walker.guest_pt_cycles", 301376},
    {"walker.guest_pt_mem_accesses", 1271},
    {"walker.host_faults", 684},
    {"walker.host_pt_accesses", 4340},
    {"walker.host_pt_cycles", 282330},
    {"walker.host_pt_mem_accesses", 1110},
    {"walker.host_walks", 2870},
    {"walker.nested_tlb_hits", 4049},
    {"walker.tlb_l1_hits", 20228},
    {"walker.tlb_l2_hits", 3249},
    {"walker.tlb_misses", 2599},
    {"walker.translations", 26076},
    {"walker.walk_cycles", 583706},
};

TEST(GoldenMetrics, PairedScenarioMatchesSnapshot)
{
    PairedResult paired = run_paired(golden_config());
    Snapshot baseline = snapshot_of(paired.baseline);
    Snapshot ptemagnet = snapshot_of(paired.ptemagnet);

    if (print_mode()) {
        print_snapshot("kGoldenBaseline", baseline);
        print_snapshot("kGoldenPtemagnet", ptemagnet);
        return;
    }
    expect_matches(baseline, kGoldenBaseline, "baseline leg");
    expect_matches(ptemagnet, kGoldenPtemagnet, "ptemagnet leg");
}

/// Direct System run pinning the raw counter planes the hot path feeds:
/// all WalkerStats counters of the victim core, the hierarchy's per-kind
/// serving matrix, and per-level CacheStats totals. @p table names the
/// translation table of every guest process and of the host.
Snapshot
system_snapshot(const std::string &table)
{
    PlatformConfig platform;
    platform.guest_frames = 16 * 1024;
    platform.host_frames = 24 * 1024;
    platform.seed = 99;
    platform.translation_table = table;

    System system(platform, 3);
    workload::WorkloadOptions options;
    options.scale = 0.05;
    options.seed = 7;
    Job &victim =
        system.add_job(workload::make_workload("pagerank", options));
    workload::WorkloadOptions co = options;
    co.seed = 1008;
    system.add_job(workload::make_workload("stress-ng", co));
    co.seed = 1009;
    system.add_job(workload::make_workload("objdet", co));

    system.run_until_init_done(victim);
    system.run_ops(victim, 25'000);

    Snapshot s;
    const mmu::WalkerStats &w = victim.walker().stats();
    s["walker.translations"] = static_cast<double>(w.translations.value());
    s["walker.tlb_l1_hits"] = static_cast<double>(w.tlb_l1_hits.value());
    s["walker.tlb_l2_hits"] = static_cast<double>(w.tlb_l2_hits.value());
    s["walker.tlb_misses"] = static_cast<double>(w.tlb_misses.value());
    s["walker.walk_cycles"] = static_cast<double>(w.walk_cycles.value());
    s["walker.guest_pt_cycles"] =
        static_cast<double>(w.guest_pt_cycles.value());
    s["walker.host_pt_cycles"] =
        static_cast<double>(w.host_pt_cycles.value());
    s["walker.host_walks"] = static_cast<double>(w.host_walks.value());
    s["walker.nested_tlb_hits"] =
        static_cast<double>(w.nested_tlb_hits.value());
    s["walker.guest_pt_accesses"] =
        static_cast<double>(w.guest_pt_accesses.value());
    s["walker.host_pt_accesses"] =
        static_cast<double>(w.host_pt_accesses.value());
    s["walker.guest_pt_mem_accesses"] =
        static_cast<double>(w.guest_pt_mem_accesses.value());
    s["walker.host_pt_mem_accesses"] =
        static_cast<double>(w.host_pt_mem_accesses.value());
    s["walker.guest_faults"] = static_cast<double>(w.guest_faults.value());
    s["walker.host_faults"] = static_cast<double>(w.host_faults.value());
    s["walker.fault_cycles"] = static_cast<double>(w.fault_cycles.value());

    const cache::HierarchyStats &h = system.hierarchy().stats();
    for (unsigned k = 0; k < cache::kAccessKindCount; ++k) {
        std::string kind = cache::access_kind_name(
            static_cast<cache::AccessKind>(k));
        for (unsigned l = 0; l < cache::kServedByCount; ++l) {
            std::string level =
                cache::served_by_name(static_cast<cache::ServedBy>(l));
            s["hier." + kind + ".served_by." + level] =
                static_cast<double>(h.served[k][l].value());
        }
        s["hier." + kind + ".accesses"] =
            static_cast<double>(h.accesses[k].value());
        s["hier." + kind + ".cycles"] =
            static_cast<double>(h.cycles[k].value());
    }

    auto cache_totals = [&s](const std::string &name,
                             const cache::Cache &cache) {
        s["cache." + name + ".hits"] =
            static_cast<double>(cache.stats().total_hits());
        s["cache." + name + ".misses"] =
            static_cast<double>(cache.stats().total_misses());
        s["cache." + name + ".resident_lines"] =
            static_cast<double>(cache.resident_lines());
    };
    cache_totals("l1_0", system.hierarchy().l1(0));
    cache_totals("l2_0", system.hierarchy().l2(0));
    cache_totals("llc", system.hierarchy().llc());

    s["system.total_steps"] = static_cast<double>(system.total_steps());
    return s;
}

TEST(GoldenMetrics, SystemCountersMatchSnapshot)
{
    Snapshot s = system_snapshot("radix");
    if (print_mode()) {
        print_snapshot("kGoldenSystem", s);
        return;
    }
    expect_matches(s, kGoldenSystem, "system counters");
}

/// The same run over hashed guest and host tables: pins the probe-walk
/// path, which no other snapshot covers.
TEST(GoldenMetrics, HashedTableCountersMatchSnapshot)
{
    Snapshot s = system_snapshot("hashed");
    if (print_mode()) {
        print_snapshot("kGoldenHashedSystem", s);
        return;
    }
    expect_matches(s, kGoldenHashedSystem, "hashed system counters");
}

}  // namespace
}  // namespace ptm::sim
