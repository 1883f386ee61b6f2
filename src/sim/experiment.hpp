/**
 * @file
 * Scenario runner: the standard experimental protocol of §5-§6.
 *
 * A scenario colocates one victim benchmark with a set of co-runners in
 * one VM, optionally under PTEMagnet, runs the victim's allocation (init)
 * phase with full interleaving, then measures a fixed number of victim
 * operations and reports the paper's metric set. Execution-time
 * comparisons between two scenarios that differ only in the provider
 * reproduce Figures 6/7; metric diffs reproduce Tables 1/4.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "sim/fault_injection.hpp"
#include "sim/metrics.hpp"
#include "sim/overcommit.hpp"
#include "sim/platform.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace ptm::sim {

/// Co-runner specs live in the workload layer (workload/catalog.hpp) so
/// presets can be shared; the old sim-level name remains as an alias.
using workload::CorunnerSpec;

/**
 * One co-resident guest VM of a multi-VM scenario (VM 1..N-1; VM 0 is
 * the victim's VM, described by the top-level config fields). Empty /
 * zero fields inherit the scenario's corresponding value.
 */
struct VmSpec {
    std::string workload = "stress-ng";  ///< catalog name of each job
    unsigned workers = 1;                ///< jobs booted in this VM
    std::string policy;                  ///< empty = the scenario's policy
    PolicyParams policy_params;          ///< used only when policy is set
    double scale = 0.0;                  ///< 0 = the scenario's scale
    std::uint64_t guest_frames = 0;      ///< 0 = the platform default
};

/**
 * Declarative description of one run.
 *
 * A plain aggregate; the `with_*` fluent setters exist so bench code can
 * build configs declaratively in a single expression:
 *
 *     ScenarioConfig{}.with_victim("pagerank")
 *                     .with_corunner_preset("objdet8")
 *                     .with_policy("reserve_thp")
 *                     .with_policy_param("promotion_threshold", 64)
 *                     .with_table("hashed")
 *                     .with_measure_ops(600'000)
 */
struct ScenarioConfig {
    /// Victim workload by factory name (workload::make_workload).
    std::string victim = "pagerank";
    /// Victim-specific generator knobs, forwarded to the workload
    /// factory (co-runners use their registered defaults).
    workload::WorkloadParams workload_params;
    std::vector<CorunnerSpec> corunners;
    /// Allocation policy by factory name (vm::make_provider); empty
    /// means "buddy".
    std::string policy_name;
    /// Policy-specific knobs, forwarded to the provider factory.
    PolicyParams policy_params;
    /// Reservation granularity in pages (ablation; the paper uses 8).
    /// Injected as policy param "group_pages" for ptemagnet runs unless
    /// the param bag already sets one.
    unsigned reservation_pages = kPagesPerReservation;
    double scale = 1.0;                  ///< workload footprint multiplier
    std::uint64_t measure_ops = 1'500'000;  ///< victim ops measured
    std::uint64_t seed = 1;
    /// Co-runner operations executed before the victim starts, modelling
    /// services that are already in steady state when the victim is
    /// scheduled onto the VM (the common VPC case).
    std::uint64_t corunner_warmup_ops = 100'000;
    /// Table 1 protocol: stop co-runners once the victim finishes
    /// allocating (init), so no cache contention during measurement.
    bool stop_corunners_after_init = false;
    /// Measure from the first operation (includes the init phase); used
    /// by the §6.4 allocation-latency microbenchmark.
    bool measure_init = false;
    /// Deterministic fault/pressure schedule; inert unless armed().
    FaultPlan fault_plan;
    /// Retired .ptt recording; perfbench still reads it. Must stay empty.
    std::string trace_record;
    /// Retired .ptt replay; perfbench still reads it. Must stay empty.
    std::string trace_replay;
    /// Retired init fast-forward; perfbench still reads it. Must stay false.
    bool replay_fast_forward = false;
    /// Retired cold-start flush; perfbench still reads it. Must stay false.
    bool cold_measurement = false;
    /// Co-resident VM count sharing the host (1 = the historic single-VM
    /// scenario). VMs beyond the first are described by vm_specs; when
    /// that list is shorter than vms - 1 the last spec repeats.
    unsigned vms = 1;
    std::vector<VmSpec> vm_specs;
    /// Host overcommit-survival policy (balloon sweeps, backoff,
    /// OOM-kill); inert unless armed().
    OvercommitPolicy overcommit;
    /// Seeded VM churn schedule (boot/kill/fork storms); inert unless
    /// armed().
    ChurnPlan churn;
    /// Per-VM dirty rings + working-set-guided reclaim; inert unless
    /// armed() — disarmed runs are bit-identical to pre-ring builds.
    DirtyRingConfig dirty_ring;
    PlatformConfig platform;

    // ---- fluent setters --------------------------------------------
    ScenarioConfig &
    with_victim(std::string name)
    {
        victim = std::move(name);
        return *this;
    }
    /**
     * Select the victim workload by factory name, fail-fast: unknown
     * names throw immediately instead of at run time.
     * @throws SimError listing registered names if @p name is unknown.
     */
    ScenarioConfig &with_workload(const std::string &name);
    /// Set one victim-workload knob (repeatable).
    ScenarioConfig &
    with_workload_param(const std::string &key, double value)
    {
        workload_params.set(key, value);
        return *this;
    }
    ScenarioConfig &
    with_corunners(std::vector<CorunnerSpec> specs)
    {
        corunners = std::move(specs);
        return *this;
    }
    /// Append one co-runner (repeatable).
    ScenarioConfig &
    with_corunner(std::string name, unsigned workers = 1)
    {
        corunners.push_back({std::move(name), workers});
        return *this;
    }
    /// Replace the co-runner list with a named workload preset.
    ScenarioConfig &
    with_corunner_preset(const std::string &preset)
    {
        corunners = workload::corunner_preset(preset);
        return *this;
    }
    /**
     * Select the allocation policy by factory name.
     * @throws SimError listing registered names if @p name is unknown.
     */
    ScenarioConfig &with_policy(const std::string &name);
    /// Set one policy-specific knob (repeatable).
    ScenarioConfig &
    with_policy_param(const std::string &key, double value)
    {
        policy_params.set(key, value);
        return *this;
    }
    /**
     * Select the translation-table structure by factory name (applies to
     * both the guest and host tables of the run).
     * @throws SimError listing registered names if @p name is unknown.
     */
    ScenarioConfig &with_table(const std::string &name);
    /// Set one table-specific knob (repeatable).
    ScenarioConfig &
    with_table_param(const std::string &key, double value)
    {
        platform.table_params.set(key, value);
        return *this;
    }
    ScenarioConfig &
    with_ptemagnet(unsigned group_pages = kPagesPerReservation)
    {
        policy_name = "ptemagnet";
        reservation_pages = group_pages;
        return *this;
    }
    ScenarioConfig &
    with_scale(double s)
    {
        scale = s;
        return *this;
    }
    ScenarioConfig &
    with_measure_ops(std::uint64_t ops)
    {
        measure_ops = ops;
        return *this;
    }
    ScenarioConfig &
    with_seed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }
    ScenarioConfig &
    with_warmup_ops(std::uint64_t ops)
    {
        corunner_warmup_ops = ops;
        return *this;
    }
    ScenarioConfig &
    with_stop_corunners_after_init(bool stop = true)
    {
        stop_corunners_after_init = stop;
        return *this;
    }
    ScenarioConfig &
    with_measure_init(bool measure = true)
    {
        measure_init = measure;
        return *this;
    }
    ScenarioConfig &
    with_fault_plan(FaultPlan plan)
    {
        fault_plan = std::move(plan);
        return *this;
    }
    /// Co-locate @p n VMs on the host (clamped to at least 1).
    ScenarioConfig &
    with_vms(unsigned n)
    {
        vms = n < 1 ? 1 : n;
        return *this;
    }
    /// Append one co-resident VM description (repeatable).
    ScenarioConfig &
    with_vm_spec(VmSpec spec)
    {
        vm_specs.push_back(std::move(spec));
        return *this;
    }
    ScenarioConfig &
    with_overcommit(OvercommitPolicy oc)
    {
        overcommit = std::move(oc);
        return *this;
    }
    ScenarioConfig &
    with_churn(ChurnPlan plan)
    {
        churn = std::move(plan);
        return *this;
    }
    ScenarioConfig &
    with_dirty_ring(DirtyRingConfig config)
    {
        dirty_ring = config;
        return *this;
    }

    // ---- resolution -------------------------------------------------
    /// Factory name this run will use: policy_name when set, else the
    /// "buddy" default.
    std::string
    resolved_policy() const
    {
        return policy_name.empty() ? "buddy" : policy_name;
    }
    /// Policy params with legacy knobs folded in (reservation_pages
    /// becomes "group_pages" for ptemagnet runs).
    PolicyParams
    resolved_policy_params() const
    {
        PolicyParams params = policy_params;
        if (resolved_policy() == "ptemagnet" && !params.has("group_pages"))
            params.set("group_pages",
                       static_cast<double>(reservation_pages));
        return params;
    }
    /// Translation-table factory name of this run.
    const std::string &
    resolved_table() const
    {
        return platform.translation_table;
    }
    /// Spec of co-resident VM @p index (>= 1): the matching vm_specs
    /// entry, with the last one repeating past the end of the list; a
    /// default-constructed spec when the list is empty.
    VmSpec
    vm_spec_for(unsigned index) const
    {
        if (vm_specs.empty())
            return VmSpec{};
        std::size_t i = index >= 1 ? index - 1 : 0;
        if (i >= vm_specs.size())
            i = vm_specs.size() - 1;
        return vm_specs[i];
    }
    /// True when the run exercises the multi-VM / overcommit machinery.
    bool
    multi_vm() const
    {
        return vms > 1 || overcommit.armed() || churn.armed();
    }
};

/**
 * Per-VM survival record of a multi-VM run: one entry per VM slot,
 * killed VMs included. An OOM-kill surfaces here as a degraded status —
 * never as a SimError — so the run (and its surviving VMs' metrics)
 * completes normally.
 */
struct VmRecord {
    unsigned vm = 0;
    /// "alive", "oom_killed", or "churn_killed".
    std::string status = "alive";
    std::string status_detail;
    std::uint64_t balloon_pages = 0;       ///< guest frames the balloon took
    std::uint64_t frames_repossessed = 0;  ///< host frames freed at kill
    /// Host frames backing the VM at run end (at kill time for victims).
    std::uint64_t backed_pages = 0;
    std::uint64_t walk_cycles = 0;         ///< summed over the VM's jobs
    std::uint64_t ops = 0;                 ///< summed over the VM's jobs
    std::uint64_t oom_events = 0;          ///< guest-side unserviceable faults
    /// Last closed dirty-ring epoch's distinct-dirty-page count (0 when
    /// the ring is disarmed or no epoch closed).
    std::uint64_t ws_estimate_pages = 0;

    bool operator==(const VmRecord &) const = default;
};

/**
 * Everything a run reports. Counter telemetry lives in `stats` only:
 * read it by registry path, e.g. "vm0.provider.part_hits",
 * "fault_injection.injected_denials", "host.overcommit.oom_kills" or
 * "vm0.dirty_ring.logged" (guard with has() where only armed or
 * PTEMagnet runs register the path). The fields below hold what no
 * single registry counter does.
 */
struct ScenarioResult {
    MetricSet metrics;                    ///< Table 1/4 metric set
    /// Full stat-registry snapshot at run end: every component counter
    /// and histogram summary, keyed by hierarchical path. Serialized as
    /// the "stats" block of BENCH files.
    obs::StatSnapshot stats;
    Cycles victim_cycles = 0;             ///< measured execution time
    std::uint64_t victim_ops = 0;
    std::uint64_t victim_rss_pages = 0;   ///< resident set at run end
    FragmentationReport fragmentation;    ///< §3.2 metric detail
    /// §6.2: peak (reserved-but-unmapped pages / victim RSS) observed.
    double peak_unused_reservation_fraction = 0.0;
    /// Buddy calls of VM 0's allocation path: the PTEMagnet provider's
    /// when it is the policy, else the guest buddy's alloc calls.
    std::uint64_t buddy_calls = 0;
    /// Provider-held but unmapped frames at run end (memory bloat axis
    /// of the policy ablation; any reservation-style policy reports it).
    std::uint64_t provider_held_pages = 0;
    /// VM 0's last closed dirty-ring epoch estimate (0 when the ring is
    /// disarmed or no epoch closed).
    std::uint64_t ws_estimate_pages = 0;
    /// Per-VM survival records; one per VM slot for multi-VM runs,
    /// empty for single-VM runs.
    std::vector<VmRecord> vms;

    // ---- simulator-performance provenance (host-side, NOT simulated
    // state: excluded from the determinism comparisons) ---------------
    /// Host wall-clock seconds run_scenario took, warmup/init included.
    double host_seconds = 0.0;
    /// Simulated operations executed across all jobs, all phases.
    std::uint64_t total_ops = 0;
    /// Simulator throughput of this leg, in simulated ops per host second.
    double
    ops_per_second() const
    {
        return host_seconds > 0.0
                   ? static_cast<double>(total_ops) / host_seconds
                   : 0.0;
    }
};

/// Execute one scenario start to finish.
ScenarioResult run_scenario(const ScenarioConfig &config);

/**
 * Convenience for the Figure 6/7 bars: run @p config twice with the same
 * seed — once under the "buddy" baseline, once under the config's own
 * policy (PTEMagnet when the config names none) — and return the pair.
 * ExperimentSuite (sim/suite.hpp) composes this primitive to run the two
 * legs — and whole suites of scenarios — concurrently.
 */
struct PairedResult {
    ScenarioResult baseline;
    /// Treatment leg (named `ptemagnet` for source compatibility; holds
    /// whatever policy the config resolved to).
    ScenarioResult ptemagnet;

    /// Performance improvement as the paper defines it: reduction of
    /// execution time relative to the baseline, in percent.
    double improvement_percent() const;
};
PairedResult run_paired(ScenarioConfig config);

/// Policy of a pair's treatment leg: the config's own, upgraded to
/// PTEMagnet when it names none or names the "buddy" baseline itself.
std::string treatment_policy(const ScenarioConfig &config);

/// Geometric mean over improvement factors (the paper's "Geomean" bar).
double geomean_improvement(const std::vector<double> &percents);

}  // namespace ptm::sim
