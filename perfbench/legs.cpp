/**
 * @file
 * Workload definitions and the timed leg runner.
 *
 * run_leg() is the run_scenario protocol (sim/experiment.cpp) written
 * against System's public calls, so every phase can be timed from here.
 * It must stop System::run_until/run_ops exactly where run_scenario does:
 * stop points change simulated results, and main.cpp checks once per
 * invocation that a leg's full stat snapshot equals run_scenario's.
 */
#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/error.hpp"
#include "sim/metrics.hpp"
#include "workload/trace.hpp"
#include "workload/workload_factory.hpp"

namespace perfbench {

using ptm::sim::ChurnPlan;
using ptm::sim::DirtyRingConfig;
using ptm::sim::OvercommitPolicy;
using ptm::sim::ScenarioConfig;

namespace {

// Sizes are fixed per workload (see README.md "Sizes"); a SimError at
// these sizes is a failed leg, never a reason to shrink the inputs.

ScenarioConfig
colocated(std::uint64_t seed, bool tiny)
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("pagerank")
                                .with_corunner("objdet", 2)
                                .with_scale(tiny ? 0.05 : 0.5)
                                .with_measure_ops(tiny ? 20'000 : 2'000'000)
                                .with_warmup_ops(tiny ? 5'000 : 100'000)
                                .with_seed(seed);
    if (tiny) {
        config.platform.guest_frames = 16 * 1024;
        config.platform.host_frames = 24 * 1024;
    }
    return config;
}

ScenarioConfig
colocated_hashed(std::uint64_t seed, bool tiny)
{
    return colocated(seed, tiny).with_table("hashed");
}

ScenarioConfig
fault_storm(std::uint64_t seed, bool tiny)
{
    return ScenarioConfig{}
        .with_victim("alloc_sweep")
        .with_corunner("stress-ng", 4)
        .with_scale(tiny ? 0.05 : 0.5)
        .with_measure_ops(10)  // the init sweep is the workload
        .with_measure_init()
        .with_warmup_ops(tiny ? 5'000 : 100'000)
        .with_seed(seed);
}

ScenarioConfig
fork_churn(std::uint64_t seed, bool tiny)
{
    const double scale = 0.25;
    const std::uint64_t measure_ops = tiny ? 30'000 : 300'000;
    ScenarioConfig config = ScenarioConfig{}
                                .with_workload("fork_storm")
                                .with_workload_param("request_ops", 96)
                                .with_scale(scale)
                                .with_measure_ops(measure_ops)
                                .with_warmup_ops(0)
                                .with_seed(seed);
    config.platform.guest_frames = 8192;
    config.platform.host_frames = 16 * 1024;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(192, 384)
                               .with_balloon_step(96)
                               .with_backoff(4, 64));
    // The storm schedule is part of the workload's definition: the
    // serving_forkstorm smoke storm (seed 71). Drawn from --seed instead,
    // 7 of 10 schedules ran VM 0's 32 MiB guest out of memory (SimError
    // on a COW break or page fault); --seed drives the generators.
    config.with_churn(ChurnPlan::storm(/*seed=*/71, /*begin_step=*/500,
                                       /*end_step=*/measure_ops,
                                       /*boots=*/12, /*kills=*/4,
                                       /*forks=*/6)
                          .with_workload("fork_storm")
                          .with_scale(scale * 0.4)
                          .with_guest_frames(2048));
    config.with_dirty_ring(DirtyRingConfig{}
                               .with_ring_entries(512)
                               .with_epoch_ops(8192));
    return config;
}

/// Forwarding proxy that copies the victim's op addresses into an
/// OpSink while recording is on. Simulated behaviour is untouched: every
/// call is forwarded unchanged.
class OpRecorder final : public ptm::workload::Workload {
  public:
    static constexpr std::size_t kCap = 1u << 17;

    OpRecorder(std::unique_ptr<ptm::workload::Workload> inner, OpSink &sink)
        : inner_(std::move(inner)), sink_(sink)
    {
    }

    void set_recording(bool on) { recording_ = on; }

    void setup(ptm::workload::WorkloadContext &ctx) override
    {
        inner_->setup(ctx);
    }
    std::optional<ptm::workload::MemOp>
    next(ptm::workload::WorkloadContext &ctx) override
    {
        std::optional<ptm::workload::MemOp> op = inner_->next(ctx);
        if (op && recording_ && sink_.size() < kCap)
            sink_.push_back(op->gva);
        return op;
    }
    unsigned
    next_batch(ptm::workload::WorkloadContext &ctx,
               ptm::workload::MemOp *out, unsigned max) override
    {
        unsigned n = inner_->next_batch(ctx, out, max);
        for (unsigned i = 0; i < n && recording_ && sink_.size() < kCap; ++i)
            sink_.push_back(out[i].gva);
        return n;
    }
    bool in_init_phase() const override { return inner_->in_init_phase(); }
    std::string name() const override { return inner_->name(); }
    ptm::Addr
    static_footprint() const override
    {
        return inner_->static_footprint();
    }

  private:
    std::unique_ptr<ptm::workload::Workload> inner_;
    OpSink &sink_;
    bool recording_ = false;
};

std::unique_ptr<ptm::workload::Workload>
make_job_workload(const std::string &name,
                  const ptm::workload::WorkloadOptions &options)
{
    // What run_scenario hands every job: the StreamCache memo (so the
    // second leg of a pair replays the first leg's streams), or the bare
    // generator when the memo is switched off.
    if (ptm::workload::StreamCache::enabled())
        return ptm::workload::StreamCache::instance().replay(name, options);
    return ptm::workload::make_workload(name, options);
}

void
run_leg_phases(const ScenarioConfig &config, Spans *spans, OpSink *ops,
               const PostRun &post_run, LegResult &leg)
{
    using ptm::sim::System;

    // run_leg supports the protocol features the workloads use; anything
    // else would silently diverge from run_scenario.
    if (config.vms != 1 || config.fault_plan.armed() ||
        !config.trace_record.empty() || !config.trace_replay.empty() ||
        config.replay_fast_forward || config.cold_measurement) {
        ptm_throw("perfbench leg runner: config uses a run_scenario "
                  "feature the runner does not replicate");
    }

    const Clock::time_point start = Clock::now();
    std::optional<ScopedSpan> phase;
    phase.emplace(spans, "sim.setup");

    unsigned cores = 1;
    for (const ptm::sim::CorunnerSpec &spec : config.corunners)
        cores += spec.workers;
    cores += static_cast<unsigned>(
        config.churn.count(ptm::sim::ChurnAction::Boot) +
        config.churn.count(ptm::sim::ChurnAction::Fork));

    ptm::sim::PlatformConfig platform = config.platform;
    platform.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;

    System system(platform, cores);
    const std::string policy = config.resolved_policy();
    if (policy != "buddy")
        system.set_policy(policy, config.resolved_policy_params());
    system.set_overcommit(config.overcommit);
    system.set_churn_plan(config.churn);
    if (config.dirty_ring.armed())
        system.arm_dirty_ring(config.dirty_ring);

    ptm::workload::WorkloadOptions options;
    options.scale = config.scale;
    options.seed = config.seed;
    ptm::workload::WorkloadOptions victim_options = options;
    victim_options.params = config.workload_params;
    std::unique_ptr<ptm::workload::Workload> victim_workload =
        make_job_workload(config.victim, victim_options);
    OpRecorder *recorder = nullptr;
    if (ops != nullptr) {
        auto proxy =
            std::make_unique<OpRecorder>(std::move(victim_workload), *ops);
        recorder = proxy.get();
        victim_workload = std::move(proxy);
    }
    ptm::sim::Job &victim = system.add_job(std::move(victim_workload));
    unsigned worker_index = 0;
    for (const ptm::sim::CorunnerSpec &spec : config.corunners) {
        for (unsigned w = 0; w < spec.workers; ++w) {
            ptm::workload::WorkloadOptions co_options = options;
            co_options.seed = config.seed + 1000 + (++worker_index);
            system.add_job(make_job_workload(spec.name, co_options));
        }
    }
    phase.reset();

    // Host time is cut into contiguous segments: setup, warmup, every
    // run_until/run_ops call (with the churn tick after it), snapshot.
    // Each mark() closes the segment that began at the previous one, so
    // the segments sum to run_s exactly.
    Clock::time_point last = start;
    auto mark = [&]() {
        Clock::time_point now = Clock::now();
        leg.segments_s.push_back(
            std::chrono::duration<double>(now - last).count());
        last = now;
    };
    auto phase_span = [&](const char *name) {
        phase.reset();
        phase.emplace(spans, name);
    };
    std::uint64_t window_first_step = 0;
    auto open_window = [&]() {
        leg.window_begin = leg.segments_s.size();
        window_first_step = system.total_steps();
        if (recorder != nullptr)
            recorder->set_recording(true);
    };
    mark();  // setup

    // Phase 0: co-runners reach steady state before the victim starts.
    if (config.corunner_warmup_ops > 0 && !config.corunners.empty()) {
        phase_span("sim.warmup");
        victim.set_paused(true);
        const std::uint64_t target = config.corunner_warmup_ops;
        system.run_until([&system, &victim, target]() {
            std::uint64_t total = 0;
            for (auto &job : system.jobs()) {
                if (job.get() != &victim)
                    total += job->stats().ops.value();
            }
            return total >= target;
        });
        victim.set_paused(false);
        system.churn_tick();
    }
    mark();  // warmup (empty when there is none)

    // Phase A: the victim allocates under full colocation, in the same
    // 4093-op steps run_scenario samples reservations at.
    phase_span("sim.init");
    if (config.measure_init)
        open_window();
    leg.init_begin = leg.segments_s.size();
    while (!victim.finished() && victim.workload().in_init_phase()) {
        const std::uint64_t before = victim.stats().ops.value();
        {
            ScopedSpan span(spans, "sim.chunk");
            system.run_until([&victim, before]() {
                return victim.finished() ||
                       !victim.workload().in_init_phase() ||
                       victim.stats().ops.value() >= before + 4093;
            });
        }
        system.churn_tick();
        mark();
    }

    if (config.stop_corunners_after_init) {
        for (auto &job : system.jobs()) {
            if (job.get() != &victim)
                job->set_paused(true);
        }
    }

    // Phase B: measure, in run_scenario's chunks (4096 ops when churn is
    // armed, else 64Ki), with churn events between chunks.
    phase_span("sim.measure");
    leg.measure_begin = leg.segments_s.size();
    if (!config.measure_init) {
        system.reset_measurement();
        open_window();
    }
    std::uint64_t remaining = config.measure_ops;
    const std::uint64_t chunk_ops = system.churn_armed() ? 4096 : 64 * 1024;
    while (remaining > 0 && !victim.finished()) {
        const std::uint64_t n = std::min(remaining, chunk_ops);
        const std::uint64_t before = victim.stats().ops.value();
        {
            ScopedSpan span(spans, "sim.chunk");
            system.run_ops(victim, n);
        }
        const std::uint64_t done = victim.stats().ops.value() - before;
        if (done > 0) {
            remaining -= std::min(remaining, done);
            system.churn_tick();
        }
        mark();
        if (done == 0)
            break;
    }
    leg.window_end = leg.segments_s.size();
    leg.window_ops = system.total_steps() - window_first_step;
    if (recorder != nullptr)
        recorder->set_recording(false);

    phase_span("sim.snapshot");
    leg.stats = system.stat_registry().snapshot();
    mark();
    phase.reset();

    leg.total_ops = system.total_steps();
    leg.victim_cycles = victim.stats().cycles.value();
    leg.victim_ops = victim.stats().ops.value();
    if (const ptm::host::VmInstance *vm0 = system.vm_if_alive(0)) {
        leg.host_pt_fragmentation =
            ptm::sim::host_pt_fragmentation(victim.process(), *vm0)
                .average_hpte_lines;
    }
    leg.digest = snapshot_digest(leg.stats);
    if (post_run)
        post_run(system, victim);
}

/// Split "a.b.c" at dots.
std::vector<std::string>
split_path(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t begin = 0;
    for (;;) {
        std::size_t dot = path.find('.', begin);
        parts.push_back(path.substr(begin, dot - begin));
        if (dot == std::string::npos)
            return parts;
        begin = dot + 1;
    }
}

/// One path component against one pattern component: "*" matches any
/// component, "vm*"-style prefixes match that prefix.
bool
component_matches(const std::string &pattern, const std::string &part)
{
    if (!pattern.empty() && pattern.back() == '*')
        return part.compare(0, pattern.size() - 1, pattern, 0,
                            pattern.size() - 1) == 0;
    return pattern == part;
}

}  // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"colocated", colocated},
        {"colocated_hashed", colocated_hashed},
        {"fault_storm", fault_storm},
        {"fork_churn", fork_churn},
    };
    return specs;
}

const WorkloadSpec *
find_workload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads()) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

LegResult
run_leg(const ScenarioConfig &config, Spans *spans, OpSink *ops,
        const PostRun &post_run)
{
    LegResult leg;
    leg.policy = config.resolved_policy();
    try {
        run_leg_phases(config, spans, ops, post_run, leg);
        leg.ok = true;
    } catch (const std::exception &e) {
        leg.ok = false;
        leg.error = e.what();
    }
    return leg;
}

std::uint64_t
snapshot_digest(const ptm::obs::StatSnapshot &snapshot)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void *data, std::size_t size) {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= bytes[i];
            h *= 0x100000001b3ULL;
        }
    };
    for (const ptm::obs::StatSnapshot::Entry &e : snapshot.entries()) {
        mix(e.path.data(), e.path.size());
        mix(&e.is_histogram, sizeof e.is_histogram);
        mix(&e.value, sizeof e.value);
        const ptm::obs::HistogramSummary &s = e.histogram;
        for (std::uint64_t v : {s.count, s.sum, s.min, s.max, s.p50, s.p90,
                                s.p99})
            mix(&v, sizeof v);
        mix(&s.mean, sizeof s.mean);
    }
    return h;
}

bool
same_snapshot(const ptm::obs::StatSnapshot &a,
              const ptm::obs::StatSnapshot &b, std::string &why)
{
    if (a.size() != b.size()) {
        why = "snapshot sizes differ (" + std::to_string(a.size()) +
              " vs " + std::to_string(b.size()) + " entries)";
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a.entries()[i];
        const auto &y = b.entries()[i];
        const auto &hx = x.histogram;
        const auto &hy = y.histogram;
        bool same = x.path == y.path && x.is_histogram == y.is_histogram &&
                    x.value == y.value && hx.count == hy.count &&
                    hx.sum == hy.sum && hx.min == hy.min &&
                    hx.max == hy.max && hx.p50 == hy.p50 &&
                    hx.p90 == hy.p90 && hx.p99 == hy.p99;
        if (!same) {
            why = "first difference at " + x.path;
            return false;
        }
    }
    return true;
}

double
sum_counters(const ptm::obs::StatSnapshot &snapshot,
             const std::string &pattern)
{
    const std::vector<std::string> want = split_path(pattern);
    double total = 0.0;
    for (const ptm::obs::StatSnapshot::Entry &e : snapshot.entries()) {
        if (e.is_histogram)
            continue;
        const std::vector<std::string> parts = split_path(e.path);
        if (parts.size() != want.size())
            continue;
        bool match = true;
        for (std::size_t i = 0; i < parts.size() && match; ++i)
            match = component_matches(want[i], parts[i]);
        if (match)
            total += e.value;
    }
    return total;
}

std::string
check_leg(const std::string &workload, const ScenarioConfig &config,
          const LegResult &leg)
{
    const ptm::obs::StatSnapshot &s = leg.stats;
    if (leg.window_ops == 0 || leg.total_ops == 0)
        return "no simulated operations";
    if (!config.measure_init && leg.victim_ops != config.measure_ops)
        return "victim ran " + std::to_string(leg.victim_ops) + " of " +
               std::to_string(config.measure_ops) + " measured ops";
    if (sum_counters(s, "vm*.kernel.oom_events") != 0.0)
        return "unserviceable guest page faults (guest OOM)";
    if (leg.policy == kTreatmentPolicy &&
        sum_counters(s, "vm0.provider.part_hits") == 0.0)
        return "ptemagnet leg recorded no PaRT hits";
    if (workload == "fault_storm") {
        // Every page of the sweep faults exactly once.
        const double faults = sum_counters(s, "vm0.core0.walker.guest_faults");
        if (leg.victim_ops < 2 || faults != double(leg.victim_ops - 1))
            return "alloc_sweep did not fault once per page";
    }
    if (workload == "fork_churn") {
        if (sum_counters(s, "host.overcommit.churn_boots") == 0.0 ||
            sum_counters(s, "host.overcommit.churn_forks") == 0.0)
            return "the churn storm booted or forked nothing";
        if (sum_counters(s, "vm*.dirty_ring.logged") == 0.0)
            return "no writes reached the dirty rings";
    }
    return {};
}

}  // namespace perfbench
