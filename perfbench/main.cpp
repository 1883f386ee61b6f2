/**
 * @file
 * perfbench_measure: the repository benchmark's measuring program.
 *
 *   perfbench_measure --workload NAME --seed N --seconds S --trace 0|1
 *                    [--tiny] [--spans PATH]
 *
 * Each workload is a closed loop of paired legs (buddy, then ptemagnet)
 * on one thread, repeated until S seconds have passed; every pair starts
 * from a cold workload memo. --trace 0 prints the end-to-end metrics;
 * --trace 1 is the separate traced run that prints the per-layer
 * metrics (and writes its spans to PATH). Both modes check once that a
 * leg's stat snapshot equals run_scenario's for the same config and
 * seed, that repeated legs have identical snapshot digests, and the
 * per-workload output checks in check_leg(). Every failure counts as a
 * failed leg. The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workload/trace.hpp"

namespace {

using namespace perfbench;
using ptm::sim::ScenarioConfig;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string spans_path;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_measure: %s\nusage: perfbench_measure --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--tiny] "
                 "[--spans PATH]\nworkloads:",
                 why);
    for (const WorkloadSpec &spec : workloads())
        std::fprintf(stderr, " %s", spec.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--workload") == 0) {
            o.workload = value();
            have_workload = true;
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            o.seed = std::strtoull(value(), nullptr, 10);
        } else if (std::strcmp(argv[i], "--seconds") == 0) {
            o.seconds = std::strtod(value(), nullptr);
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            o.trace = std::strcmp(value(), "0") != 0;
        } else if (std::strcmp(argv[i], "--tiny") == 0) {
            o.tiny = true;
        } else if (std::strcmp(argv[i], "--spans") == 0) {
            o.spans_path = value();
        } else {
            usage("unknown argument");
        }
    }
    if (!have_workload || find_workload(o.workload) == nullptr)
        usage("unknown or missing --workload");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, @p q in (0, 1].
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// The invocation's bookkeeping: legs attempted/failed and the checks.
class Run {
  public:
    Run(const Options &options)
        : options_(options), spec_(*find_workload(options.workload))
    {
    }

    ScenarioConfig
    config(const char *policy) const
    {
        ScenarioConfig c = spec_.make(options_.seed, options_.tiny);
        c.policy_name = policy;
        return c;
    }

    void
    fail(const std::string &policy, const std::string &why)
    {
        ++failed_;
        std::fprintf(stderr, "perfbench: %s leg %s failed: %s\n",
                     spec_.name, policy.c_str(), why.c_str());
    }

    /// The protocol-identity reference: run_scenario's own leg.
    void
    run_reference()
    {
        ++attempted_;
        ptm::workload::StreamCache::instance().clear();
        try {
            reference_ = ptm::sim::run_scenario(config(kTreatmentPolicy));
            have_reference_ = true;
        } catch (const std::exception &e) {
            fail(kTreatmentPolicy, std::string("run_scenario: ") + e.what());
        }
    }

    /// Run one pair of legs from a cold memo; returns false if a leg
    /// failed. @p traced legs get spans, op recording and layer timing.
    bool
    run_pair(Spans *spans, std::vector<LegResult> &legs,
             std::vector<LayerTimes> *layers)
    {
        ptm::workload::StreamCache::instance().clear();
        bool ok = true;
        for (const char *policy : {kBaselinePolicy, kTreatmentPolicy}) {
            ScenarioConfig c = config(policy);
            OpSink ops;
            LayerTimes times;
            PostRun post_run;
            if (layers != nullptr) {
                post_run = [&](ptm::sim::System &system,
                               ptm::sim::Job &victim) {
                    times = time_layers(system, victim, c, ops, *spans);
                };
            }
            ++attempted_;
            LegResult leg;
            {
                ScopedSpan span(spans, std::string("leg.") + policy);
                leg = run_leg(c, spans, layers ? &ops : nullptr, post_run);
            }
            if (!check(c, leg)) {
                ok = false;
                continue;
            }
            if (layers != nullptr)
                layers->push_back(times);
            legs.push_back(std::move(leg));
        }
        return ok;
    }

    int attempted() const { return attempted_; }
    int failed() const { return failed_; }

  private:
    bool
    check(const ScenarioConfig &c, const LegResult &leg)
    {
        if (!leg.ok) {
            fail(leg.policy, leg.error);
            return false;
        }
        std::string why = check_leg(spec_.name, c, leg);
        if (!why.empty()) {
            fail(leg.policy, why);
            return false;
        }
        auto [it, first] = digests_.emplace(leg.policy, leg.digest);
        if (!first && it->second != leg.digest) {
            fail(leg.policy, "stat snapshot differs from the first leg of "
                             "this policy (nondeterminism)");
            return false;
        }
        if (leg.policy == kTreatmentPolicy && !identity_checked_ &&
            have_reference_) {
            identity_checked_ = true;
            if (!same_snapshot(reference_.stats, leg.stats, why)) {
                fail(leg.policy,
                     "protocol identity: leg snapshot differs from "
                     "run_scenario's (" + why + ")");
                return false;
            }
        }
        return true;
    }

    const Options &options_;
    const WorkloadSpec &spec_;
    int attempted_ = 0;
    int failed_ = 0;
    ptm::sim::ScenarioResult reference_;
    bool have_reference_ = false;
    bool identity_checked_ = false;
    std::map<std::string, std::uint64_t> digests_;
};

double
peak_rss_mb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
sum(const std::vector<double> &v, std::size_t begin, std::size_t end)
{
    double total = 0.0;
    for (std::size_t i = begin; i < end && i < v.size(); ++i)
        total += v[i];
    return total;
}

/**
 * Host time of one policy's leg as the fastest repeat of each segment.
 * Every repeat of a leg runs the same deterministic segment sequence,
 * and noise on a shared host (neighbours, frequency changes) only adds
 * time, so the per-segment minimum over the run's repeats is the
 * steadiest estimate of the program's own cost.
 */
class Composite {
  public:
    /// Fold in one leg; false if its segment sequence differs.
    bool
    add(const LegResult &leg)
    {
        auto [it, first] = best_.try_emplace(leg.policy);
        LegResult &best = it->second;
        if (first) {
            best = leg;
            best.stats = {};
            return true;
        }
        if (best.segments_s.size() != leg.segments_s.size())
            return false;
        for (std::size_t i = 0; i < leg.segments_s.size(); ++i) {
            best.segments_s[i] =
                std::min(best.segments_s[i], leg.segments_s[i]);
        }
        return true;
    }

    bool empty() const { return best_.empty(); }

    /// @p fn of each policy's composite leg, summed over the policies.
    template <typename Fn>
    double
    total(Fn &&fn) const
    {
        double t = 0.0;
        for (const auto &[policy, leg] : best_)
            t += fn(leg);
        return t;
    }

    double
    run_s() const
    {
        return total([](const LegResult &l) {
            return sum(l.segments_s, 0, l.segments_s.size());
        });
    }
    double
    window_s() const
    {
        return total([](const LegResult &l) {
            return sum(l.segments_s, l.window_begin, l.window_end);
        });
    }
    double
    window_ops() const
    {
        return total([](const LegResult &l) { return double(l.window_ops); });
    }

  private:
    /// Per policy: a leg whose segments_s holds the per-segment minima.
    std::map<std::string, LegResult> best_;
};

void
add_leg(Run &run, Composite &composite, const LegResult &leg)
{
    if (!composite.add(leg))
        run.fail(leg.policy, "segment sequence changed between repeats");
}

std::vector<Metric>
end_to_end(Run &run, const Options &o)
{
    run.run_reference();
    Composite best;
    std::size_t pairs = 0;
    const Clock::time_point start = Clock::now();
    do {
        std::vector<LegResult> legs;
        if (run.run_pair(nullptr, legs, nullptr))
            ++pairs;
        for (const LegResult &leg : legs)
            add_leg(run, best, leg);
    } while (seconds_since(start) < o.seconds);

    std::printf("pairs measured: %zu (legs_attempted %d, legs_failed %d)\n",
                pairs, run.attempted(), run.failed());
    if (best.empty())
        return {};
    return {
        {"sim_ops_per_s", ratio(best.window_ops(), best.window_s()), "1/s"},
        {"run_s", best.run_s(), "s"},
        {"setup_s",
         best.total([](const LegResult &l) { return l.segments_s[0]; }),
         "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

std::uint64_t
mix_digests(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t h = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    return h & ((std::uint64_t{1} << 48) - 1);  // exact as a JSON double
}

std::vector<Metric>
per_layer(Run &run, const Options &o)
{
    run.run_reference();
    Spans spans;
    std::vector<LegResult> traced_legs;
    std::vector<LayerTimes> layers;
    Composite plain, traced;
    const Clock::time_point start = Clock::now();
    do {
        // An untraced pair beside every traced one gives the tracing
        // overhead; its snapshots are not kept.
        std::vector<LegResult> legs;
        run.run_pair(nullptr, legs, nullptr);
        for (const LegResult &leg : legs)
            add_leg(run, plain, leg);
        const std::size_t from = traced_legs.size();
        run.run_pair(&spans, traced_legs, &layers);
        for (std::size_t i = from; i < traced_legs.size(); ++i)
            add_leg(run, traced, traced_legs[i]);
    } while (seconds_since(start) < o.seconds);
    if (!o.spans_path.empty())
        spans.write(o.spans_path);
    if (traced_legs.empty())
        return {};

    // Pooled counts over every traced leg.
    double job_ops = 0, total_ops = 0, translations = 0, l1_hits = 0,
           l2_hits = 0, walks = 0, host_walks = 0, pwc_hits = 0,
           pwc_lookups = 0, ntlb_hits = 0, ntlb_lookups = 0, batched = 0,
           hier_accesses = 0, hier_l1 = 0, hier_mem = 0, buddy_calls = 0,
           failed_allocs = 0, part_hits = 0, part_misses = 0, faults = 0,
           write_faults = 0, host_faults = 0, reclaim_sweeps = 0,
           balloon_pages = 0, oom_kills = 0, ring_logged = 0;
    std::vector<double> budget, chunks;
    std::vector<double> nb, tlb_ns, walk_radix, walk_hashed, hit_ns,
        walk_ns, cache_ns, alloc_ns, free_ns, claim_ns, fault_ns;
    for (std::size_t i = 0; i < traced_legs.size(); ++i) {
        const LegResult &leg = traced_legs[i];
        const LayerTimes &t = layers[i];
        const ptm::obs::StatSnapshot &s = leg.stats;
        const double ops = sum_counters(s, "vm*.core*.job.ops");
        const double tr = sum_counters(s, "vm*.core*.walker.translations");
        const double wk = sum_counters(s, "vm*.core*.walker.tlb_misses");
        const double data = sum_counters(s, "vm*.core*.job.data_accesses");
        const double gf = sum_counters(s, "vm*.core*.walker.guest_faults");
        job_ops += ops;
        total_ops += double(leg.total_ops);
        translations += tr;
        walks += wk;
        l1_hits += sum_counters(s, "vm*.core*.walker.tlb_l1_hits");
        l2_hits += sum_counters(s, "vm*.core*.walker.tlb_l2_hits");
        host_walks += sum_counters(s, "vm*.core*.walker.host_walks");
        double ph = sum_counters(s, "vm*.core*.pwc_l*.hits");
        pwc_hits += ph;
        pwc_lookups += ph + sum_counters(s, "vm*.core*.pwc_l*.misses");
        double nh = sum_counters(s, "vm*.core*.nested_tlb.hits");
        ntlb_hits += nh;
        ntlb_lookups += nh + sum_counters(s, "vm*.core*.nested_tlb.misses");
        batched += sum_counters(s, "vm*.core*.walker.wrf.batched_ops");
        hier_accesses += sum_counters(s, "vm*.hier.*.accesses");
        hier_l1 += sum_counters(s, "vm*.hier.*.served.L1");
        hier_mem += sum_counters(s, "vm*.hier.*.served.memory");
        buddy_calls += sum_counters(s, "vm*.buddy.alloc_calls");
        failed_allocs += sum_counters(s, "vm*.buddy.failed_allocs") +
                         sum_counters(s, "host.buddy.failed_allocs");
        part_hits += sum_counters(s, "vm*.provider.part_hits");
        part_misses += sum_counters(s, "vm*.provider.reservations_created");
        faults += sum_counters(s, "vm*.kernel.faults_handled");
        write_faults += sum_counters(s, "vm*.kernel.write_faults");
        host_faults += sum_counters(s, "host.kernel.faults_handled");
        reclaim_sweeps += sum_counters(s, "host.overcommit.reclaim_sweeps");
        balloon_pages += sum_counters(s, "host.overcommit.balloon_pages");
        oom_kills += sum_counters(s, "host.overcommit.oom_kills");
        ring_logged += sum_counters(s, "vm*.dirty_ring.logged");

        for (std::size_t k = leg.window_begin; k < leg.window_end; ++k)
            chunks.push_back(leg.segments_s[k] * 1e3);
        // Layer budget: each layer's ns times its event count per op.
        budget.push_back(
            t.next_batch_ns_per_op +
            t.tlb_lookup_ns * ratio(tr - wk, ops) +
            t.translate_ns_walk * ratio(wk, ops) +
            t.cache_access_ns * ratio(data, ops) +
            t.fault_ns * ratio(gf, ops));
        nb.push_back(t.next_batch_ns_per_op);
        tlb_ns.push_back(t.tlb_lookup_ns);
        walk_radix.push_back(t.pt_walk_ns_radix);
        walk_hashed.push_back(t.pt_walk_ns_hashed);
        hit_ns.push_back(t.translate_ns_tlb_hit);
        walk_ns.push_back(t.translate_ns_walk);
        cache_ns.push_back(t.cache_access_ns);
        alloc_ns.push_back(t.buddy_alloc_ns);
        free_ns.push_back(t.buddy_free_ns);
        claim_ns.push_back(t.part_claim_ns);
        fault_ns.push_back(t.fault_ns);
    }
    const double legs = double(traced_legs.size());
    const double measured =
        ratio(traced.window_s() * 1e9, traced.window_ops());
    const double budgeted = median(budget);

    // Simulated model outputs of the first traced pair (exact; equal in
    // every pair by the digest check).
    double cpo_base = 0, cpo_ptm = 0, speedup = 0, frag_base = 0,
           frag_ptm = 0, digest = 0;
    if (traced_legs.size() >= 2) {
        const LegResult &b = traced_legs[0];
        const LegResult &p = traced_legs[1];
        cpo_base = ratio(double(b.victim_cycles), double(b.victim_ops));
        cpo_ptm = ratio(double(p.victim_cycles), double(p.victim_ops));
        speedup = 100.0 * ratio(double(b.victim_cycles) -
                                    double(p.victim_cycles),
                                double(b.victim_cycles));
        frag_base = b.host_pt_fragmentation;
        frag_ptm = p.host_pt_fragmentation;
        digest = double(mix_digests(b.digest, p.digest));
    }

    return {
        {"sim.ns_per_op", measured, "ns"},
        {"sim.warmup_s",
         traced.total([](const LegResult &l) { return l.segments_s[1]; }),
         "s"},
        {"sim.init_s",
         traced.total([](const LegResult &l) {
             return sum(l.segments_s, l.init_begin, l.measure_begin);
         }),
         "s"},
        {"sim.measure_s",
         traced.total([](const LegResult &l) {
             return sum(l.segments_s, l.measure_begin,
                        l.segments_s.size() - 1);
         }),
         "s"},
        {"sim.snapshot_ms",
         1e3 * traced.total([](const LegResult &l) {
             return l.segments_s.back();
         }),
         "ms"},
        {"sim.chunk_ms_p50", percentile(chunks, 0.5), "ms"},
        {"sim.chunk_ms_p90", percentile(chunks, 0.9), "ms"},
        {"sim.chunks", double(chunks.size()), "count"},
        {"sim.batched_op_share", ratio(batched, job_ops), "ratio"},
        {"workload.next_batch_ns_per_op", median(nb), "ns"},
        {"tlb.lookup_ns", median(tlb_ns), "ns"},
        {"tlb.l1_hit_ratio", ratio(l1_hits, translations), "ratio"},
        {"tlb.l2_hit_ratio", ratio(l2_hits, translations - l1_hits),
         "ratio"},
        {"tlb.pwc_hit_ratio", ratio(pwc_hits, pwc_lookups), "ratio"},
        {"tlb.nested_hit_ratio", ratio(ntlb_hits, ntlb_lookups), "ratio"},
        {"pt.walk_ns.radix", median(walk_radix), "ns"},
        {"pt.walk_ns.hashed", median(walk_hashed), "ns"},
        {"mmu.translate_ns.tlb_hit", median(hit_ns), "ns"},
        {"mmu.translate_ns.walk", median(walk_ns), "ns"},
        {"mmu.walks_per_kop", 1000.0 * ratio(walks, job_ops), "1/kop"},
        {"mmu.host_walks_per_walk", ratio(host_walks, walks), "ratio"},
        {"cache.access_ns", median(cache_ns), "ns"},
        {"cache.accesses_per_op", ratio(hier_accesses, job_ops), "1/op"},
        {"cache.l1_hit_ratio", ratio(hier_l1, hier_accesses), "ratio"},
        {"cache.memory_share", ratio(hier_mem, hier_accesses), "ratio"},
        {"mem.buddy_alloc_ns", median(alloc_ns), "ns"},
        {"mem.buddy_free_ns", median(free_ns), "ns"},
        {"mem.buddy_calls_per_kop", 1000.0 * ratio(buddy_calls, total_ops),
         "1/kop"},
        {"mem.failed_allocs", failed_allocs / legs, "count"},
        {"core.part_claim_ns", median(claim_ns), "ns"},
        {"core.part_hit_ratio", ratio(part_hits, part_hits + part_misses),
         "ratio"},
        {"vm.fault_ns", median(fault_ns), "ns"},
        {"vm.faults_per_kop", 1000.0 * ratio(faults, total_ops), "1/kop"},
        {"vm.write_faults_per_kop", 1000.0 * ratio(write_faults, total_ops),
         "1/kop"},
        {"host.faults_per_kop", 1000.0 * ratio(host_faults, total_ops),
         "1/kop"},
        {"host.reclaim_sweeps", reclaim_sweeps / legs, "count"},
        {"host.balloon_pages", balloon_pages / legs, "count"},
        {"host.oom_kills", oom_kills / legs, "count"},
        {"obs.dirty_ring_logged_per_kop",
         1000.0 * ratio(ring_logged, total_ops), "1/kop"},
        {"model.cycles_per_op.buddy", cpo_base, "cycles/op"},
        {"model.cycles_per_op.ptemagnet", cpo_ptm, "cycles/op"},
        {"model.ptemagnet_speedup_pct", speedup, "%"},
        {"model.host_pt_fragmentation.buddy", frag_base, "lines"},
        {"model.host_pt_fragmentation.ptemagnet", frag_ptm, "lines"},
        {"model.snapshot_digest", digest, "hash"},
        {"budget.ns_per_op", budgeted, "ns"},
        {"budget.gap_pct", 100.0 * ratio(measured - budgeted, measured), "%"},
        {"trace.overhead_pct",
         100.0 * ratio(traced.run_s() - plain.run_s(), plain.run_s()),
         "%"},
    };
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    Run run(options);
    const std::vector<Metric> metrics =
        options.trace ? per_layer(run, options) : end_to_end(run, options);

    for (const Metric &m : metrics)
        std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const bool correct = run.failed() == 0 && !metrics.empty();
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", run.attempted(), run.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
