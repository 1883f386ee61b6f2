/**
 * @file
 * Shared declarations of the repository benchmark (perfbench).
 *
 * The benchmark drives sim::System through its public calls with its own
 * copy of the run_scenario protocol, so it can time every phase from the
 * outside; a traced run additionally times each lower layer by calling
 * that layer's public functions on the post-run simulator state. See
 * perfbench/README.md for the workloads, metrics and the layer map.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/stat_registry.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- spans -----------------------------------------------------------

/**
 * In-memory span recorder of the traced run: name, start, end and the
 * enclosing span, written out once when the benchmark ends. Spans are
 * opened only around System phase calls and around each layer's batches
 * of calls, never per simulated operation.
 */
class Spans {
  public:
    struct Span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        int parent = -1;  ///< index of the enclosing span, -1 at the root
    };

    Spans();

    /// Open a span nested in the innermost open one; returns its index.
    int open(std::string name);
    /// Close span @p index (must be the innermost open span).
    void close(int index);
    /// Duration of a closed span, in seconds.
    double seconds(int index) const;

    /// Write all spans as a chrome://tracing JSON array to @p path.
    /// @return false (with a message on stderr) when the file cannot be
    ///         written.
    bool write(const std::string &path) const;

  private:
    std::int64_t now_ns() const;

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span; a no-op when the recorder is null (untraced runs).
class ScopedSpan {
  public:
    ScopedSpan(Spans *spans, std::string name)
        : spans_(spans), index_(spans ? spans->open(std::move(name)) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (spans_ != nullptr)
            spans_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Spans *spans_;
    int index_;
};

// ---- workloads -------------------------------------------------------

struct WorkloadSpec {
    const char *name;
    /// Leg configuration for @p seed (policy left unset: the caller
    /// picks the leg's policy). @p tiny selects the test-sized inputs.
    ptm::sim::ScenarioConfig (*make)(std::uint64_t seed, bool tiny);
};

/// The benchmark's workloads, in a fixed order.
const std::vector<WorkloadSpec> &workloads();
/// Lookup by name; nullptr when unknown.
const WorkloadSpec *find_workload(const std::string &name);

/// The two legs of every workload, run back to back on one thread.
inline constexpr const char *kBaselinePolicy = "buddy";
inline constexpr const char *kTreatmentPolicy = "ptemagnet";

// ---- legs ------------------------------------------------------------

/// Host-side timings and simulated outcome of one leg.
struct LegResult {
    std::string policy;
    bool ok = false;
    std::string error;  ///< SimError / check failure text when !ok

    /// Host seconds of contiguous segments that sum to the leg's run
    /// time (System construction through the final stat snapshot):
    /// [0] setup, [1] warmup, then one per run_until/run_ops call with
    /// the churn tick after it (init steps from init_begin, measure
    /// chunks from measure_begin), and last the snapshot.
    std::vector<double> segments_s;
    std::size_t init_begin = 0;
    std::size_t measure_begin = 0;
    /// The measurement window's segments, [window_begin, window_end):
    /// init and measure under the measure-init protocol, else measure.
    std::size_t window_begin = 0;
    std::size_t window_end = 0;
    /// Simulated ops (all jobs) inside the measurement window.
    std::uint64_t window_ops = 0;
    /// Simulated ops (all jobs) in the whole leg.
    std::uint64_t total_ops = 0;

    ptm::Cycles victim_cycles = 0;
    std::uint64_t victim_ops = 0;
    double host_pt_fragmentation = 0.0;  ///< §3.2 average hPTE lines
    ptm::obs::StatSnapshot stats;
    std::uint64_t digest = 0;  ///< FNV-1a over the full stat snapshot
};

/// Called on the finished System after the final snapshot (outside every
/// timed phase); the traced run times the layers from here.
using PostRun = std::function<void(ptm::sim::System &, ptm::sim::Job &victim)>;
/// Receives the victim's measured-window op addresses (traced run only).
using OpSink = std::vector<ptm::Addr>;

/**
 * Run one leg of @p config with the run_scenario protocol, timing each
 * System phase. Never throws: a SimError (or any std::exception) marks
 * the leg failed with its message.
 */
LegResult run_leg(const ptm::sim::ScenarioConfig &config, Spans *spans,
                  OpSink *ops, const PostRun &post_run);

/// FNV-1a digest of every snapshot entry (paths, values, histograms).
std::uint64_t snapshot_digest(const ptm::obs::StatSnapshot &snapshot);
/// Entry-by-entry equality; on mismatch @p why names the first one.
bool same_snapshot(const ptm::obs::StatSnapshot &a,
                   const ptm::obs::StatSnapshot &b, std::string &why);

/**
 * Per-workload output checks on a finished leg (expected op counts,
 * faults, churn events, PaRT activity). Returns an empty string when the
 * leg is correct, else what is wrong.
 */
std::string check_leg(const std::string &workload,
                      const ptm::sim::ScenarioConfig &config,
                      const LegResult &leg);

/// Sum of every counter whose path matches @p pattern: '*' matches one
/// dot-separated component (e.g. "vm*.core*.job.ops").
double sum_counters(const ptm::obs::StatSnapshot &snapshot,
                    const std::string &pattern);

// ---- layers ----------------------------------------------------------

/// Host ns per call of each lower layer, measured on one leg's final
/// state (see layers.cpp for what each batch replays).
struct LayerTimes {
    double next_batch_ns_per_op = 0.0;
    double tlb_lookup_ns = 0.0;
    double pt_walk_ns_radix = 0.0;
    double pt_walk_ns_hashed = 0.0;
    double translate_ns_tlb_hit = 0.0;
    double translate_ns_walk = 0.0;
    double cache_access_ns = 0.0;
    double buddy_alloc_ns = 0.0;
    double buddy_free_ns = 0.0;
    double part_claim_ns = 0.0;
    double fault_ns = 0.0;
};

/**
 * Time every layer on @p system's post-run state. @p ops holds the
 * victim's measured-window op addresses; each layer replays them (or
 * the gva -> gpa -> hpa chain they resolve to through the tables'
 * public lookup) in timed batches, one span per layer.
 * @throws SimError when a layer call fails (e.g. guest OOM).
 */
LayerTimes time_layers(ptm::sim::System &system, ptm::sim::Job &victim,
                       const ptm::sim::ScenarioConfig &config,
                       const OpSink &ops, Spans &spans);

}  // namespace perfbench
