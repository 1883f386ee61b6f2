/**
 * @file
 * ExperimentSuite: the declarative, parallel experiment driver.
 *
 * Every reproduction target (Figures 5-7, Tables 1/4, the §6.x
 * ablations) is the same shape: a set of named scenarios, each an
 * independent `System` simulation, followed by a report. The suite makes
 * that shape first-class:
 *
 *     ExperimentSuite suite("fig6_perf_objdet");
 *     for (const std::string &name : workload::benchmark_names())
 *         suite.add(name, ScenarioConfig{}
 *                             .with_victim(name)
 *                             .with_corunner_preset("objdet8")
 *                             .with_scale(0.5)
 *                             .with_measure_ops(600'000));
 *     SuiteResult result = suite.run();
 *     print_improvement_table(result);
 *
 * run() executes every scenario leg (two legs per Paired entry: buddy
 * baseline and PTEMagnet) concurrently on a thread pool — `System`s
 * share no mutable state, so results are bit-identical to a serial run —
 * and writes `BENCH_<suite>.json` with the full machine-readable result
 * set so the repo's perf trajectory can be tracked by tools.
 *
 * `run_scenario`/`run_paired` (sim/experiment.hpp) stay the thin
 * primitives this driver composes.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"

namespace ptm::sim {

/// How one registered scenario is executed.
enum class RunKind {
    Single,  ///< one run with the config's own policy
    /// Two runs: buddy baseline vs the config's own policy — PTEMagnet
    /// when the config names none (the Figure 6/7 bars).
    Paired,
};

/// One registered scenario.
struct SuiteEntry {
    std::string name;      ///< unique within the suite
    ScenarioConfig config;
    RunKind kind = RunKind::Paired;
    std::string sweep_param;  ///< parameter name when part of a sweep
    double sweep_value = 0.0; ///< parameter value (numeric sweeps)
    std::string sweep_text;   ///< parameter value (text sweeps)
};

/// Terminal state of one entry after run().
enum class EntryStatus {
    Ok,      ///< every leg completed
    Failed,  ///< a leg threw SimError
};

/// Outcome of one entry; `single` or `paired` is filled per `kind`.
struct EntryResult {
    SuiteEntry entry;
    ScenarioResult single;
    PairedResult paired;
    EntryStatus status = EntryStatus::Ok;
    std::string error;  ///< first SimError message when Failed

    bool is_paired() const { return entry.kind == RunKind::Paired; }
    bool failed() const { return status == EntryStatus::Failed; }

    /// The run of interest: the PTEMagnet leg of a pair, else the single
    /// run itself.
    const ScenarioResult &
    primary() const
    {
        return is_paired() ? paired.ptemagnet : single;
    }

    /// Paired improvement (baseline vs PTEMagnet); 0 for Single entries.
    double
    improvement_percent() const
    {
        return is_paired() ? paired.improvement_percent() : 0.0;
    }
};

/// Everything a suite run produced, in registration order.
class SuiteResult {
  public:
    const std::string &suite_name() const { return suite_name_; }
    /// Worker threads the run used (for provenance in reports).
    unsigned threads() const { return threads_; }

    const std::vector<EntryResult> &entries() const { return entries_; }
    const EntryResult &at(const std::string &name) const;
    bool has(const std::string &name) const;

    /// improvement_percent() of every completed Paired entry, in order
    /// (failed entries contribute nothing — see EntryStatus).
    std::vector<double> improvements() const;
    /// Entries whose status is Failed.
    std::size_t failed_count() const;
    /// The paper's "Geomean" bar over all Paired entries.
    double geomean() const;

    Json to_json() const;

    /**
     * Write to_json() to `<dir>/BENCH_<suite>.json`. @p dir defaults to
     * $PTM_BENCH_DIR, falling back to the working directory. Returns the
     * path written. Crash-safe: the document is written to a temporary
     * file and atomically renamed into place, so a reader (or a crash
     * mid-write) never observes a truncated BENCH file.
     */
    std::string write_json(const std::string &dir = "") const;

  private:
    friend class ExperimentSuite;

    std::string suite_name_;
    unsigned threads_ = 1;
    std::vector<EntryResult> entries_;
};

/// Knobs for ExperimentSuite::run().
struct SuiteOptions {
    /// Worker threads; 0 = PTM_SUITE_THREADS or hardware concurrency.
    unsigned threads = 0;
    bool write_json = true;      ///< emit BENCH_<suite>.json after the run
    std::string json_dir;        ///< see SuiteResult::write_json
    bool announce = true;        ///< one-line progress note on stderr
};

class ExperimentSuite {
  public:
    explicit ExperimentSuite(std::string name);

    /**
     * Register scenario @p name. Paired entries run a buddy baseline leg
     * against the config's own policy (PTEMagnet when none is named);
     * Single entries run exactly as configured. Returns the stored
     * config for further tweaks. Duplicate names are fatal.
     */
    ScenarioConfig &add(const std::string &name, ScenarioConfig config,
                        RunKind kind = RunKind::Paired);

    /**
     * Parameter sweep: register one entry per value, each a copy of
     * @p base with @p param set to the value, named
     * "<label>/<param>=<value>". Supported params: reservation_pages,
     * scale, measure_ops, seed, corunner_warmup_ops, pressure_every
     * (periodic FaultPlan pressure cadence in faults; 0 = unarmed), vms
     * (co-resident VM count); unknown names are fatal.
     */
    void sweep(const std::string &label, const std::string &param,
               const std::vector<double> &values, ScenarioConfig base,
               RunKind kind = RunKind::Paired);

    /**
     * Text-valued parameter sweep, for the factory-name axes: "policy"
     * sweeps ScenarioConfig::with_policy over registered allocation
     * policies, "table" sweeps with_table over translation structures —
     * both fail fast (SimError listing registered names) on unknown
     * values. Any numeric parameter of the double overload also works
     * with its value spelled as text. Entries are named
     * "<label>/<param>=<value>" and default to RunKind::Single, since a
     * swept policy IS the run's treatment.
     */
    void sweep(const std::string &label, const std::string &param,
               const std::vector<std::string> &values, ScenarioConfig base,
               RunKind kind = RunKind::Single);

    /**
     * Execute every registered scenario on a thread pool. Reentrant:
     * entries are not consumed, so a suite can be run repeatedly.
     *
     * Crash isolation: a leg that throws SimError marks its entry
     * EntryStatus::Failed with the error recorded — sibling entries run
     * to completion unaffected and run() still returns (and writes
     * JSON) normally. Runs are deterministic, so a failed leg is not
     * retried.
     * Only non-SimError exceptions (simulator bugs) propagate.
     */
    SuiteResult run(const SuiteOptions &options = {}) const;

    const std::string &name() const { return name_; }
    std::size_t size() const { return entries_.size(); }
    const std::vector<SuiteEntry> &entries() const { return entries_; }

  private:
    std::string name_;
    std::vector<SuiteEntry> entries_;
};

// ---- reporting helpers ----------------------------------------------

/**
 * The Figure 6/7-style stdout table: one row per Paired entry (name,
 * baseline cycles, PTEMagnet cycles, improvement) plus the Geomean row.
 * @p name_width widens the first column for long benchmark names.
 */
void print_improvement_table(const SuiteResult &result,
                             int name_width = 10);

// ---- JSON serialization ----------------------------------------------

Json to_json(const ScenarioConfig &config);
Json to_json(const ScenarioResult &result);

/// Inverse of to_json(const ScenarioResult&); used by tooling and the
/// round-trip tests.
ScenarioResult scenario_result_from_json(const Json &json);

}  // namespace ptm::sim
