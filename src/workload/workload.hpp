/**
 * @file
 * Workload abstraction: a deterministic generator of memory operations
 * driving one simulated process.
 *
 * Real benchmark binaries are replaced by synthetic generators that
 * reproduce the three properties the paper's effect depends on: footprint
 * (TLB pressure), spatial locality of the access stream, and the
 * page-fault arrival pattern (allocation behaviour). See DESIGN.md §1.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ptm::workload {

/// One memory operation against the owning process's address space.
struct MemOp {
    Addr gva = 0;
    bool write = false;
};

/**
 * Services a workload may request from the simulated guest kernel.
 * Implemented by the sim layer; calls are attributed to the workload's
 * process.
 */
class WorkloadContext {
  public:
    virtual ~WorkloadContext() = default;

    /// Eagerly allocate a virtual region (guest mmap()).
    virtual Addr mmap(Addr bytes) = 0;
    /// Release a whole region previously obtained from mmap().
    virtual void munmap(Addr base) = 0;
    /// Free one page's physical backing (models free() returning memory).
    virtual void free_page(Addr gva) = 0;
};

/**
 * A workload drives one process. Lifecycle:
 *  1. setup(ctx) — allocate regions;
 *  2. repeated next(ctx) — one MemOp per call; the *init phase* (touching
 *     allocated memory for the first time, when page faults and thus
 *     allocation-order decisions happen) is flagged via in_init_phase();
 *  3. next() returns nullopt when a finite workload completes; co-runners
 *     run forever.
 *
 * Implementations must be deterministic given their seed.
 */
class Workload {
  public:
    virtual ~Workload() = default;

    virtual void setup(WorkloadContext &ctx) = 0;
    virtual std::optional<MemOp> next(WorkloadContext &ctx) = 0;

    /**
     * Batched generation for the dispatcher (System::step_batch): fill
     * @p out with up to @p max ops and return the number produced; 0
     * means the workload completed (exactly when next() would return
     * nullopt).
     *
     * Batch-transparency contract: the concatenation of ops and context
     * interactions across repeated next_batch() calls must equal the
     * serial next() sequence, and context interactions may only happen
     * while generating the FIRST op of a batch — the caller executes the
     * whole batch after the fill, so an interaction generated mid-batch
     * would be reordered before ops that serially precede it.
     * Implementations therefore stop early (return k < max) when the
     * next op would need the context.
     *
     * The default is the conservative one-op batch, correct for any
     * generator; workloads opt into real batching by overriding.
     */
    virtual unsigned
    next_batch(WorkloadContext &ctx, MemOp *out, unsigned max)
    {
        if (max == 0)
            return 0;
        std::optional<MemOp> op = next(ctx);
        if (!op)
            return 0;
        out[0] = *op;
        return 1;
    }

    /// True while the workload is still faulting in its data structures
    /// (the paper's "allocation of physical memory" phase, §3.3).
    virtual bool in_init_phase() const = 0;

    virtual std::string name() const = 0;

    /// Total bytes of statically declared regions (footprint knob
    /// introspection); 0 for generators whose footprint is dynamic.
    virtual Addr static_footprint() const { return 0; }
};

}  // namespace ptm::workload
