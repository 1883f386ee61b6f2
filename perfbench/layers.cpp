/**
 * @file
 * Per-layer host timing on a finished leg.
 *
 * Each layer is timed by calling its public functions directly, in
 * batches of kBatch calls with two clock reads per batch, so the clock
 * stays a small share of every batch; one span encloses each layer's
 * batches (and the untimed set-up between them). The inputs are the
 * victim's own measured-window op stream: its guest virtual addresses,
 * resolved gva -> gfn -> hfn through the guest and host tables' public
 * lookup. Everything here runs after the leg's final stat snapshot, so
 * the state it disturbs (TLBs, caches, the guest buddy) is never
 * measured again.
 */
#include <algorithm>
#include <memory>
#include <unordered_set>

#include "bench.hpp"
#include "cache/hierarchy.hpp"
#include "common/error.hpp"
#include "core/part.hpp"
#include "mem/buddy_allocator.hpp"
#include "mmu/nested_walker.hpp"
#include "pt/page_table.hpp"
#include "pt/table_factory.hpp"
#include "tlb/tlb.hpp"
#include "vm/guest_kernel.hpp"
#include "workload/workload_factory.hpp"

namespace perfbench {

namespace {

using ptm::Addr;

/// Calls per clock-read pair. One steady_clock read costs tens of ns;
/// the cheapest layer call is a few ns, so a batch of 4096 keeps the
/// clock under 1%.
constexpr std::size_t kBatch = 4096;
/// Calls timed per layer (at least; whole batches).
constexpr std::size_t kMinCalls = 1u << 18;

/// One victim op, resolved through the tables.
struct Resolved {
    Addr gva = 0;
    std::uint64_t gvpn = 0;
    std::uint64_t gfn = 0;
    std::uint64_t hfn = 0;
};

/// Bump-pointer context for driving a fresh generator outside a System.
class BumpContext final : public ptm::workload::WorkloadContext {
  public:
    Addr
    mmap(Addr bytes) override
    {
        Addr base = next_;
        next_ += (bytes + ptm::kPageSize - 1) & ~(ptm::kPageSize - 1);
        next_ += ptm::kPageSize;  // guard page, as distinct VMAs have
        return base;
    }
    void munmap(Addr) override {}
    void free_page(Addr) override {}

  private:
    Addr next_ = Addr{1} << 32;
};

/**
 * Time @p call over inputs 0..n-1, cycling, in batches of kBatch calls
 * until at least @p min_calls were made; @p between runs untimed after
 * each full pass over the inputs. One span @p name encloses it all.
 * Returns host ns per call.
 */
template <typename Call, typename Between>
double
time_cycled(Spans &spans, const char *name, std::size_t n,
            std::size_t min_calls, Call &&call, Between &&between)
{
    if (n == 0)
        ptm_throw("perfbench: no inputs to time %s", name);
    ScopedSpan span(&spans, name);
    double seconds = 0.0;
    std::size_t calls = 0;
    std::size_t i = 0;
    while (calls < min_calls) {
        const std::size_t batch = std::min(kBatch, n - i);
        const Clock::time_point start = Clock::now();
        for (std::size_t k = 0; k < batch; ++k)
            call(i + k);
        seconds += seconds_since(start);
        calls += batch;
        i += batch;
        if (i == n) {
            i = 0;
            between();
        }
    }
    return seconds * 1e9 / static_cast<double>(calls);
}

template <typename Call>
double
time_cycled(Spans &spans, const char *name, std::size_t n,
            std::size_t min_calls, Call &&call)
{
    return time_cycled(spans, name, n, min_calls,
                       std::forward<Call>(call), []() {});
}

/// Fault hook of the layer walker: only resolved pages are translated,
/// so any fault means the tables changed under the benchmark.
ptm::mmu::FaultOutcome
unexpected_fault(void *, std::uint64_t id)
{
    ptm_throw("perfbench: unexpected fault on frame/page 0x%llx while "
              "timing translations",
              static_cast<unsigned long long>(id));
}

/// Defeats dead-code elimination of timed calls' results.
volatile std::uint64_t g_sink = 0;

double
time_next_batch(const ptm::sim::ScenarioConfig &config, Spans &spans)
{
    ptm::workload::WorkloadOptions options;
    options.scale = config.scale;
    options.seed = config.seed;
    options.params = config.workload_params;
    std::unique_ptr<ptm::workload::Workload> generator =
        ptm::workload::make_workload(config.victim, options);
    BumpContext ctx;
    generator->setup(ctx);

    // The dispatcher asks for min(walk_batch, slice_ops) ops per batch.
    const unsigned want = std::max(
        1u, std::min(config.platform.walk_batch, config.platform.slice_ops));
    std::vector<ptm::workload::MemOp> buffer(want);
    ScopedSpan span(&spans, "layer.workload.next_batch");
    double seconds = 0.0;
    std::uint64_t ops = 0;
    bool finished = false;
    while (ops < kMinCalls && !finished) {
        const Clock::time_point start = Clock::now();
        std::uint64_t batch_ops = 0;
        for (std::size_t k = 0; k < kBatch; ++k) {
            unsigned n = generator->next_batch(ctx, buffer.data(), want);
            if (n == 0) {
                finished = true;
                break;
            }
            batch_ops += n;
            g_sink = g_sink + buffer[0].gva;
        }
        seconds += seconds_since(start);
        ops += batch_ops;
    }
    if (ops == 0)
        ptm_throw("perfbench: fresh %s generator produced no ops",
                  config.victim.c_str());
    return seconds * 1e9 / static_cast<double>(ops);
}

/// The other translation-table kind, filled with the victim's mappings.
std::unique_ptr<ptm::pt::TranslationTable>
table_like(const std::string &name, const std::vector<Resolved> &pages)
{
    std::uint64_t next_frame = std::uint64_t{1} << 36;
    ptm::pt::FrameSource frames;
    frames.allocate = [&next_frame]() -> std::optional<std::uint64_t> {
        return next_frame++;
    };
    frames.release = [](std::uint64_t) {};
    std::unique_ptr<ptm::pt::TranslationTable> table =
        ptm::pt::make_table(name, frames, {});
    for (const Resolved &r : pages) {
        ptm::pt::PteFields fields;
        fields.present = true;
        fields.frame = r.gfn;
        if (!table->map(r.gvpn, fields))
            ptm_throw("perfbench: cannot build a %s table", name.c_str());
    }
    return table;
}

}  // namespace

LayerTimes
time_layers(ptm::sim::System &system, ptm::sim::Job &victim,
            const ptm::sim::ScenarioConfig &config, const OpSink &ops,
            Spans &spans)
{
    ScopedSpan all(&spans, "layers");
    LayerTimes times;
    times.next_batch_ns_per_op = time_next_batch(config, spans);

    // Resolve the op stream; ops whose page is gone by the end of the
    // run (freed, or never host-backed) are dropped.
    ptm::pt::TranslationTable &guest_pt = victim.process().page_table();
    ptm::pt::TranslationTable &host_pt = system.vm().page_table();
    std::vector<Resolved> stream;  // every op, in program order
    std::vector<Resolved> pages;   // distinct pages, first-touch order
    std::unordered_set<std::uint64_t> seen;
    stream.reserve(ops.size());
    for (Addr gva : ops) {
        Resolved r;
        r.gva = gva;
        r.gvpn = gva >> ptm::kPageShift;
        std::optional<ptm::pt::Pte> gpte = guest_pt.lookup(r.gvpn);
        if (!gpte || !gpte->present())
            continue;
        r.gfn = gpte->frame();
        std::optional<ptm::pt::Pte> hpte = host_pt.lookup(r.gfn);
        if (!hpte || !hpte->present())
            continue;
        r.hfn = hpte->frame();
        stream.push_back(r);
        if (seen.insert(r.gvpn).second)
            pages.push_back(r);
    }
    if (stream.empty())
        ptm_throw("perfbench: no victim op resolved to a host frame");

    // tlb: the TLB hierarchy replaying the stream (fill on miss).
    {
        ptm::tlb::TlbHierarchy tlb(config.platform.tlb);
        for (const Resolved &r : stream) {
            if (tlb.lookup(r.gvpn).level == ptm::tlb::TlbLevel::Miss)
                tlb.insert(r.gvpn, r.hfn);
        }
        times.tlb_lookup_ns = time_cycled(
            spans, "layer.tlb.lookup", stream.size(), kMinCalls,
            [&](std::size_t i) {
                const Resolved &r = stream[i];
                ptm::tlb::TlbHierarchy::Result hit = tlb.lookup(r.gvpn);
                if (hit.level == ptm::tlb::TlbLevel::Miss)
                    tlb.insert(r.gvpn, r.hfn);
                g_sink = g_sink + hit.hfn;
            });
    }

    // pt: walk() on the run's guest table and on a table of the other
    // kind holding the same mappings.
    {
        const std::string own = guest_pt.name();
        const std::string other = own == "hashed" ? "radix" : "hashed";
        std::unique_ptr<ptm::pt::TranslationTable> twin =
            table_like(other, pages);
        ptm::pt::WalkSteps steps;
        auto time_walks = [&](const ptm::pt::TranslationTable &table,
                              const char *name) {
            return time_cycled(spans, name, stream.size(), kMinCalls,
                               [&](std::size_t i) {
                                   ptm::pt::WalkResult w =
                                       table.walk(stream[i].gvpn, steps);
                                   g_sink = g_sink + w.steps;
                               });
        };
        double own_ns = time_walks(guest_pt, "layer.pt.walk");
        double other_ns = time_walks(*twin, "layer.pt.walk");
        times.pt_walk_ns_radix = own == "radix" ? own_ns : other_ns;
        times.pt_walk_ns_hashed = own == "hashed" ? own_ns : other_ns;
    }

    // mmu: a fresh walker of the victim's core over the post-run tables
    // and shared cache hierarchy; only resolved pages are translated.
    {
        ptm::mmu::HostContext host{
            .page_table = &host_pt,
            .fault_handler = {unexpected_fault, nullptr},
            .radix = dynamic_cast<const ptm::pt::PageTable *>(&host_pt)};
        ptm::mmu::GuestContext guest{
            .page_table = &guest_pt,
            .fault_handler = {unexpected_fault, nullptr},
            .use_pwc = guest_pt.radix_levels(),
            .radix = dynamic_cast<const ptm::pt::PageTable *>(&guest_pt)};
        ptm::mmu::NestedWalker walker(victim.core(), config.platform.tlb,
                                      &system.hierarchy(), host);
        const std::size_t hot = std::min<std::size_t>(pages.size(), 32);
        for (std::size_t i = 0; i < hot; ++i)
            walker.translate(guest, pages[i].gva);
        times.translate_ns_tlb_hit = time_cycled(
            spans, "layer.mmu.translate_hit", hot, kMinCalls,
            [&](std::size_t i) {
                g_sink = g_sink + walker.translate(guest, pages[i].gva).hfn;
            });
        // Invalidating the page first forces a full 2D walk; the page
        // walk caches and nested TLB stay warm, as in the run.
        times.translate_ns_walk = time_cycled(
            spans, "layer.mmu.translate_walk", stream.size(), kMinCalls / 4,
            [&](std::size_t i) {
                walker.tlb().invalidate(stream[i].gvpn);
                g_sink =
                    g_sink + walker.translate(guest, stream[i].gva).hfn;
            });
    }

    // cache: the stream's data accesses on the shared hierarchy.
    {
        ptm::cache::MemoryHierarchy &hierarchy = system.hierarchy();
        const unsigned core = victim.core();
        times.cache_access_ns = time_cycled(
            spans, "layer.cache.access", stream.size(), kMinCalls,
            [&](std::size_t i) {
                const Resolved &r = stream[i];
                Addr hpa = (r.hfn << ptm::kPageShift) |
                           (r.gva & (ptm::kPageSize - 1));
                g_sink = g_sink + static_cast<std::uint64_t>(
                                      hierarchy
                                          .access(core, hpa,
                                                  ptm::cache::AccessKind::Data)
                                          .latency);
            });
    }

    // mem: order-0 alloc/free batches on the post-run guest buddy.
    {
        ptm::mem::BuddyAllocator &buddy = system.guest(0).buddy();
        const std::size_t batch = std::min<std::uint64_t>(
            kBatch, buddy.free_frames_count() / 2);
        if (batch == 0)
            ptm_throw("perfbench: guest buddy has no free frames left");
        std::vector<std::uint64_t> frames(batch);
        ScopedSpan span(&spans, "layer.mem.buddy");
        double alloc_s = 0.0;
        double free_s = 0.0;
        std::size_t calls = 0;
        while (calls < kMinCalls / 4) {
            Clock::time_point start = Clock::now();
            for (std::size_t k = 0; k < batch; ++k) {
                std::optional<std::uint64_t> f = buddy.allocate_frame();
                frames[k] = f.value_or(~std::uint64_t{0});
            }
            alloc_s += seconds_since(start);
            for (std::uint64_t f : frames) {
                if (f == ~std::uint64_t{0})
                    ptm_throw("perfbench: guest buddy ran out of frames");
            }
            start = Clock::now();
            for (std::uint64_t f : frames)
                buddy.free(f);
            free_s += seconds_since(start);
            calls += batch;
        }
        times.buddy_alloc_ns = alloc_s * 1e9 / static_cast<double>(calls);
        times.buddy_free_ns = free_s * 1e9 / static_cast<double>(calls);
    }

    // core: PaRT fault path (claim, create on a miss) over the victim's
    // pages in first-touch order; a fresh table per pass.
    {
        const unsigned group = ptm::kPagesPerReservation;
        auto part = std::make_unique<ptm::core::Part>(group);
        times.part_claim_ns = time_cycled(
            spans, "layer.core.part_claim", pages.size(), kMinCalls,
            [&](std::size_t i) {
                const std::uint64_t g = pages[i].gvpn / group;
                const unsigned offset =
                    static_cast<unsigned>(pages[i].gvpn % group);
                ptm::core::ClaimResult r = part->claim(g, offset);
                if (!r.found)
                    part->create(g, g * group, offset);
                g_sink = g_sink + r.gfn;
            },
            [&]() { part = std::make_unique<ptm::core::Part>(group); });
    }

    // vm: guest page faults of a fresh process in VM 0 under the leg's
    // policy, touching a fresh region in the victim's first-touch order
    // (page offsets folded into the region). The process exits between
    // passes, returning its frames.
    {
        ptm::vm::GuestKernel &guest = system.guest(0);
        const std::uint64_t region = std::min<std::uint64_t>(
            kBatch, guest.buddy().free_frames_count() / 4);
        if (region < ptm::kPagesPerReservation)
            ptm_throw("perfbench: guest too full to time faults");
        std::vector<std::uint64_t> order;
        std::vector<bool> used(region, false);
        for (const Resolved &r : pages) {
            std::uint64_t off = r.gvpn % region;
            if (!used[off]) {
                used[off] = true;
                order.push_back(off);
            }
        }
        for (std::uint64_t off = 0; off < region; ++off) {
            if (!used[off])
                order.push_back(off);
        }
        ptm::vm::Process *proc = nullptr;
        std::uint64_t base_vpn = 0;
        auto fresh = [&]() {
            if (proc != nullptr)
                guest.exit_process(*proc);
            proc = &guest.create_process("perfbench-fault");
            base_vpn = proc->vas().mmap(region * ptm::kPageSize) >>
                       ptm::kPageShift;
        };
        fresh();
        times.fault_ns = time_cycled(
            spans, "layer.vm.fault", order.size(), kMinCalls / 16,
            [&](std::size_t i) {
                ptm::mmu::FaultOutcome out =
                    guest.handle_fault(*proc, base_vpn + order[i]);
                if (!out.ok)
                    ptm_throw("perfbench: guest fault failed (OOM)");
            },
            fresh);
        guest.exit_process(*proc);
    }
    return times;
}

}  // namespace perfbench
