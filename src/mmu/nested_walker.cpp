#include "mmu/nested_walker.hpp"

#include <type_traits>
#include <typeinfo>

#include "common/error.hpp"
#include "common/log.hpp"
#include "pt/hashed_page_table.hpp"
#include "pt/page_table.hpp"

namespace ptm::mmu {

namespace {
/// Retries bound: a translation can fault at most once per guest level
/// plus once per host walk; anything beyond signals a broken kernel model.
constexpr unsigned kMaxAttempts = 16;

/**
 * Call @p walk with the concrete table behind @p table, so each walk
 * loop is compiled per table type and descends with that table's inline
 * Cursor. @p radix is used when bound; otherwise one downcast per table
 * type picks it. Runs once per walk, never once per step.
 */
template <class Walk>
decltype(auto)
with_concrete_table(const pt::TranslationTable &table,
                    const pt::PageTable *radix, Walk &&walk)
{
    // Both tables are final, so an exact type match is the downcast: a
    // type_info compare, where dynamic_cast would search the hierarchy.
    static_assert(std::is_final_v<pt::PageTable> &&
                  std::is_final_v<pt::HashedPageTable>);
    if (radix == nullptr && typeid(table) == typeid(pt::PageTable))
        radix = static_cast<const pt::PageTable *>(&table);
    if (radix != nullptr)
        return walk(*radix);
    if (typeid(table) == typeid(pt::HashedPageTable))
        return walk(static_cast<const pt::HashedPageTable &>(table));
    ptm_panic("nested walker cannot walk a '%s' translation table",
              table.name().c_str());
}
}  // namespace

NestedWalker::NestedWalker(unsigned core, const tlb::TlbConfig &config,
                           cache::MemoryHierarchy *hierarchy,
                           HostContext host)
    : core_(core), hierarchy_(hierarchy), host_(std::move(host)),
      tlb_(config), pwc_(config), nested_tlb_(config)
{
    if (hierarchy_ == nullptr)
        ptm_fatal("walker needs a cache hierarchy");
    if (host_.page_table == nullptr || !host_.fault_handler)
        ptm_fatal("walker needs a complete host context");
}

std::uint64_t
NestedWalker::host_translate(std::uint64_t gfn, TranslationResult &result)
{
    if (std::optional<std::uint64_t> hfn = nested_tlb_.lookup(gfn)) {
        stats_.nested_tlb_hits.inc();
        return *hfn;
    }
    stats_.host_walks.inc();
    return with_concrete_table(
        *host_.page_table, host_.radix,
        [&](const auto &table) { return host_walk(table, gfn, result); });
}

template <class Table>
std::uint64_t
NestedWalker::host_walk(const Table &table, std::uint64_t gfn,
                        TranslationResult &result)
{
    // 1D walk of the host page table. Every node access goes through the
    // cache hierarchy tagged HostPt, accounted as the descent reaches it;
    // a non-present entry anywhere means the host has not yet backed
    // this guest frame and takes a host fault (lazy allocation, §3.1),
    // after which the walk restarts.
    for (unsigned attempt = 0; attempt < kMaxAttempts; ++attempt) {
        typename Table::Cursor cur(table, gfn);
        for (;;) {
            cache::AccessResult access = hierarchy_->access(
                core_, cur.entry_paddr(), cache::AccessKind::HostPt);
            result.walk_cycles += access.latency;
            result.cycles += access.latency;
            stats_.walk_cycles.inc(access.latency);
            stats_.host_pt_cycles.inc(access.latency);
            stats_.host_pt_accesses.inc();
            if (access.served_by == cache::ServedBy::Memory) {
                stats_.host_pt_mem_accesses.inc();
                stats_.host_pt_level_mem.record(cur.level());
            }
            pt::Pte pte = cur.pte();
            if (!pte.present())
                break;
            if (cur.at_leaf()) {
                nested_tlb_.insert(gfn, pte.frame());
                return pte.frame();
            }
            cur.descend();
        }

        FaultOutcome fault = host_.fault_handler(gfn);
        stats_.host_faults.inc();
        if (!fault.ok)
            ptm_throw("host kernel cannot back guest frame %llu "
                      "(host OOM)", static_cast<unsigned long long>(gfn));
        stats_.fault_cycles.inc(fault.cycles);
        result.cycles += fault.cycles;
        result.faulted = true;
    }
    ptm_panic("host walk did not converge");
}

template <class Table>
std::optional<std::uint64_t>
NestedWalker::walk_guest_once(const Table &table, GuestContext &guest,
                              std::uint64_t gvpn, TranslationResult &result)
{
    // Only radix levels keep the PWC's contract: level i of every walk
    // touches the same node for a shared vpn prefix.
    constexpr bool kUsePwc = std::is_same_v<Table, pt::PageTable>;
    typename Table::Cursor cur(table, gvpn);

    // PWC resume: the PWC caches node frames, so a hit is valid iff a
    // silent descent reaches the cached level and finds the cached node
    // there (a stale hit after unmap simply misses).
    if constexpr (kUsePwc) {
        if (std::optional<tlb::PageWalkCache::Hit> hit =
                pwc_.lookup(gvpn)) {
            typename Table::Cursor probe = cur;
            bool reachable = true;
            while (probe.level() < hit->resume_level) {
                if (!probe.pte().present() || probe.at_leaf()) {
                    reachable = false;
                    break;
                }
                probe.descend();
            }
            if (reachable && probe.node_frame() == hit->node_frame)
                cur = probe;
        }
    }

    for (;;) {
        // The guest-PT node lives at a guest-physical frame; the walker
        // needs its host-physical address first (the "2D" part).
        std::uint64_t node_hfn = host_translate(cur.node_frame(), result);
        Addr entry_hpa = node_hfn * kPageSize + cur.index() * kPteSize;

        cache::AccessResult access = hierarchy_->access(
            core_, entry_hpa, cache::AccessKind::GuestPt);
        result.walk_cycles += access.latency;
        result.cycles += access.latency;
        stats_.walk_cycles.inc(access.latency);
        stats_.guest_pt_cycles.inc(access.latency);
        stats_.guest_pt_accesses.inc();
        if (access.served_by == cache::ServedBy::Memory) {
            stats_.guest_pt_mem_accesses.inc();
            stats_.guest_pt_level_mem.record(cur.level());
        }

        pt::Pte pte = cur.pte();
        if (!pte.present()) {
            // Guest page fault: the guest kernel allocates and maps.
            FaultOutcome fault = guest.fault_handler(gvpn);
            stats_.guest_faults.inc();
            if (!fault.ok)
                ptm_throw("guest kernel cannot satisfy page fault on "
                          "gvpn %llu (guest OOM)",
                          static_cast<unsigned long long>(gvpn));
            stats_.fault_cycles.inc(fault.cycles);
            result.cycles += fault.cycles;
            result.faulted = true;
            return std::nullopt;  // retry the walk against the new PT state
        }

        if (cur.at_leaf())
            return pte.frame();
        if constexpr (kUsePwc)
            pwc_.insert(gvpn, cur.level(), pte.frame());
        cur.descend();
    }
}

template <class Table>
void
NestedWalker::walk_to_completion(const Table &table, GuestContext &guest,
                                 std::uint64_t gvpn,
                                 TranslationResult &result)
{
    for (unsigned attempt = 0; attempt < kMaxAttempts; ++attempt) {
        std::optional<std::uint64_t> data_gfn =
            walk_guest_once(table, guest, gvpn, result);
        if (!data_gfn)
            continue;  // faulted; PT changed; retry

        // Final host walk: translate the data page itself.
        result.gfn = *data_gfn;
        result.hfn = host_translate(*data_gfn, result);
        tlb_.insert(gvpn, result.hfn);
        return;
    }
    ptm_panic("guest translation did not converge");
}

TranslationResult
NestedWalker::translate(GuestContext &guest, Addr gva)
{
    if (guest.page_table == nullptr || !guest.fault_handler)
        ptm_fatal("translate() needs a complete guest context");

    stats_.translations.inc();
    if (std::optional<std::uint64_t> hfn = tlb_.lookup_l1(page_number(gva))) {
        stats_.tlb_l1_hits.inc();
        TranslationResult result;
        result.hfn = *hfn;
        result.tlb_hit = true;
        return result;
    }
    return translate_l1_missed(guest, gva);
}

TranslationResult
NestedWalker::translate_l1_missed(GuestContext &guest, Addr gva)
{
    TranslationResult result;
    std::uint64_t gvpn = page_number(gva);
    if (std::optional<std::uint64_t> hfn = tlb_.lookup_l2_fill_l1(gvpn)) {
        stats_.tlb_l2_hits.inc();
        result.hfn = *hfn;
        result.tlb_hit = true;
        result.cycles = kStlbHitPenalty;
        return result;
    }

    stats_.tlb_misses.inc();
    with_concrete_table(*guest.page_table, guest.radix,
                        [&](const auto &table) {
                            walk_to_completion(table, guest, gvpn, result);
                        });
    stats_.walk_cycles_hist.record(result.walk_cycles);
    return result;
}

void
NestedWalker::register_stats(obs::StatRegistry &registry,
                             const std::string &prefix)
{
    const std::string w = prefix + ".walker";
    const obs::ResetScope scope = obs::ResetScope::Measurement;
    registry.counter(w + ".translations", &stats_.translations, scope);
    registry.counter(w + ".tlb_l1_hits", &stats_.tlb_l1_hits, scope);
    registry.counter(w + ".tlb_l2_hits", &stats_.tlb_l2_hits, scope);
    registry.counter(w + ".tlb_misses", &stats_.tlb_misses, scope);
    registry.counter(w + ".walk_cycles", &stats_.walk_cycles, scope);
    registry.counter(w + ".guest_pt_cycles", &stats_.guest_pt_cycles,
                     scope);
    registry.counter(w + ".host_pt_cycles", &stats_.host_pt_cycles, scope);
    registry.counter(w + ".host_walks", &stats_.host_walks, scope);
    registry.counter(w + ".nested_tlb_hits", &stats_.nested_tlb_hits,
                     scope);
    registry.counter(w + ".guest_pt_accesses", &stats_.guest_pt_accesses,
                     scope);
    registry.counter(w + ".host_pt_accesses", &stats_.host_pt_accesses,
                     scope);
    registry.counter(w + ".guest_pt_mem_accesses",
                     &stats_.guest_pt_mem_accesses, scope);
    registry.counter(w + ".host_pt_mem_accesses",
                     &stats_.host_pt_mem_accesses, scope);
    registry.counter(w + ".guest_faults", &stats_.guest_faults, scope);
    registry.counter(w + ".host_faults", &stats_.host_faults, scope);
    registry.counter(w + ".fault_cycles", &stats_.fault_cycles, scope);
    registry.histogram(w + ".walk_cycles_hist", &stats_.walk_cycles_hist,
                       scope);
    registry.histogram(w + ".guest_pt_level_mem",
                       &stats_.guest_pt_level_mem, scope);
    registry.histogram(w + ".host_pt_level_mem",
                       &stats_.host_pt_level_mem, scope);
    registry.counter(w + ".wrf.batches", &stats_.batches, scope);
    registry.counter(w + ".wrf.batched_ops", &stats_.batched_ops, scope);

    tlb_.register_stats(registry, prefix);
    pwc_.register_stats(registry, prefix);
    nested_tlb_.register_stats(registry, prefix);
}

void
NestedWalker::invalidate(std::uint64_t gvpn)
{
    tlb_.invalidate(gvpn);
}

void
NestedWalker::invalidate_nested(std::uint64_t gfn)
{
    nested_tlb_.invalidate(gfn);
}

void
NestedWalker::flush_all()
{
    tlb_.flush();
    pwc_.flush();
    nested_tlb_.flush();
}

}  // namespace ptm::mmu
