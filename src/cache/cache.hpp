/**
 * @file
 * Tag-only set-associative cache model.
 *
 * The simulator only needs hit/miss behaviour and eviction order, never
 * line contents. The tag store is a single contiguous slab laid out
 * set-major: each set's tags are immediately followed by its replacement
 * state (a row of u8 LRU recency ranks, or tree-PLRU direction bits), so
 * one lookup touches one short run of host cache lines — index
 * arithmetic only, no per-set objects, no side arrays, no pointers to
 * chase.
 *
 * Tags are stored as 32 bits: a tag
 * is line >> log2(sets) and modeled physical memory is bounded far
 * below the 2^(38+log2 sets) bytes a 32-bit tag can name (a panic
 * guards the bound), so narrowing is exact — and it both halves the
 * bytes a scan touches (an 8-way set's tags are 32 contiguous bytes)
 * and gives the scan a native single-instruction SIMD compare on
 * baseline x86-64. Tag scans go through the SIMD probes of
 * common/simd.hpp (SSE2/NEON with a scalar fallback selected at
 * compile time); outcomes are identical to the scalar loop by the
 * probe contract. Replacement is dispatched with a single branch on
 * ReplacementKind instead of a virtual call (virtual per-set policies
 * live on only as the tests' reference model). Write-allocate, no dirty
 * tracking (latency is symmetric for the metrics the paper reports).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/access.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/stat_registry.hpp"

namespace ptm::cache {

/// Supported replacement policies.
enum class ReplacementKind : std::uint8_t {
    Lru,      ///< true least-recently-used
    TreePlru, ///< tree pseudo-LRU (as in most real L1s)
    Random,   ///< uniform random victim
};

std::string replacement_kind_name(ReplacementKind kind);

/// Static shape of one cache level.
struct CacheGeometry {
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    unsigned ways = 8;
    ReplacementKind replacement = ReplacementKind::Lru;

    std::uint64_t num_sets() const
    {
        return size_bytes / (static_cast<std::uint64_t>(ways) *
                             kCacheLineSize);
    }
};

/// Hit/miss counters, broken down by access kind.
struct CacheStats {
    Counter hits[kAccessKindCount];
    Counter misses[kAccessKindCount];

    std::uint64_t
    total_hits() const
    {
        std::uint64_t n = 0;
        for (const auto &c : hits)
            n += c.value();
        return n;
    }

    std::uint64_t
    total_misses() const
    {
        std::uint64_t n = 0;
        for (const auto &c : misses)
            n += c.value();
        return n;
    }
};

/**
 * One cache level. Lines are identified by line number (physical address
 * >> 6); set index is the low bits of the line number.
 */
class Cache {
  public:
    /// Tag stored in empty ways. Unreachable by real lines: tag_of()
    /// panics on any line whose tag would not fit below it, and every
    /// simulated physical space is orders of magnitude under that bound
    /// (2^38 bytes even for a single-set cache).
    static constexpr std::uint32_t kInvalidTag = ~0U;
    /// Most ways an LRU set may have: its ranks must fit in a u8.
    static constexpr unsigned kMaxLruWays = 256;

    /// @param rng required only for random replacement; may be null.
    Cache(const CacheGeometry &geometry, Rng *rng = nullptr);

    /**
     * Look up @p line; on a miss the line is installed (evicting the
     * policy's victim).
     * @return true on hit.
     */
    bool
    access(std::uint64_t line, AccessKind kind)
    {
        // Same-line repeat: the previous access left this line resident
        // and MRU (hit or install), and nothing was installed or
        // invalidated since — a guaranteed hit whose recency touch would
        // be an order-preserving no-op (it is already the newest entry
        // of its set). Sequential workloads revisit a line for ~8
        // consecutive ops, so this skips most tag-scan work.
        if (line == memo_line_) {
            stats_.hits[static_cast<unsigned>(kind)].inc();
            return true;
        }
        const std::uint64_t set = line & (num_sets_ - 1);
        const std::uint32_t tag = tag_of(line);
        // Empty ways hold kInvalidTag, so the tag compare alone decides:
        // no separate valid-bit load on the hot scan.
        const unsigned w = simd::find_u32(set_tags(set), ways_, tag);
        if (w < ways_) {
            touch(set, w);
            stats_.hits[static_cast<unsigned>(kind)].inc();
            memo_line_ = line;
            return true;
        }
        stats_.misses[static_cast<unsigned>(kind)].inc();
        install(set, tag);
        // The install leaves the line resident and MRU, so a repeat
        // access may take the memo path (and correctly report a hit).
        memo_line_ = line;
        return false;
    }

    /// Look up without installing or updating recency (test/metric hook).
    bool probe(std::uint64_t line) const;

    /// Install @p line without counting it as an access (fill from below).
    void fill(std::uint64_t line);

    /// Drop a line if present (models invalidation).
    void invalidate(std::uint64_t line);

    /// Drop everything.
    void flush();

    const CacheGeometry &geometry() const { return geometry_; }
    const CacheStats &stats() const { return stats_; }
    void reset_stats() { stats_ = CacheStats{}; }

    /// Register per-kind hit/miss counters under
    /// "<prefix>.hits.<kind>" / "<prefix>.misses.<kind>".
    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix,
                        obs::ResetScope scope = obs::ResetScope::Lifetime);

    /// Number of valid lines currently resident (metric/test hook).
    std::uint64_t resident_lines() const;

  private:
    /// Start of the set's slab run (u64 words).
    std::uint64_t *set_base(std::uint64_t set)
    {
        return &slab_[static_cast<std::size_t>(set) * set_stride_];
    }
    const std::uint64_t *set_base(std::uint64_t set) const
    {
        return &slab_[static_cast<std::size_t>(set) * set_stride_];
    }
    /// The set's ways_ 32-bit tags, packed at the head of its run
    /// (tag_words_ u64 words viewed as u32 lanes).
    std::uint32_t *set_tags(std::uint64_t set)
    {
        return reinterpret_cast<std::uint32_t *>(set_base(set));
    }
    const std::uint32_t *set_tags(std::uint64_t set) const
    {
        return reinterpret_cast<const std::uint32_t *>(set_base(set));
    }
    /// Replacement state of @p set (rank row or PLRU bits), right after
    /// its tags.
    std::uint64_t *set_repl(std::uint64_t set)
    {
        return set_base(set) + tag_words_;
    }

    /// Narrow a line's tag to the stored 32 bits, guarding exactness.
    std::uint32_t tag_of(std::uint64_t line) const
    {
        const std::uint64_t tag = line >> set_shift_;
        if (tag >= kInvalidTag)
            ptm_panic("%s: line %llu overflows the 32-bit tag store",
                      geometry_.name.c_str(),
                      static_cast<unsigned long long>(line));
        return static_cast<std::uint32_t>(tag);
    }
    /// The set's LRU rank row: one u8 per way (0 = MRU, ways-1 = LRU,
    /// always a permutation), padded to whole 16-byte vectors so the
    /// SIMD helpers never take their scalar tail. Pad lanes are scratch:
    /// they follow every real way, so a first-match scan never picks one.
    std::uint8_t *set_ranks(std::uint64_t set)
    {
        return reinterpret_cast<std::uint8_t *>(set_repl(set));
    }

    /// Set every way of every set to kInvalidTag and clear replacement
    /// state (construction / flush).
    void reset_tags();

    /// Record a use of @p way — single branch on the replacement kind.
    void
    touch(std::uint64_t set, unsigned way)
    {
        switch (geometry_.replacement) {
          case ReplacementKind::Lru: {
            // Move-to-front: every way more recent than `way` ages by
            // one.
            std::uint8_t *ranks = set_ranks(set);
            simd::age_below_u8(ranks, rank_lanes_, ranks[way]);
            ranks[way] = 0;
            return;
          }
          case ReplacementKind::TreePlru: {
            // Walk from root to the leaf for `way`, pointing each node
            // away from the path taken (nodes 1..leaves-1 used).
            std::uint64_t *bits = set_repl(set);
            unsigned node = 1;
            unsigned span = plru_leaves_;
            while (span > 1) {
                span >>= 1;
                bool right = way >= span;
                bits[node] = right ? 0 : 1;
                node = node * 2 + (right ? 1 : 0);
                if (right)
                    way -= span;
            }
            return;
          }
          case ReplacementKind::Random:
            return;
        }
    }

    /// Pick the way to evict from a full set.
    unsigned
    victim(std::uint64_t set)
    {
        switch (geometry_.replacement) {
          case ReplacementKind::Lru:
            // True LRU: the rank-(ways-1) way. victim() only runs on a
            // full set, whose every way was touched since the last
            // reset, so rank order is exactly use order (no ties).
            return simd::find_u8(set_ranks(set), rank_lanes_,
                                 static_cast<std::uint8_t>(ways_ - 1));
          case ReplacementKind::TreePlru: {
            // Follow the pointers; clamp to a valid way for
            // non-power-of-two configurations.
            const std::uint64_t *bits = set_repl(set);
            unsigned node = 1;
            unsigned way = 0;
            unsigned span = plru_leaves_;
            while (span > 1) {
                span >>= 1;
                bool right = bits[node] != 0;
                node = node * 2 + (right ? 1 : 0);
                if (right)
                    way += span;
            }
            return way >= ways_ ? ways_ - 1 : way;
          }
          case ReplacementKind::Random:
            return static_cast<unsigned>(rng_->below(ways_));
        }
        ptm_panic("unreachable replacement kind");
    }

    void
    install(std::uint64_t set, std::uint32_t tag)
    {
        // Prefer the first empty way; otherwise evict the policy's
        // victim.
        unsigned w = simd::find_u32(set_tags(set), ways_, kInvalidTag);
        if (w == ways_)
            w = victim(set);
        set_tags(set)[w] = tag;
        touch(set, w);
    }

    CacheGeometry geometry_;
    std::uint64_t num_sets_;
    unsigned set_shift_;
    unsigned ways_;
    /// u64 words holding the set's ways_ packed u32 tags: ceil(ways/2).
    unsigned tag_words_;
    /// u64 words of replacement state per set: rank_lanes_ / 8 (LRU),
    /// plru_leaves_ (tree bits), or 0 (random).
    unsigned repl_words_;
    unsigned set_stride_;  ///< tag_words_ + repl_words_
    unsigned plru_leaves_ = 0;  ///< ways rounded up to a power of two
    unsigned rank_lanes_ = 0;   ///< LRU rank row bytes: ceil(ways/16)*16
    Rng *rng_;
    std::vector<std::uint64_t> slab_;
    /// Line of the most recent access (resident and MRU by construction);
    /// ~0 when no such guarantee holds. Cleared by fill/invalidate/flush
    /// because they can change residency behind the memo's back.
    std::uint64_t memo_line_ = ~0ULL;
    CacheStats stats_;
};

}  // namespace ptm::cache
