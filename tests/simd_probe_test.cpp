/**
 * @file
 * SIMD probe property tests: the vector scans of common/simd.hpp must be
 * decision-identical to the always-compiled scalar references on every
 * backend (SSE2/NEON and the PTM_NO_SIMD scalar build run the same
 * suite), and cache::Cache must make identical hit/victim decisions to a
 * reference model built from the scalar scans and the virtual
 * replacement policies — across associativities and policies.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"
#include "tlb/assoc_cache.hpp"
#include "reference_replacement.hpp"

namespace ptm {
namespace {

TEST(SimdProbe, FindU32MatchesScalarReference)
{
    Rng rng(0xF00D);
    for (unsigned trial = 0; trial < 2'000; ++trial) {
        const unsigned n = 1 + static_cast<unsigned>(rng.below(33));
        std::vector<std::uint32_t> keys(n);
        // Small alphabet: forces absent needles, present needles, and
        // repeated values (the multi-match sentinel case) alike.
        for (auto &k : keys)
            k = static_cast<std::uint32_t>(rng.below(8));
        const std::uint32_t needle =
            static_cast<std::uint32_t>(rng.below(10));
        EXPECT_EQ(simd::find_u32(keys.data(), n, needle),
                  simd::find_u32_scalar(keys.data(), n, needle))
            << "trial " << trial;
    }
    // The empty-way scan: many lanes hold the sentinel; first wins.
    std::uint32_t sent[8] = {7, ~0U, 3, ~0U, ~0U, 1, ~0U, ~0U};
    EXPECT_EQ(simd::find_u32(sent, 8, ~0U), 1u);
}

TEST(SimdProbe, FindU64MatchesScalarReference)
{
    Rng rng(0xBEEF);
    for (unsigned trial = 0; trial < 2'000; ++trial) {
        const unsigned n = 1 + static_cast<unsigned>(rng.below(17));
        std::vector<std::uint64_t> keys(n);
        for (auto &k : keys)
            k = rng.below(8);
        const std::uint64_t needle = rng.below(10);
        EXPECT_EQ(simd::find_u64(keys.data(), n, needle),
                  simd::find_u64_scalar(keys.data(), n, needle))
            << "trial " << trial;
    }
    std::uint64_t sent[5] = {~0ULL, 4, ~0ULL, 9, ~0ULL};
    EXPECT_EQ(simd::find_u64(sent, 5, ~0ULL), 0u);
}

TEST(SimdProbe, FindU8MatchesScalarReference)
{
    Rng rng(0xCAFE);
    for (unsigned trial = 0; trial < 2'000; ++trial) {
        // Up to three 16-lane blocks plus a tail, so both the vector
        // body and the scalar tail run.
        const unsigned n = 1 + static_cast<unsigned>(rng.below(50));
        std::vector<std::uint8_t> keys(n);
        for (auto &k : keys)
            k = static_cast<std::uint8_t>(rng.below(8));
        const std::uint8_t needle = static_cast<std::uint8_t>(rng.below(10));
        EXPECT_EQ(simd::find_u8(keys.data(), n, needle),
                  simd::find_u8_scalar(keys.data(), n, needle))
            << "trial " << trial;
    }
    // The first match wins across blocks; a match just past n is absent
    // (returns n). The needle is the top byte value.
    std::uint8_t row[32] = {};
    row[17] = 0xFF;
    row[30] = 0xFF;
    EXPECT_EQ(simd::find_u8(row, 32, 0xFF), 17u);
    EXPECT_EQ(simd::find_u8(row, 17, 0xFF), 17u);
}

TEST(SimdProbe, AgeBelowU8MatchesScalarReference)
{
    Rng rng(0xD00D);
    for (unsigned trial = 0; trial < 2'000; ++trial) {
        const unsigned n = 1 + static_cast<unsigned>(rng.below(50));
        std::vector<std::uint8_t> got(n);
        // Full byte range: the SSE2 path must compare unsigned, and
        // lanes at 0x80..0xFF are where a signed compare would differ.
        for (auto &v : got)
            v = static_cast<std::uint8_t>(rng.below(256));
        std::vector<std::uint8_t> want = got;
        const std::uint8_t rank = static_cast<std::uint8_t>(rng.below(256));
        simd::age_below_u8(got.data(), n, rank);
        simd::age_below_u8_scalar(want.data(), n, rank);
        EXPECT_EQ(got, want) << "trial " << trial;
    }
    // Move-to-front on a 16-lane rank row of 5 ways (pad lanes 0xFF
    // here): touching the rank-3 way ages ranks 0..2 and leaves the LRU
    // way and the pad lanes alone.
    std::uint8_t row[16];
    for (unsigned w = 0; w < 16; ++w)
        row[w] = w < 5 ? static_cast<std::uint8_t>(w) : 0xFF;
    simd::age_below_u8(row, 16, row[3]);
    row[3] = 0;
    const std::uint8_t expect[16] = {1,    2,    3,    0,    4,    0xFF,
                                     0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                     0xFF, 0xFF, 0xFF, 0xFF};
    for (unsigned w = 0; w < 16; ++w)
        EXPECT_EQ(row[w], expect[w]) << "lane " << w;
}

// ---- cache::Cache decision identity --------------------------------

/**
 * Reference cache: scalar scans, one virtual ReplacementPolicy per set
 * (u64 use stamps for LRU), first-empty-way fills — the documented
 * decision procedure of cache::Cache with none of its accelerators
 * (memo, u8 rank rows, SIMD scans, 32-bit tag packing).
 */
class RefCache {
  public:
    RefCache(std::uint64_t sets, unsigned ways,
             cache::ReplacementKind kind, Rng *rng)
        : sets_(sets), ways_(ways), lines_(sets * ways, ~0ULL)
    {
        for (std::uint64_t s = 0; s < sets; ++s)
            policies_.push_back(
                cache::make_replacement_policy(kind, ways, rng));
    }

    bool
    access(std::uint64_t line)
    {
        const std::uint64_t set = line & (sets_ - 1);
        std::uint64_t *ways = &lines_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (ways[w] == line) {
                policies_[set]->touch(w);
                return true;
            }
        }
        install(line);
        return false;
    }

    /// Install without a recency touch when already resident.
    void
    fill(std::uint64_t line)
    {
        if (!resident(line))
            install(line);
    }

    /// Drop every line; replacement state is kept, since a set refills
    /// through the empty-way scan before any victim is chosen.
    void flush() { std::fill(lines_.begin(), lines_.end(), ~0ULL); }

    void
    install(std::uint64_t line)
    {
        const std::uint64_t set = line & (sets_ - 1);
        std::uint64_t *ways = &lines_[set * ways_];
        unsigned w = 0;
        while (w < ways_ && ways[w] != ~0ULL)
            ++w;
        if (w == ways_)
            w = policies_[set]->victim();
        ways[w] = line;
        policies_[set]->touch(w);
    }

    void
    invalidate(std::uint64_t line)
    {
        const std::uint64_t set = line & (sets_ - 1);
        std::uint64_t *ways = &lines_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (ways[w] == line)
                ways[w] = ~0ULL;
        }
    }

    bool
    resident(std::uint64_t line) const
    {
        const std::uint64_t set = line & (sets_ - 1);
        for (unsigned w = 0; w < ways_; ++w) {
            if (lines_[set * ways_ + w] == line)
                return true;
        }
        return false;
    }

    std::uint64_t
    resident_lines() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t l : lines_)
            n += static_cast<std::uint64_t>(l != ~0ULL);
        return n;
    }

  private:
    std::uint64_t sets_;
    unsigned ways_;
    std::vector<std::uint64_t> lines_;
    std::vector<std::unique_ptr<cache::ReplacementPolicy>> policies_;
};

TEST(SimdProbe, CacheDecisionsMatchReferenceAcrossWaysAndPolicies)
{
    constexpr std::uint64_t kSets = 16;
    // 3, 12 and 20 ways give partly padded rank rows (20 spans two
    // 16-lane vectors) and non-power-of-two tree-PLRU.
    const unsigned all_ways[] = {1, 2, 3, 4, 8, 12, 16, 20};
    const cache::ReplacementKind kinds[] = {
        cache::ReplacementKind::Lru,
        cache::ReplacementKind::TreePlru,
        cache::ReplacementKind::Random,
    };

    for (unsigned ways : all_ways) {
        for (cache::ReplacementKind kind : kinds) {
            SCOPED_TRACE(cache::replacement_kind_name(kind) + "/" +
                         std::to_string(ways) + "w");
            // Two independent RNGs with one seed: draw sequences stay
            // aligned exactly as long as the decisions do.
            Rng cache_rng(99), ref_rng(99), stream(1234 + ways);
            cache::CacheGeometry geometry;
            geometry.name = "probe";
            geometry.size_bytes = kSets * ways * kCacheLineSize;
            geometry.ways = ways;
            geometry.replacement = kind;
            cache::Cache cache(geometry, &cache_rng);
            RefCache ref(kSets, ways, kind, &ref_rng);

            // 4x-capacity line pool: plenty of conflict misses; sprinkle
            // invalidations, fills and two flushes so sets refill through
            // the empty-way scan and evict on uncounted fills too.
            const std::uint64_t pool = kSets * ways * 4;
            for (unsigned i = 0; i < 6'000; ++i) {
                const std::uint64_t line = stream.below(pool);
                if (i % 17 == 13) {
                    cache.invalidate(line);
                    ref.invalidate(line);
                    continue;
                }
                if (i % 11 == 4) {
                    cache.fill(line);
                    ref.fill(line);
                    continue;
                }
                if (i % 2'500 == 2'499) {
                    cache.flush();
                    ref.flush();
                    ASSERT_EQ(cache.resident_lines(), 0u);
                    continue;
                }
                ASSERT_EQ(cache.access(line, cache::AccessKind::Data),
                          ref.access(line))
                    << "op " << i << " line " << line;
            }

            EXPECT_EQ(cache.resident_lines(), ref.resident_lines());
            for (std::uint64_t line = 0; line < pool; ++line) {
                ASSERT_EQ(cache.probe(line), ref.resident(line))
                    << "line " << line;
            }
        }
    }
}

TEST(SimdProbe, AssocCacheLookupMatchesScalarProbeSemantics)
{
    // The TLB structure's lookup/insert go through find_u64 +
    // min-stamp-tie-low; a shadow map replaying the documented LRU
    // decision procedure must agree on every hit and every eviction.
    constexpr unsigned kSets2 = 8, kWays = 4;
    tlb::AssocCache<std::uint64_t> cache(kSets2 * kWays, kWays);

    struct Entry {
        std::uint64_t key = ~0ULL;
        std::uint64_t value = 0;
        std::uint64_t stamp = 0;
    };
    std::vector<Entry> shadow(kSets2 * kWays);
    std::uint64_t clock = 0;

    Rng stream(77);
    const std::uint64_t pool = kSets2 * kWays * 3;
    for (unsigned i = 0; i < 4'000; ++i) {
        const std::uint64_t key = stream.below(pool);
        Entry *set = &shadow[(key & (kSets2 - 1)) * kWays];

        const auto shadow_lookup = [&]() -> Entry * {
            for (unsigned w = 0; w < kWays; ++w) {
                if (set[w].key == key)
                    return &set[w];
            }
            return nullptr;
        };

        if (i % 13 == 7) {
            cache.invalidate(key);
            if (Entry *e = shadow_lookup())
                e->key = ~0ULL;
            continue;
        }
        std::optional<std::uint64_t> got = cache.lookup(key);
        Entry *want = shadow_lookup();
        ASSERT_EQ(got.has_value(), want != nullptr) << "op " << i;
        if (want != nullptr) {
            EXPECT_EQ(*got, want->value) << "op " << i;
            want->stamp = ++clock;
        } else {
            // Miss path: insert, preferring empty ways, else the
            // smallest stamp with the lowest way winning ties.
            const std::uint64_t value = key * 3 + 1;
            cache.insert(key, value);
            unsigned slot = kWays;
            for (unsigned w = 0; w < kWays; ++w) {
                if (set[w].key == ~0ULL) {
                    slot = w;
                    break;
                }
            }
            if (slot == kWays) {
                slot = 0;
                for (unsigned w = 1; w < kWays; ++w) {
                    if (set[w].stamp < set[slot].stamp)
                        slot = w;
                }
            }
            set[slot] = Entry{key, value, ++clock};
        }
    }

    for (std::uint64_t key = 0; key < pool; ++key) {
        Entry *set = &shadow[(key & (kSets2 - 1)) * kWays];
        bool resident = false;
        std::uint64_t value = 0;
        for (unsigned w = 0; w < kWays; ++w) {
            if (set[w].key == key) {
                resident = true;
                value = set[w].value;
            }
        }
        std::optional<std::uint64_t> got = cache.probe(key);
        ASSERT_EQ(got.has_value(), resident) << "key " << key;
        if (resident) {
            EXPECT_EQ(*got, value) << "key " << key;
        }
    }
}

}  // namespace
}  // namespace ptm
