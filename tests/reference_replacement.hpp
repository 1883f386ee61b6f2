/**
 * @file
 * Virtual per-set replacement policies: the reference model that the
 * cache tests compare cache::Cache's inline rank rows and PLRU bits
 * against. A policy instance manages one set of @c ways ways.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace ptm::cache {

/**
 * Per-set replacement state. `touch` records a use of a way, `victim`
 * selects the way to evict (invalid ways are chosen by the cache before
 * consulting the policy).
 */
class ReplacementPolicy {
  public:
    virtual ~ReplacementPolicy() = default;

    /// Record that @p way was accessed (hit or fill).
    virtual void touch(unsigned way) = 0;

    /// Pick the way to evict.
    virtual unsigned victim() = 0;
};

/// True LRU via per-way use stamps; victim is the smallest stamp.
class LruPolicy final : public ReplacementPolicy {
  public:
    explicit LruPolicy(unsigned ways) : stamps_(ways, 0) {}

    void touch(unsigned way) override { stamps_[way] = ++clock_; }

    unsigned
    victim() override
    {
        unsigned best = 0;
        for (unsigned w = 1; w < stamps_.size(); ++w) {
            if (stamps_[w] < stamps_[best])
                best = w;
        }
        return best;
    }

  private:
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

/// Tree pseudo-LRU over a power-of-two (rounded-up) number of ways.
class TreePlruPolicy final : public ReplacementPolicy {
  public:
    explicit TreePlruPolicy(unsigned ways) : ways_(ways)
    {
        leaves_ = 1;
        while (leaves_ < ways_)
            leaves_ <<= 1;
        bits_.assign(leaves_, false);  // node 1..leaves_-1 used
    }

    void
    touch(unsigned way) override
    {
        // Walk from root to the leaf for `way`, pointing each node away
        // from the path taken.
        unsigned node = 1;
        unsigned span = leaves_;
        while (span > 1) {
            span >>= 1;
            bool right = way >= span;
            bits_[node] = !right;  // point away from the touched half
            node = node * 2 + (right ? 1 : 0);
            if (right)
                way -= span;
        }
    }

    unsigned
    victim() override
    {
        // Follow the pointers; clamp to a valid way for non-power-of-two
        // configurations.
        unsigned node = 1;
        unsigned way = 0;
        unsigned span = leaves_;
        while (span > 1) {
            span >>= 1;
            bool right = bits_[node];
            node = node * 2 + (right ? 1 : 0);
            if (right)
                way += span;
        }
        return way >= ways_ ? ways_ - 1 : way;
    }

  private:
    unsigned ways_;
    unsigned leaves_;
    std::vector<bool> bits_;
};

/// Uniform random victim selection.
class RandomPolicy final : public ReplacementPolicy {
  public:
    RandomPolicy(unsigned ways, Rng *rng) : ways_(ways), rng_(rng)
    {
        if (rng_ == nullptr)
            ptm_fatal("random replacement needs an Rng");
    }

    void touch(unsigned) override {}
    unsigned victim() override
    {
        return static_cast<unsigned>(rng_->below(ways_));
    }

  private:
    unsigned ways_;
    Rng *rng_;
};

/// Construct a policy instance for one set of @p ways ways.
inline std::unique_ptr<ReplacementPolicy>
make_replacement_policy(ReplacementKind kind, unsigned ways, Rng *rng)
{
    if (ways == 0)
        ptm_fatal("replacement policy over zero ways");
    switch (kind) {
      case ReplacementKind::Lru:
        return std::make_unique<LruPolicy>(ways);
      case ReplacementKind::TreePlru:
        return std::make_unique<TreePlruPolicy>(ways);
      case ReplacementKind::Random:
        return std::make_unique<RandomPolicy>(ways, rng);
    }
    ptm_panic("unreachable replacement kind");
}

}  // namespace ptm::cache
