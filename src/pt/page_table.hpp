/**
 * @file
 * Four-level radix page table with physically-addressed nodes.
 *
 * Each node is one 4 KiB frame of 512 eight-byte entries, obtained from a
 * caller-supplied frame source (the guest or host buddy allocator), so the
 * *physical placement* of every PTE — the thing the paper's cache-footprint
 * argument is about — is exact: the entry for virtual page v at the leaf
 * level lives at byte address node_frame*4096 + (v & 511)*8.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "pt/pte.hpp"
#include "pt/translation_table.hpp"

namespace ptm::pt {

/// Where page-table node frames come from / go back to.
struct FrameSource {
    /// Allocate one frame for a PT node; nullopt on OOM.
    std::function<std::optional<std::uint64_t>()> allocate;
    /// Return a node frame.
    std::function<void(std::uint64_t)> release;
};

/**
 * The radix tree. Not thread-safe; the owning kernel serializes updates
 * (walks from the simulated hardware walker are reads and happen between
 * kernel operations in the deterministic schedule).
 */
class PageTable final : public TranslationTable {
  public:
    /// Number of leaf-level entries covered by one table node.
    static constexpr unsigned kFanout = kPtesPerNode;

    /**
     * @param frames where node frames come from. The root node is
     *               allocated eagerly (as the kernel does for a new mm).
     */
    explicit PageTable(FrameSource frames);
    ~PageTable() override;

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Install a translation vpn -> fields. Intermediate nodes are created
     * on demand.
     * @return false if a node allocation failed (OOM).
     */
    bool map(std::uint64_t vpn, const PteFields &fields) override;

    /**
     * Remove a translation. Every node keeps its frame until the table is
     * destroyed (Linux would also free PT pages when a whole region is
     * unmapped), so node frames, entry addresses and node_count() do not
     * change. When the last present entry of a leaf goes, only the
     * leaf's host storage is freed: its PD entry stays present with the
     * leaf's frame, readers see a leaf of non-present entries there, and
     * the next map() under it rebuilds the leaf at that frame.
     */
    void unmap(std::uint64_t vpn) override;

    /// Current leaf entry for @p vpn, if the whole path exists.
    std::optional<Pte> lookup(std::uint64_t vpn) const override;

    /// Overwrite the leaf entry for an existing mapping (e.g. COW resolve);
    /// false if @p vpn is not mapped.
    bool update(std::uint64_t vpn, const PteFields &fields) override;

    /// TranslationTable walk: root to leaf, stopping after a non-present
    /// entry; complete iff all four levels resolved.
    WalkResult walk(std::uint64_t vpn, WalkSteps &steps) const override;

    /**
     * Radix-native walk into a kPtLevels-sized buffer (the historical
     * signature; unit tests of the radix structure use it directly).
     * @return number of steps written to @p steps (1..4).
     */
    unsigned walk(std::uint64_t vpn,
                  std::array<WalkStep, kPtLevels> &steps) const;

    /**
     * Physical byte address of the leaf PTE slot for @p vpn, if the leaf
     * node has a frame (the entry itself may be non-present). Used by
     * the fragmentation metric, which is about PTE *placement*.
     */
    std::optional<Addr> leaf_entry_paddr(std::uint64_t vpn) const override;

    /// Frame of the root node (CR3 equivalent).
    std::uint64_t root_frame() const override { return root_frame_; }

    /// Total node frames currently held, all levels (an emptied leaf
    /// still holds its frame).
    std::uint64_t node_count() const override { return node_count_; }

    const PageTableStats &stats() const override { return stats_; }

    std::string name() const override { return "radix"; }

    /// The PWC contract holds by construction.
    bool radix_levels() const override { return true; }

    /// Radix index of @p vpn at @p level (0 = root).
    static unsigned
    index_at(std::uint64_t vpn, unsigned level)
    {
        unsigned shift = 9 * (kPtLevels - 1 - level);
        return static_cast<unsigned>((vpn >> shift) & (kFanout - 1));
    }

  private:
    struct Node;

    /// One radix entry: the PTE together with (for non-leaf nodes) the
    /// owning pointer to the child node. Keeping them adjacent means a
    /// walk step reads the entry and follows the child from the same
    /// host cache line, instead of hopping between two arrays 4 KiB
    /// apart. A present entry's frame is its child's frame.
    struct Slot {
        Pte pte;
        std::unique_ptr<Node> child;
    };

    struct Node {
        std::array<Slot, kFanout> slots{};
        /// Present entries (counted in leaf nodes only).
        std::uint32_t present = 0;
    };

    /// Stands in for an emptied leaf: every entry non-present.
    static const Node kEmptyLeaf;

    /// Child of a present entry at @p level whose host node is missing:
    /// kEmptyLeaf below a PD entry, a corruption panic anywhere else.
    static const Node *missing_child(Pte pte, unsigned level);

    std::optional<std::uint64_t> allocate_frame();
    void release_frame(std::uint64_t frame);
    void release_children(const Node &node, unsigned level);
    Slot *pd_slot(std::uint64_t vpn);
    unsigned walk_into(std::uint64_t vpn, WalkStep *steps) const;

    FrameSource frames_;
    std::uint64_t root_frame_ = 0;
    std::unique_ptr<Node> root_;
    std::uint64_t node_count_ = 0;
    PageTableStats stats_;

  public:
    /**
     * Inline descent cursor: the exact touch sequence of walk(), one
     * level at a time, without materializing a step buffer. The nested
     * walker uses it to fuse the radix descent with its per-node cache
     * accounting — one pass, no virtual dispatch. Read-only; the cursor
     * must not outlive kernel updates to the table.
     */
    class Cursor {
      public:
        Cursor(const PageTable &table, std::uint64_t vpn)
            : node_(table.root_.get()), frame_(table.root_frame_), vpn_(vpn)
        {
        }

        unsigned level() const { return level_; }
        std::uint64_t node_frame() const { return frame_; }
        unsigned index() const { return index_at(vpn_, level_); }
        Addr
        entry_paddr() const
        {
            return frame_ * kPageSize + index() * kPteSize;
        }
        Pte pte() const { return node_->slots[index()].pte; }
        bool at_leaf() const { return level_ + 1 >= kPtLevels; }

        /**
         * Move to the current entry's child node. Only meaningful below
         * the leaf level with a present entry; panics on structural
         * corruption (present non-leaf entry without a child), exactly
         * like walk(). An emptied leaf reads as all non-present at the
         * frame its PD entry kept.
         */
        void
        descend()
        {
            const Slot &slot = node_->slots[index()];
            node_ = slot.child ? slot.child.get()
                               : missing_child(slot.pte, level_);
            frame_ = slot.pte.frame();
            ++level_;
        }

      private:
        const Node *node_;
        std::uint64_t frame_;
        std::uint64_t vpn_;
        unsigned level_ = 0;
    };
};

}  // namespace ptm::pt
