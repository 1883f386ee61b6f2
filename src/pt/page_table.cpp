#include "pt/page_table.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace ptm::pt {

const PageTable::Node PageTable::kEmptyLeaf{};

PageTable::PageTable(FrameSource frames) : frames_(std::move(frames))
{
    if (!frames_.allocate || !frames_.release)
        ptm_fatal("page table requires a complete frame source");
    std::optional<std::uint64_t> frame = allocate_frame();
    if (!frame) {
        // Recoverable: booting a table into an exhausted frame pool is an
        // admission failure (caller's host may be overcommitted), not a
        // programming error.
        ptm_throw("cannot allocate page-table root node: frame source "
                  "exhausted");
    }
    root_frame_ = *frame;
    root_ = std::make_unique<Node>();
}

PageTable::~PageTable()
{
    release_children(*root_, 0);
    release_frame(root_frame_);
}

const PageTable::Node *
PageTable::missing_child(Pte pte, unsigned level)
{
    if (pte.present() && level + 2 == kPtLevels)
        return &kEmptyLeaf;
    ptm_panic("present non-leaf entry without child node");
}

std::optional<std::uint64_t>
PageTable::allocate_frame()
{
    std::optional<std::uint64_t> frame = frames_.allocate();
    if (frame) {
        ++node_count_;
        stats_.nodes_allocated.inc();
    }
    return frame;
}

void
PageTable::release_frame(std::uint64_t frame)
{
    frames_.release(frame);
    --node_count_;
    stats_.nodes_released.inc();
}

void
PageTable::release_children(const Node &node, unsigned level)
{
    // Post-order, children in index order: the frame source's free order
    // decides its later allocations, so it must not depend on which
    // leaves happen to be emptied.
    if (level + 1 >= kPtLevels)
        return;
    for (const Slot &slot : node.slots) {
        if (!slot.pte.present())
            continue;
        if (slot.child)
            release_children(*slot.child, level + 1);
        release_frame(slot.pte.frame());
    }
}

PageTable::Slot *
PageTable::pd_slot(std::uint64_t vpn)
{
    Node *node = root_.get();
    for (unsigned level = 0; level + 2 < kPtLevels; ++level) {
        node = node->slots[index_at(vpn, level)].child.get();
        if (node == nullptr)
            return nullptr;
    }
    return &node->slots[index_at(vpn, kPtLevels - 2)];
}

bool
PageTable::map(std::uint64_t vpn, const PteFields &fields)
{
    Node *node = root_.get();
    for (unsigned level = 0; level + 1 < kPtLevels; ++level) {
        Slot &slot = node->slots[index_at(vpn, level)];
        if (!slot.child) {
            // A present entry without a child is an emptied leaf: rebuild
            // it at the frame the entry kept.
            if (!slot.pte.present()) {
                std::optional<std::uint64_t> frame = allocate_frame();
                if (!frame)
                    return false;
                slot.pte = Pte::encode({.present = true, .frame = *frame});
            }
            slot.child = std::make_unique<Node>();
        }
        node = slot.child.get();
    }
    Pte &leaf = node->slots[index_at(vpn, kPtLevels - 1)].pte;
    if (!leaf.present())
        ++node->present;
    PteFields with_present = fields;
    with_present.present = true;
    leaf = Pte::encode(with_present);
    stats_.mappings.inc();
    return true;
}

std::optional<Pte>
PageTable::unmap(std::uint64_t vpn)
{
    Slot *pd = pd_slot(vpn);
    if (pd == nullptr || !pd->child)
        return std::nullopt;
    Pte &leaf = pd->child->slots[index_at(vpn, kPtLevels - 1)].pte;
    if (!leaf.present())
        return std::nullopt;
    const Pte old = leaf;
    leaf = Pte{};
    stats_.unmappings.inc();
    if (--pd->child->present == 0)
        pd->child.reset();
    return old;
}

std::optional<Pte>
PageTable::lookup(std::uint64_t vpn) const
{
    Cursor cur(*this, vpn);
    while (cur.pte().present() && !cur.at_leaf())
        cur.descend();
    if (!cur.pte().present())
        return std::nullopt;
    return cur.pte();
}

bool
PageTable::update(std::uint64_t vpn, const PteFields &fields)
{
    Slot *pd = pd_slot(vpn);
    if (pd == nullptr || !pd->child)
        return false;
    Pte &leaf = pd->child->slots[index_at(vpn, kPtLevels - 1)].pte;
    if (!leaf.present())
        return false;
    PteFields with_present = fields;
    with_present.present = true;
    leaf = Pte::encode(with_present);
    return true;
}

WalkResult
PageTable::walk(std::uint64_t vpn, WalkSteps &steps) const
{
    return record_walk(*this, vpn, steps);
}

std::optional<Addr>
PageTable::leaf_entry_paddr(std::uint64_t vpn) const
{
    Cursor cur(*this, vpn);
    while (!cur.at_leaf()) {
        if (!cur.pte().present())
            return std::nullopt;
        cur.descend();
    }
    return cur.entry_paddr();
}

}  // namespace ptm::pt
