/**
 * @file
 * Unit tests for the PTE codec and the 4-level radix page table.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "mem/buddy_allocator.hpp"
#include "pt/page_table.hpp"
#include "pt/pte.hpp"

// Byte-counting global allocator: every allocation carries its size in
// a header, so the test can see host storage come and go.
namespace {
std::atomic<std::int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

void *
operator new(std::size_t n)
{
    void *raw = std::malloc(n + kHeader);
    if (raw == nullptr)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(raw) = n;
    g_live_bytes += static_cast<std::int64_t>(n);
    return static_cast<char *>(raw) + kHeader;
}

void
operator delete(void *p) noexcept
{
    if (p == nullptr)
        return;
    void *raw = static_cast<char *>(p) - kHeader;
    g_live_bytes -= static_cast<std::int64_t>(*static_cast<std::size_t *>(raw));
    std::free(raw);
}

void *operator new[](std::size_t n) { return ::operator new(n); }
void operator delete[](void *p) noexcept { ::operator delete(p); }
void operator delete(void *p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void *p, std::size_t) noexcept { ::operator delete(p); }

namespace ptm::pt {
namespace {

TEST(Pte, EncodeDecodeRoundTrip)
{
    PteFields fields{.present = true,
                     .writable = true,
                     .user = true,
                     .accessed = true,
                     .dirty = false,
                     .cow = true,
                     .frame = 0x12345};
    Pte pte = Pte::encode(fields);
    PteFields back = pte.decode();
    EXPECT_EQ(back.present, fields.present);
    EXPECT_EQ(back.writable, fields.writable);
    EXPECT_EQ(back.user, fields.user);
    EXPECT_EQ(back.accessed, fields.accessed);
    EXPECT_EQ(back.dirty, fields.dirty);
    EXPECT_EQ(back.cow, fields.cow);
    EXPECT_EQ(back.frame, fields.frame);
}

TEST(Pte, ArchitecturalBitPositions)
{
    Pte pte = Pte::encode({.present = true, .writable = true, .frame = 1});
    EXPECT_EQ(pte.raw() & 0x1, 0x1u);             // P is bit 0
    EXPECT_EQ(pte.raw() & 0x2, 0x2u);             // W is bit 1
    EXPECT_EQ(pte.raw() & Pte::kFrameMask, 0x1000u);
}

TEST(Pte, EmptyIsNotPresent)
{
    EXPECT_FALSE(Pte{}.present());
}

TEST(PageTable, IndexExtraction)
{
    // vpn = 0b[lll...lll] with 9 bits per level, level 0 topmost.
    std::uint64_t vpn = (5ull << 27) | (17ull << 18) | (301ull << 9) | 511;
    EXPECT_EQ(PageTable::index_at(vpn, 0), 5u);
    EXPECT_EQ(PageTable::index_at(vpn, 1), 17u);
    EXPECT_EQ(PageTable::index_at(vpn, 2), 301u);
    EXPECT_EQ(PageTable::index_at(vpn, 3), 511u);
}

class PageTableTest : public ::testing::Test {
  protected:
    PageTableTest() : buddy_(0, 4096)
    {
        source_ = FrameSource{
            .allocate = [this]() { return buddy_.allocate_frame(); },
            .release = [this](std::uint64_t f) { buddy_.free(f); },
        };
    }

    mem::BuddyAllocator buddy_;
    FrameSource source_;
};

TEST_F(PageTableTest, MapAndLookup)
{
    PageTable pt(source_);
    EXPECT_FALSE(pt.lookup(100).has_value());
    EXPECT_TRUE(pt.map(100, {.frame = 777}));
    auto pte = pt.lookup(100);
    ASSERT_TRUE(pte.has_value());
    EXPECT_TRUE(pte->present());
    EXPECT_EQ(pte->frame(), 777u);
}

TEST_F(PageTableTest, UnmapRemovesTranslation)
{
    PageTable pt(source_);
    pt.map(100, {.frame = 777});
    pt.unmap(100);
    EXPECT_FALSE(pt.lookup(100).has_value());
    EXPECT_EQ(pt.stats().unmappings.value(), 1u);
}

TEST_F(PageTableTest, UnmapReturnsTheClearedEntry)
{
    PageTable pt(source_);
    pt.map(100, {.writable = true, .frame = 777});
    pt.map(101, {.frame = 778});
    EXPECT_FALSE(pt.unmap(102).has_value()) << "hole in a live leaf";
    const std::optional<Pte> old = pt.unmap(100);
    ASSERT_TRUE(old.has_value());
    EXPECT_TRUE(old->present());
    EXPECT_TRUE(old->writable());
    EXPECT_EQ(old->frame(), 777u);
    EXPECT_FALSE(pt.unmap(100).has_value()) << "second unmap";
    ASSERT_TRUE(pt.unmap(101).has_value());
    EXPECT_FALSE(pt.unmap(101).has_value()) << "emptied leaf";
    EXPECT_FALSE(pt.unmap(1ull << 30).has_value()) << "no path";
    EXPECT_EQ(pt.stats().unmappings.value(), 2u);
}

TEST_F(PageTableTest, UpdateChangesLeaf)
{
    PageTable pt(source_);
    pt.map(100, {.writable = true, .frame = 1});
    EXPECT_TRUE(pt.update(100, {.writable = false, .cow = true, .frame = 1}));
    auto pte = pt.lookup(100);
    ASSERT_TRUE(pte);
    EXPECT_FALSE(pte->writable());
    EXPECT_TRUE(pte->cow());
}

TEST_F(PageTableTest, UpdateFailsWithoutPath)
{
    PageTable pt(source_);
    EXPECT_FALSE(pt.update(100, {.frame = 1}));
}

TEST_F(PageTableTest, UpdateFailsOnUnmappedEntryOfExistingLeaf)
{
    PageTable pt(source_);
    pt.map(100, {.frame = 1});
    EXPECT_FALSE(pt.update(101, {.writable = true, .frame = 2}));
    EXPECT_FALSE(pt.lookup(101).has_value());
    pt.unmap(100);
    EXPECT_FALSE(pt.update(100, {.writable = true, .frame = 1}));
    EXPECT_FALSE(pt.lookup(100).has_value());
    EXPECT_EQ(pt.stats().mappings.value(), 1u);
}

TEST_F(PageTableTest, NodeSharingAcrossNeighbours)
{
    PageTable pt(source_);
    // Root exists; mapping one page creates 3 more nodes.
    EXPECT_EQ(pt.node_count(), 1u);
    pt.map(0, {.frame = 1});
    EXPECT_EQ(pt.node_count(), 4u);
    // A neighbouring page shares the whole path.
    pt.map(1, {.frame = 2});
    EXPECT_EQ(pt.node_count(), 4u);
    // A page in a different leaf node adds exactly one node.
    pt.map(512, {.frame = 3});
    EXPECT_EQ(pt.node_count(), 5u);
    // A page in a very distant region adds a full path (3 nodes).
    pt.map(1ull << 30, {.frame = 4});
    EXPECT_EQ(pt.node_count(), 8u);
}

TEST_F(PageTableTest, WalkVisitsFourLevelsWithCorrectAddresses)
{
    PageTable pt(source_);
    std::uint64_t vpn = (3ull << 27) | (1ull << 18) | (2ull << 9) | 7;
    pt.map(vpn, {.frame = 424242});

    WalkSteps steps;
    WalkResult walk = pt.walk(vpn, steps);
    ASSERT_EQ(walk.steps, 4u);
    EXPECT_TRUE(walk.complete);
    EXPECT_EQ(steps[0].node_frame, pt.root_frame());
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(steps[i].level, i);
        EXPECT_EQ(steps[i].index, PageTable::index_at(vpn, i));
        EXPECT_EQ(steps[i].entry_paddr,
                  steps[i].node_frame * kPageSize +
                      steps[i].index * kPteSize);
        EXPECT_TRUE(steps[i].pte.present());
    }
    // Chain property: each step's PTE points at the next node.
    for (unsigned i = 0; i + 1 < 4; ++i)
        EXPECT_EQ(steps[i].pte.frame(), steps[i + 1].node_frame);
    EXPECT_EQ(steps[3].pte.frame(), 424242u);
}

TEST_F(PageTableTest, WalkStopsAtNonPresent)
{
    PageTable pt(source_);
    WalkSteps steps;
    WalkResult walk = pt.walk(123456, steps);
    EXPECT_EQ(walk.steps, 1u);
    EXPECT_FALSE(walk.complete);
    EXPECT_FALSE(steps[0].pte.present());
}

TEST_F(PageTableTest, AdjacentVpnsPackIntoOneLeafCacheLine)
{
    // The structural fact behind the whole paper: PTEs of 8 neighbouring
    // pages share one 64-byte line (Figure 3).
    PageTable pt(source_);
    std::set<std::uint64_t> lines;
    for (std::uint64_t vpn = 64; vpn < 72; ++vpn) {
        pt.map(vpn, {.frame = vpn});
        auto paddr = pt.leaf_entry_paddr(vpn);
        ASSERT_TRUE(paddr);
        lines.insert(line_number(*paddr));
    }
    EXPECT_EQ(lines.size(), 1u);
    // ...and the next group starts a new line.
    pt.map(72, {.frame = 72});
    EXPECT_FALSE(lines.count(line_number(*pt.leaf_entry_paddr(72))));
}

TEST_F(PageTableTest, DestructorReturnsAllNodeFrames)
{
    std::uint64_t free_before = buddy_.free_frames_count();
    {
        PageTable pt(source_);
        for (std::uint64_t vpn = 0; vpn < 10000; vpn += 97)
            pt.map(vpn, {.frame = vpn});
        EXPECT_LT(buddy_.free_frames_count(), free_before);
    }
    EXPECT_EQ(buddy_.free_frames_count(), free_before);
    buddy_.check_invariants();
}

TEST_F(PageTableTest, MapFailsOnNodeOom)
{
    // Tiny frame pool: eventually map() cannot create nodes.
    mem::BuddyAllocator tiny(0, 4);
    FrameSource source{
        .allocate = [&tiny]() { return tiny.allocate_frame(); },
        .release = [&tiny](std::uint64_t f) { tiny.free(f); },
    };
    PageTable pt(source);
    EXPECT_TRUE(pt.map(0, {.frame = 1}));  // uses root + 3 nodes = 4
    // A distant vpn needs 3 new nodes: none available.
    EXPECT_FALSE(pt.map(1ull << 30, {.frame = 2}));
}

TEST_F(PageTableTest, LeafEntryPaddrWithoutMapping)
{
    PageTable pt(source_);
    EXPECT_FALSE(pt.leaf_entry_paddr(55).has_value());
    pt.map(55, {.frame = 1});
    // Neighbours in the same leaf node have a slot address even while
    // unmapped — the slot exists once the node does.
    EXPECT_TRUE(pt.leaf_entry_paddr(56).has_value());
}

// ---- emptied leaves ------------------------------------------------

/// A buddy-backed frame source that records every call made to it.
struct RecordingSource {
    RecordingSource() : buddy(0, 4096) {}

    FrameSource
    source()
    {
        return FrameSource{
            .allocate =
                [this]() {
                    ++allocations;
                    return buddy.allocate_frame();
                },
            .release =
                [this](std::uint64_t f) {
                    released.push_back(f);
                    buddy.free(f);
                },
        };
    }

    mem::BuddyAllocator buddy;
    unsigned allocations = 0;
    std::vector<std::uint64_t> released;
};

/// Every placement fact a reader can observe about @p vpn.
struct Placement {
    WalkResult result;
    WalkSteps walk{};
    std::vector<std::uint64_t> cursor_frames;
    std::vector<Addr> cursor_entries;
    std::optional<Addr> leaf_entry;
};

Placement
observe(const PageTable &pt, std::uint64_t vpn)
{
    Placement p;
    p.result = pt.walk(vpn, p.walk);
    PageTable::Cursor cur(pt, vpn);
    for (;;) {
        p.cursor_frames.push_back(cur.node_frame());
        p.cursor_entries.push_back(cur.entry_paddr());
        if (!cur.pte().present() || cur.at_leaf())
            break;
        cur.descend();
    }
    p.leaf_entry = pt.leaf_entry_paddr(vpn);
    return p;
}

constexpr std::uint64_t kLeafBase = 7 * PageTable::kFanout;

TEST_F(PageTableTest, EmptiedLeafKeepsFramesAndAddresses)
{
    PageTable pt(source_);
    pt.map(kLeafBase - 1, {.frame = 9});  // the neighbouring leaf stays
    for (std::uint64_t i = 0; i < 8; ++i)
        pt.map(kLeafBase + 3 * i, {.frame = 100 + i});
    const std::uint64_t nodes = pt.node_count();
    std::vector<Placement> before;
    for (std::uint64_t i = 0; i < 24; ++i)
        before.push_back(observe(pt, kLeafBase + i));

    for (std::uint64_t i = 0; i < 8; ++i)
        pt.unmap(kLeafBase + 3 * i);

    EXPECT_EQ(pt.node_count(), nodes);
    EXPECT_EQ(pt.stats().nodes_released.value(), 0u);
    for (std::uint64_t i = 0; i < 24; ++i) {
        SCOPED_TRACE(i);
        const Placement after = observe(pt, kLeafBase + i);
        ASSERT_EQ(after.result.steps, kPtLevels);
        ASSERT_EQ(before[i].result.steps, kPtLevels);
        EXPECT_EQ(before[i].result.complete, i % 3 == 0);
        EXPECT_FALSE(after.result.complete);
        for (unsigned l = 0; l < kPtLevels; ++l) {
            EXPECT_EQ(after.walk[l].level, before[i].walk[l].level);
            EXPECT_EQ(after.walk[l].node_frame,
                      before[i].walk[l].node_frame);
            EXPECT_EQ(after.walk[l].index, before[i].walk[l].index);
            EXPECT_EQ(after.walk[l].entry_paddr,
                      before[i].walk[l].entry_paddr);
        }
        for (unsigned l = 0; l + 1 < kPtLevels; ++l)
            EXPECT_EQ(after.walk[l].pte.raw(), before[i].walk[l].pte.raw());
        EXPECT_FALSE(after.walk[kPtLevels - 1].pte.present());
        EXPECT_EQ(after.cursor_frames, before[i].cursor_frames);
        EXPECT_EQ(after.cursor_entries, before[i].cursor_entries);
        EXPECT_EQ(after.leaf_entry, before[i].leaf_entry);
        EXPECT_FALSE(pt.lookup(kLeafBase + i).has_value());
        EXPECT_FALSE(pt.update(kLeafBase + i, {.frame = 1}));
    }
    EXPECT_TRUE(pt.lookup(kLeafBase - 1).has_value());
}

TEST(PageTableEmptyLeaf, RemapRebuildsAtSameFrameWithoutFrameSource)
{
    RecordingSource rec;
    PageTable pt(rec.source());
    pt.map(kLeafBase, {.frame = 5});
    const std::optional<Addr> slot = pt.leaf_entry_paddr(kLeafBase + 9);
    const std::uint64_t nodes = pt.node_count();
    pt.unmap(kLeafBase);

    const unsigned allocations = rec.allocations;
    ASSERT_TRUE(pt.map(kLeafBase + 9, {.frame = 6}));
    EXPECT_EQ(rec.allocations, allocations);
    EXPECT_TRUE(rec.released.empty());
    EXPECT_EQ(pt.leaf_entry_paddr(kLeafBase + 9), slot);
    EXPECT_EQ(pt.node_count(), nodes);
    EXPECT_EQ(pt.stats().nodes_allocated.value(), nodes);
    EXPECT_EQ(pt.lookup(kLeafBase + 9)->frame(), 6u);
    EXPECT_FALSE(pt.lookup(kLeafBase).has_value());
}

TEST(PageTableEmptyLeaf, DestructorReleasesInTwinOrder)
{
    // Two tables over identical frame sources see the same map sequence;
    // one then empties (and partly refills) leaves the other keeps. Both
    // must hand their frames back in one order.
    RecordingSource emptied_rec;
    RecordingSource twin_rec;
    {
        PageTable emptied(emptied_rec.source());
        PageTable twin(twin_rec.source());
        const std::uint64_t vpns[] = {3,          kLeafBase,
                                      kLeafBase + 1,
                                      2 * kLeafBase, 1ull << 27,
                                      (1ull << 27) + 1,
                                      (1ull << 27) + 700};
        for (std::uint64_t vpn : vpns) {
            emptied.map(vpn, {.frame = vpn});
            twin.map(vpn, {.frame = vpn});
        }
        for (std::uint64_t vpn : vpns) {
            if (vpn != 2 * kLeafBase && vpn != (1ull << 27) + 700)
                emptied.unmap(vpn);
        }
        emptied.map(kLeafBase + 1, {.frame = 1});
        EXPECT_EQ(emptied.node_count(), twin.node_count());
    }
    EXPECT_EQ(emptied_rec.allocations, twin_rec.allocations);
    EXPECT_EQ(emptied_rec.released, twin_rec.released);
    EXPECT_EQ(emptied_rec.released.size(), emptied_rec.allocations);
    emptied_rec.buddy.check_invariants();
}

TEST(PageTableEmptyLeaf, EmptiedLeafFreesHostStorage)
{
    RecordingSource rec;
    PageTable pt(rec.source());
    pt.map(kLeafBase - 1, {.frame = 1});  // keeps the upper levels
    const std::int64_t base = g_live_bytes.load();

    pt.map(kLeafBase, {.frame = 2});
    pt.map(kLeafBase + 1, {.frame = 3});
    pt.map(kLeafBase + 1, {.frame = 4});  // an overwrite is not a new entry
    const std::int64_t leaf = g_live_bytes.load() - base;
    EXPECT_GE(leaf, static_cast<std::int64_t>(PageTable::kFanout *
                                              sizeof(Pte)));

    pt.unmap(kLeafBase);
    pt.unmap(kLeafBase);  // unmapping a hole changes nothing
    EXPECT_EQ(g_live_bytes.load() - base, leaf);  // one entry still present
    EXPECT_EQ(pt.lookup(kLeafBase + 1)->frame(), 4u);
    pt.unmap(kLeafBase + 1);
    EXPECT_EQ(g_live_bytes.load(), base);
    pt.map(kLeafBase + 1, {.frame = 3});
    EXPECT_EQ(g_live_bytes.load() - base, leaf);
}

/// Property test: random map/lookup/unmap against a reference std::map.
class PageTablePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTablePropertyTest, MatchesReferenceModel)
{
    mem::BuddyAllocator buddy(0, 1u << 16);
    FrameSource source{
        .allocate = [&buddy]() { return buddy.allocate_frame(); },
        .release = [&buddy](std::uint64_t f) { buddy.free(f); },
    };
    PageTable pt(source);
    std::map<std::uint64_t, std::uint64_t> reference;
    Rng rng(GetParam());

    for (int step = 0; step < 5000; ++step) {
        std::uint64_t vpn = rng.below(1ull << 20);
        double action = rng.uniform();
        if (action < 0.6) {
            std::uint64_t frame = rng.below(1ull << 30);
            ASSERT_TRUE(pt.map(vpn, {.frame = frame}));
            reference[vpn] = frame;
        } else if (action < 0.8) {
            pt.unmap(vpn);
            reference.erase(vpn);
        } else {
            auto pte = pt.lookup(vpn);
            auto it = reference.find(vpn);
            if (it == reference.end()) {
                EXPECT_FALSE(pte.has_value());
            } else {
                ASSERT_TRUE(pte.has_value());
                EXPECT_EQ(pte->frame(), it->second);
            }
        }
    }
    // Full sweep at the end.
    for (const auto &[vpn, frame] : reference) {
        auto pte = pt.lookup(vpn);
        ASSERT_TRUE(pte.has_value());
        EXPECT_EQ(pte->frame(), frame);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTablePropertyTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace ptm::pt
