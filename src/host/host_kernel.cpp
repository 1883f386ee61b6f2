#include "host/host_kernel.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/trace_sink.hpp"
#include "pt/table_factory.hpp"

namespace ptm::host {

VmInstance::VmInstance(std::int32_t id, pt::FrameSource pt_frames)
    : VmInstance(id,
                 std::make_unique<pt::PageTable>(std::move(pt_frames)))
{
}

VmInstance::VmInstance(std::int32_t id,
                       std::unique_ptr<pt::TranslationTable> table)
    : id_(id), page_table_(std::move(table))
{
    if (!page_table_)
        ptm_panic("vm %d created without a translation table", id_);
}

HostKernel::HostKernel(std::uint64_t host_frames, HostCostModel costs)
    : costs_(costs), buddy_(0, host_frames), memory_(0, host_frames)
{
}

HostKernel::~HostKernel()
{
    vms_.clear();
}

pt::FrameSource
HostKernel::pt_frame_source(std::int32_t vm_id)
{
    return pt::FrameSource{
        .allocate =
            [this, vm_id]() -> std::optional<std::uint64_t> {
                std::optional<std::uint64_t> frame = buddy_.allocate_frame();
                if (frame) {
                    memory_.set_use(*frame, 1, mem::FrameUse::PageTable,
                                    vm_id);
                }
                return frame;
            },
        .release =
            [this](std::uint64_t frame) {
                memory_.set_use(frame, 1, mem::FrameUse::Free);
                buddy_.free(frame);
            },
    };
}

void
HostKernel::set_translation_table(const std::string &name,
                                  PolicyParams params)
{
    if (!vms_.empty())
        ptm_fatal("cannot change the host translation table with live VMs");
    if (!pt::table_registered(name)) {
        // Fail the same way make_table would, before a VM exists.
        pt::make_table(name, pt_frame_source(0), params);
    }
    table_name_ = name;
    table_params_ = std::move(params);
}

std::uint64_t
HostKernel::table_boot_frames() const
{
    if (table_name_ == "hashed") {
        return static_cast<std::uint64_t>(
            table_params_.get("initial_frames", 4.0));
    }
    return 1;  // radix-style tables allocate only the root node at boot
}

VmInstance &
HostKernel::create_vm()
{
    // Admission control: fail before anything is allocated, so a caller
    // that survives the error sees an unchanged host. (Even past this
    // check the table constructor can lose a frame to an armed alloc
    // gate; that path also raises a recoverable SimError now.)
    const std::uint64_t needed = table_boot_frames();
    const std::uint64_t free = buddy_.free_frames_count();
    if (free < needed) {
        ptm_throw("cannot boot vm %d: host has %llu free frames, booting "
                  "a '%s' translation table needs %llu",
                  next_vm_id_, static_cast<unsigned long long>(free),
                  table_name_.c_str(),
                  static_cast<unsigned long long>(needed));
    }

    std::int32_t id = next_vm_id_++;
    auto vm = std::make_unique<VmInstance>(
        id, pt::make_table(table_name_, pt_frame_source(id), table_params_));
    VmInstance &ref = *vm;
    vms_.emplace(id, std::move(vm));
    return ref;
}

bool
HostKernel::unback(VmInstance &vm, std::uint64_t gfn)
{
    std::optional<pt::Pte> pte = vm.page_table().unmap(gfn);
    if (!pte)
        return false;  // never backed: the balloon release is unproductive

    // Shoot down stale nested-TLB entries before the frame can be
    // reallocated to another VM.
    if (on_backing_invalidated)
        on_backing_invalidated(vm.id(), gfn);

    const std::uint64_t hfn = pte->frame();
    memory_.set_use(hfn, 1, mem::FrameUse::Free);
    buddy_.free(hfn);
    vm.note_unbacked();
    stats_.pages_unbacked.inc();
    return true;
}

std::uint64_t
HostKernel::destroy_vm(VmInstance &vm)
{
    const std::int32_t id = vm.id();
    const std::uint64_t free_before = buddy_.free_frames_count();

    // Repossess the VM's data frames by ownership scan; no nested-TLB
    // shootdown is needed because the dead VM's jobs never run again and
    // other VMs' nested TLBs are keyed by their own guest frames.
    std::uint64_t data_frames = 0;
    const std::uint64_t base = memory_.base_frame();
    const std::uint64_t limit = base + memory_.frame_count();
    for (std::uint64_t frame = base; frame < limit; ++frame) {
        const mem::FrameInfo &info = memory_.info(frame);
        if (info.owner == id && info.use == mem::FrameUse::Data) {
            memory_.set_use(frame, 1, mem::FrameUse::Free);
            buddy_.free(frame);
            ++data_frames;
        }
    }
    stats_.frames_repossessed.inc(data_frames);

    // The translation-table destructor releases the PT node frames
    // through its frame source.
    vms_.erase(id);
    stats_.vms_destroyed.inc();
    return buddy_.free_frames_count() - free_before;
}

mmu::FaultOutcome
HostKernel::handle_fault(VmInstance &vm, std::uint64_t gfn)
{
    stats_.faults_handled.inc();

    std::optional<std::uint64_t> hfn = buddy_.allocate_frame();
    if (!hfn)
        return {.ok = false};

    if (!vm.page_table().map(gfn, {.writable = true, .frame = *hfn})) {
        // The data frame is allocated but cannot be mapped: give it back
        // so a caller that survives the error sees consistent accounting.
        buddy_.free(*hfn);
        ptm_throw("host OOM while allocating host page-table nodes "
                  "(vm %d, gfn %llu)", vm.id(),
                  static_cast<unsigned long long>(gfn));
    }

    memory_.set_use(*hfn, 1, mem::FrameUse::Data, vm.id());
    vm.note_backed();
    stats_.pages_backed.inc();

    if (trace_ != nullptr)
        trace_->event_now("host_fault", "hypervisor", costs_.vmexit_fault,
                          {{"vm", static_cast<std::uint64_t>(vm.id())},
                           {"gfn", gfn},
                           {"hfn", *hfn}});

    return {.ok = true, .frame = *hfn, .cycles = costs_.vmexit_fault};
}

void
HostKernel::register_stats(obs::StatRegistry &registry,
                           const std::string &prefix)
{
    registry.counter(prefix + ".kernel.faults_handled",
                     &stats_.faults_handled);
    registry.counter(prefix + ".kernel.pages_backed",
                     &stats_.pages_backed);
    registry.counter(prefix + ".kernel.pages_unbacked",
                     &stats_.pages_unbacked);
    registry.counter(prefix + ".kernel.frames_repossessed",
                     &stats_.frames_repossessed);
    registry.counter(prefix + ".kernel.vms_destroyed",
                     &stats_.vms_destroyed);
    buddy_.register_stats(registry, prefix + ".buddy");
}

}  // namespace ptm::host
