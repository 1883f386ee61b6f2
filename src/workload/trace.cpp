#include "workload/trace.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"
#include "workload/catalog.hpp"

namespace ptm::workload {

namespace ptt {

void
put_varint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

namespace {

std::uint64_t
get_varint(const std::uint8_t *data, std::size_t len, std::size_t &offset)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        if (offset >= len)
            ptm_fatal("trace stream truncated mid-varint");
        std::uint8_t byte = data[offset++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
        shift += 7;
        if (shift >= 64)
            ptm_fatal("trace varint overflows 64 bits");
    }
}

}  // namespace
}  // namespace ptt

// ---- StreamEncoder -----------------------------------------------------

void
StreamEncoder::op(const MemOp &op)
{
    bytes_.push_back(op.write ? ptt::kOpWrite : ptt::kOpRead);
    ptt::put_varint(bytes_,
                    ptt::zigzag(static_cast<std::int64_t>(op.gva) -
                                static_cast<std::int64_t>(prev_gva_)));
    prev_gva_ = op.gva;
}

void
StreamEncoder::mmap(Addr bytes, Addr base)
{
    bytes_.push_back(ptt::kMmap);
    ptt::put_varint(bytes_, bytes);
    ptt::put_varint(bytes_, base);
}

void
StreamEncoder::munmap(Addr base)
{
    bytes_.push_back(ptt::kMunmap);
    ptt::put_varint(bytes_, base);
}

void
StreamEncoder::free_page(Addr gva)
{
    bytes_.push_back(ptt::kFreePage);
    ptt::put_varint(bytes_, gva);
}

void
StreamEncoder::setup_end()
{
    bytes_.push_back(ptt::kSetupEnd);
}

void
StreamEncoder::init_end()
{
    bytes_.push_back(ptt::kInitEnd);
}

void
StreamEncoder::eos()
{
    bytes_.push_back(ptt::kEos);
}

// ---- decoding ----------------------------------------------------------

namespace {

/// Apply one interaction event (opcode already inspected, not consumed).
void
apply_interaction(const std::uint8_t *data, std::size_t len,
                  std::size_t &offset, WorkloadContext &ctx)
{
    std::uint8_t opcode = data[offset++];
    switch (opcode) {
      case ptt::kMmap: {
        Addr bytes = ptt::get_varint(data, len, offset);
        Addr recorded_base = ptt::get_varint(data, len, offset);
        Addr base = ctx.mmap(bytes);
        // Virtual address assignment is deterministic (eager cursor
        // allocation); a mismatch means the replay context diverged from
        // the recorded one and every later gva would be wrong.
        if (base != recorded_base) {
            ptm_fatal("trace replay mmap divergence: recorded base %llx, "
                      "got %llx",
                      static_cast<unsigned long long>(recorded_base),
                      static_cast<unsigned long long>(base));
        }
        return;
      }
      case ptt::kMunmap:
        ctx.munmap(ptt::get_varint(data, len, offset));
        return;
      case ptt::kFreePage:
        ctx.free_page(ptt::get_varint(data, len, offset));
        return;
      default:
        ptm_fatal("trace stream: unexpected opcode %u as interaction",
                  opcode);
    }
}

}  // namespace

void
decode_setup(const std::uint8_t *data, std::size_t len, DecodeState &state,
             WorkloadContext &ctx)
{
    while (state.offset < len) {
        std::uint8_t opcode = data[state.offset];
        if (opcode == ptt::kSetupEnd) {
            ++state.offset;
            state.setup_done = true;
            // A workload that starts outside its init phase records the
            // boundary immediately after setup.
            if (state.offset < len && data[state.offset] == ptt::kInitEnd) {
                ++state.offset;
                state.in_init = false;
            }
            return;
        }
        apply_interaction(data, len, state.offset, ctx);
    }
    ptm_fatal("trace stream ends before its setup section does");
}

unsigned
decode_ops(const std::uint8_t *data, std::size_t len, DecodeState &state,
           WorkloadContext &ctx, MemOp *out, unsigned max)
{
    unsigned produced = 0;
    while (produced < max && !state.finished && state.offset < len) {
        std::uint8_t opcode = data[state.offset];
        switch (opcode) {
          case ptt::kOpRead:
          case ptt::kOpWrite: {
            ++state.offset;
            std::uint64_t gva =
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(state.prev_gva) +
                    ptt::unzigzag(
                        ptt::get_varint(data, len, state.offset)));
            state.prev_gva = gva;
            out[produced].gva = gva;
            out[produced].write = (opcode & 0x01) != 0;
            ++produced;
            break;
          }
          case ptt::kMmap:
          case ptt::kMunmap:
          case ptt::kFreePage:
            // Batch-transparency contract: interactions may only happen
            // while the first op of a batch is generated. A later one
            // ends this batch; the next call applies it first.
            if (produced > 0)
                return produced;
            apply_interaction(data, len, state.offset, ctx);
            break;
          case ptt::kInitEnd:
            // Pure flag flip — consumed the moment it is reachable, so
            // in_init_phase() observes the boundary at the same op
            // position as the recorded run.
            ++state.offset;
            state.in_init = false;
            break;
          case ptt::kEos:
            ++state.offset;
            state.finished = true;
            break;
          default:
            ptm_fatal("trace stream: unknown opcode %u", opcode);
        }
    }
    // A kInitEnd sitting right past the last op of a full batch must be
    // taken now: the recorded run flipped the phase during the call that
    // produced that op, and the scheduler may look before the next call.
    if (!state.finished && state.offset < len &&
        data[state.offset] == ptt::kInitEnd) {
        ++state.offset;
        state.in_init = false;
    }
    return produced;
}

// ---- RecordingWorkload -------------------------------------------------

/// WorkloadContext proxy that encodes every interaction as it happens,
/// preserving stream order relative to ops.
class RecordingWorkload::RecordingContext final : public WorkloadContext {
  public:
    RecordingContext(WorkloadContext &real, StreamEncoder &enc)
        : real_(real), enc_(enc)
    {
    }

    Addr
    mmap(Addr bytes) override
    {
        Addr base = real_.mmap(bytes);
        enc_.mmap(bytes, base);
        return base;
    }

    void
    munmap(Addr base) override
    {
        enc_.munmap(base);
        real_.munmap(base);
    }

    void
    free_page(Addr gva) override
    {
        enc_.free_page(gva);
        real_.free_page(gva);
    }

  private:
    WorkloadContext &real_;
    StreamEncoder &enc_;
};

RecordingWorkload::RecordingWorkload(std::unique_ptr<Workload> inner)
    : inner_(std::move(inner))
{
    if (!inner_)
        ptm_fatal("RecordingWorkload needs a workload to wrap");
}

RecordingWorkload::~RecordingWorkload() = default;

void
RecordingWorkload::setup(WorkloadContext &ctx)
{
    RecordingContext rc(ctx, enc_);
    inner_->setup(rc);
    enc_.setup_end();
    note_init_phase();
}

void
RecordingWorkload::note_init_phase()
{
    if (!init_end_recorded_ && !inner_->in_init_phase()) {
        enc_.init_end();
        init_end_recorded_ = true;
    }
}

std::optional<MemOp>
RecordingWorkload::next(WorkloadContext &ctx)
{
    RecordingContext rc(ctx, enc_);
    std::optional<MemOp> op = inner_->next(rc);
    if (!op) {
        if (!eos_recorded_) {
            enc_.eos();
            eos_recorded_ = true;
        }
        return std::nullopt;
    }
    enc_.op(*op);
    note_init_phase();
    return op;
}

unsigned
RecordingWorkload::next_batch(WorkloadContext &ctx, MemOp *out,
                              unsigned max)
{
    RecordingContext rc(ctx, enc_);
    unsigned n = inner_->next_batch(rc, out, max);
    if (n == 0) {
        if (!eos_recorded_) {
            enc_.eos();
            eos_recorded_ = true;
        }
        return 0;
    }
    for (unsigned i = 0; i < n; ++i)
        enc_.op(out[i]);
    note_init_phase();
    return n;
}

// ---- StreamCache -------------------------------------------------------

namespace {

/// Context for detached generation: virtual address assignment is the
/// only context result generators consume, and it is deterministic (the
/// kernel's mmap is a pure VirtualAddressSpace cursor), so a private
/// address space reproduces the exact addresses of a live run — which
/// replay re-checks on every mmap.
class DetachedContext final : public WorkloadContext {
  public:
    Addr mmap(Addr bytes) override { return vas_.mmap(bytes); }
    void munmap(Addr base) override { vas_.munmap(base); }
    void
    free_page(Addr gva) override
    {
        (void)gva;  // physical backing does not exist here
    }

  private:
    vm::VirtualAddressSpace vas_;
};

/// Ops decoded per lock acquisition when a consumer outruns the stream.
constexpr unsigned kExtendOps = 32 * 1024;

}  // namespace

struct StreamCache::Entry {
    std::mutex mutex;
    RecordingWorkload rec;
    DetachedContext dctx;

    explicit Entry(std::unique_ptr<Workload> gen) : rec(std::move(gen))
    {
        rec.setup(dctx);
    }

    const std::vector<std::uint8_t> &
    bytes() const
    {
        return rec.encoder().bytes();
    }

    /// Generate (and encode) up to @p ops more operations. Must be
    /// called with the entry mutex held.
    void
    extend(unsigned ops)
    {
        MemOp buf[256];
        unsigned done = 0;
        while (done < ops) {
            // Generate op-at-a-time while the inner workload is in its
            // init phase: the recorder notes the phase flip after each
            // call, so this pins kInitEnd to its exact serial position.
            // (A 256-op recording batch would displace it by up to 255
            // ops — across many scheduler slices — and consumers would
            // observably leave the init phase late.)
            unsigned want = rec.in_init_phase() ? 1 : ops - done;
            if (want > 256)
                want = 256;
            unsigned n = rec.next_batch(dctx, buf, want);
            if (n == 0)
                return;  // finite workload ended; EOS is now encoded
            done += n;
        }
    }
};

namespace {

/// Replays (and lazily extends) a shared StreamCache entry.
class CachedStreamWorkload final : public Workload {
  public:
    explicit CachedStreamWorkload(std::shared_ptr<StreamCache::Entry> entry)
        : entry_(std::move(entry)), name_(entry_->rec.name())
    {
    }

    void
    setup(WorkloadContext &ctx) override
    {
        std::lock_guard<std::mutex> lock(entry_->mutex);
        const std::vector<std::uint8_t> &bytes = entry_->bytes();
        decode_setup(bytes.data(), bytes.size(), state_, ctx);
    }

    std::optional<MemOp>
    next(WorkloadContext &ctx) override
    {
        MemOp op;
        if (next_batch(ctx, &op, 1) == 0)
            return std::nullopt;
        return op;
    }

    unsigned
    next_batch(WorkloadContext &ctx, MemOp *out, unsigned max) override
    {
        std::lock_guard<std::mutex> lock(entry_->mutex);
        for (;;) {
            const std::vector<std::uint8_t> &bytes = entry_->bytes();
            unsigned n = decode_ops(bytes.data(), bytes.size(), state_,
                                    ctx, out, max);
            if (n > 0 || state_.finished)
                return n;
            // Ran dry ahead of every other consumer: grow the stream.
            // Progress is guaranteed — the generator either produces ops
            // or encodes its EOS, which the next decode consumes.
            entry_->extend(kExtendOps);
        }
    }

    bool in_init_phase() const override { return state_.in_init; }
    std::string name() const override { return name_; }

  private:
    std::shared_ptr<StreamCache::Entry> entry_;
    std::string name_;
    DecodeState state_;
};

}  // namespace

StreamCache &
StreamCache::instance()
{
    static StreamCache cache;
    return cache;
}

bool
StreamCache::enabled()
{
    return std::getenv("PTM_NO_STREAM_MEMO") == nullptr;
}

std::unique_ptr<Workload>
StreamCache::replay(const std::string &name,
                    const WorkloadOptions &options)
{
    // Exact key: hex-float scale avoids decimal rounding collisions.
    // Generator params are appended only when present, so every
    // pre-params key stays byte-identical.
    char base[256];
    std::snprintf(base, sizeof base, "%s|%llu|%a|%llu", name.c_str(),
                  static_cast<unsigned long long>(options.seed),
                  options.scale,
                  static_cast<unsigned long long>(options.total_ops));
    std::string key = base;
    for (const auto &[pkey, pvalue] : options.params.entries()) {
        char param[128];
        std::snprintf(param, sizeof param, "|%s=%a", pkey.c_str(),
                      pvalue);
        key += param;
    }

    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::shared_ptr<Entry> &slot = entries_[key];
        if (!slot)
            slot = std::make_shared<Entry>(make_workload(name, options));
        entry = slot;
    }
    return std::make_unique<CachedStreamWorkload>(std::move(entry));
}

void
StreamCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
}

}  // namespace ptm::workload
