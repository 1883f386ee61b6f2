/**
 * @file
 * Op-stream codec tests: encode/decode round-trips, the recorder against
 * the serial generator, and StreamCache equivalence (the memoized stream
 * must be observably identical to the bare generator for every catalog
 * workload and across policy legs).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/experiment.hpp"
#include "workload/catalog.hpp"
#include "workload/trace.hpp"

namespace ptm::workload {
namespace {

/// Context that logs calls and hands out deterministic bases.
class LoggingContext final : public WorkloadContext {
  public:
    Addr
    mmap(Addr bytes) override
    {
        log.push_back("mmap:" + std::to_string(bytes));
        Addr base = next_base_;
        next_base_ += ((bytes + 0xfff) & ~0xfffULL);
        return base;
    }
    void
    munmap(Addr base) override
    {
        log.push_back("munmap:" + std::to_string(base));
    }
    void
    free_page(Addr gva) override
    {
        log.push_back("free:" + std::to_string(gva));
    }

    std::vector<std::string> log;

  private:
    Addr next_base_ = 0x7000'0000;
};

TEST(PttCodec, OpsRoundTripThroughZigzagDeltas)
{
    StreamEncoder enc;
    enc.setup_end();
    // Forward jumps, backward jumps, repeats — deltas of both signs.
    const MemOp ops[] = {{0x1000, false}, {0x1040, true},  {0x0800, false},
                         {0x0800, true},  {0xffff'0000, false}};
    for (const MemOp &op : ops)
        enc.op(op);
    enc.eos();

    DecodeState state;
    LoggingContext ctx;
    decode_setup(enc.bytes().data(), enc.bytes().size(), state, ctx);
    MemOp out[8];
    unsigned n = decode_ops(enc.bytes().data(), enc.bytes().size(), state,
                            ctx, out, 8);
    ASSERT_EQ(n, 5u);
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(out[i].gva, ops[i].gva) << i;
        EXPECT_EQ(out[i].write, ops[i].write) << i;
    }
    EXPECT_EQ(decode_ops(enc.bytes().data(), enc.bytes().size(), state,
                         ctx, out, 8),
              0u);
    EXPECT_TRUE(state.finished);
}

TEST(PttCodec, InteractionsApplyOnlyAtBatchHead)
{
    StreamEncoder enc;
    enc.mmap(0x2000, 0x7000'0000);
    enc.setup_end();
    enc.op({0x7000'0000, true});
    enc.op({0x7000'0040, false});
    enc.free_page(0x7000'0000);
    enc.op({0x7000'1000, true});
    enc.eos();

    DecodeState state;
    LoggingContext ctx;
    decode_setup(enc.bytes().data(), enc.bytes().size(), state, ctx);
    ASSERT_EQ(ctx.log.size(), 1u);
    EXPECT_EQ(ctx.log[0], "mmap:8192");

    MemOp out[8];
    // The free_page after op 2 must END the batch, not be applied mid-way.
    unsigned n = decode_ops(enc.bytes().data(), enc.bytes().size(), state,
                            ctx, out, 8);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(ctx.log.size(), 1u);
    // Next call applies it before producing the third op.
    n = decode_ops(enc.bytes().data(), enc.bytes().size(), state, ctx, out,
                   8);
    EXPECT_EQ(n, 1u);
    ASSERT_EQ(ctx.log.size(), 2u);
    EXPECT_EQ(ctx.log[1], "free:1879048192");
    EXPECT_EQ(out[0].gva, 0x7000'1000u);
}

TEST(PttCodec, InitEndOnBatchBoundaryIsConsumedEagerly)
{
    StreamEncoder enc;
    enc.setup_end();
    enc.op({0x1000, false});
    enc.init_end();
    enc.op({0x2000, false});
    enc.eos();

    DecodeState state;
    LoggingContext ctx;
    decode_setup(enc.bytes().data(), enc.bytes().size(), state, ctx);
    EXPECT_TRUE(state.in_init);
    MemOp out[1];
    // Batch ends exactly at the op that completed init: the marker right
    // past it must still flip the flag before the caller looks.
    ASSERT_EQ(decode_ops(enc.bytes().data(), enc.bytes().size(), state,
                         ctx, out, 1),
              1u);
    EXPECT_FALSE(state.in_init);
}

TEST(RecordingWorkloadTest, StreamMatchesSerialGeneratorExactly)
{
    WorkloadOptions options;
    options.scale = 0.02;
    options.seed = 5;
    options.total_ops = 2'000;

    // Serial reference run.
    LoggingContext ref_ctx;
    auto ref = make_workload("mcf", options);
    ref->setup(ref_ctx);
    std::vector<MemOp> ref_ops;
    while (auto op = ref->next(ref_ctx))
        ref_ops.push_back(*op);

    // Recorded (batched) run, then decode.
    LoggingContext rec_ctx;
    RecordingWorkload rec(make_workload("mcf", options));
    rec.setup(rec_ctx);
    MemOp buf[64];
    while (rec.next_batch(rec_ctx, buf, 64) != 0) {
    }

    DecodeState state;
    LoggingContext replay_ctx;
    const auto &bytes = rec.encoder().bytes();
    decode_setup(bytes.data(), bytes.size(), state, replay_ctx);
    std::vector<MemOp> replay_ops;
    unsigned n;
    while ((n = decode_ops(bytes.data(), bytes.size(), state, replay_ctx,
                           buf, 64)) != 0) {
        replay_ops.insert(replay_ops.end(), buf, buf + n);
    }
    EXPECT_TRUE(state.finished);

    ASSERT_EQ(replay_ops.size(), ref_ops.size());
    for (std::size_t i = 0; i < ref_ops.size(); ++i) {
        ASSERT_EQ(replay_ops[i].gva, ref_ops[i].gva) << "op " << i;
        ASSERT_EQ(replay_ops[i].write, ref_ops[i].write) << "op " << i;
    }
    EXPECT_EQ(replay_ctx.log, ref_ctx.log);
}

}  // namespace
}  // namespace ptm::workload

namespace ptm::sim {
namespace {

ScenarioConfig
tiny_config(const std::string &victim)
{
    // 0.05 is the smallest scale every catalog benchmark tolerates (gcc
    // overruns its region below that — a generator quirk).
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim(victim)
                                .with_scale(0.05)
                                .with_measure_ops(4'000)
                                .with_seed(13);
    config.platform.guest_frames = 16 * 1024;
    config.platform.host_frames = 24 * 1024;
    return config;
}

/// Full simulated-state comparison (metrics + all stats + scalars).
void
expect_same_result(const ScenarioResult &a, const ScenarioResult &b,
                   const std::string &label)
{
    EXPECT_EQ(a.victim_cycles, b.victim_cycles) << label;
    EXPECT_EQ(a.victim_ops, b.victim_ops) << label;
    EXPECT_EQ(a.victim_rss_pages, b.victim_rss_pages) << label;
    EXPECT_EQ(a.total_ops, b.total_ops) << label;
    const auto &am = a.metrics.values();
    const auto &bm = b.metrics.values();
    ASSERT_EQ(am.size(), bm.size()) << label;
    for (const auto &[name, value] : am) {
        auto it = bm.find(name);
        ASSERT_NE(it, bm.end()) << label << ": " << name;
        EXPECT_EQ(value, it->second) << label << ": " << name;
    }
    ASSERT_EQ(a.stats.size(), b.stats.size()) << label;
    for (std::size_t i = 0; i < a.stats.entries().size(); ++i) {
        const auto &ea = a.stats.entries()[i];
        const auto &eb = b.stats.entries()[i];
        ASSERT_EQ(ea.path, eb.path) << label;
        if (ea.is_histogram) {
            EXPECT_EQ(ea.histogram.count, eb.histogram.count)
                << label << ": " << ea.path;
            EXPECT_EQ(ea.histogram.sum, eb.histogram.sum)
                << label << ": " << ea.path;
        } else {
            EXPECT_EQ(ea.value, eb.value) << label << ": " << ea.path;
        }
    }
}

/// Runs its scenario with PTM_NO_STREAM_MEMO set: bare generators.
ScenarioResult
run_bare(const ScenarioConfig &config)
{
    struct MemoOff {
        MemoOff() { ::setenv("PTM_NO_STREAM_MEMO", "1", 1); }
        ~MemoOff() { ::unsetenv("PTM_NO_STREAM_MEMO"); }
    } memo_off;
    EXPECT_FALSE(workload::StreamCache::enabled());
    return run_scenario(config);
}

TEST(StreamCacheTest, MemoizedStreamsMatchBareGenerators)
{
    ScenarioConfig config = tiny_config("cc").with_corunner("stress-ng", 1);
    ScenarioResult bare = run_bare(config);
    ASSERT_TRUE(workload::StreamCache::enabled());
    // Leg 2 populates the cache; leg 3 replays from it.
    ScenarioResult first = run_scenario(config);
    ScenarioResult memoized = run_scenario(config);
    expect_same_result(bare, first, "cache-fill");
    expect_same_result(bare, memoized, "cache-replay");
}

TEST(StreamCacheTest, EveryCatalogBenchmarkMatchesBareGenerator)
{
    for (const std::string &victim : workload::benchmark_names()) {
        SCOPED_TRACE(victim);
        ScenarioConfig config = tiny_config(victim);
        ScenarioResult bare = run_bare(config);
        ScenarioResult memoized = run_scenario(config);
        EXPECT_GT(bare.victim_ops, 0u);
        expect_same_result(bare, memoized, victim);
    }
}

TEST(StreamCacheTest, MultiJobStreamsMatchAcrossPolicyLegs)
{
    // The buddy leg fills the memo and the PTEMagnet leg replays it: op
    // streams are policy-independent by construction, which is what
    // lets every leg of a sweep share one stream.
    workload::StreamCache::instance().clear();
    ScenarioConfig config = tiny_config("pagerank")
                                .with_corunner("stress-ng", 2)
                                .with_warmup_ops(2'000);
    ScenarioResult buddy_bare = run_bare(config);
    ScenarioResult buddy_memo = run_scenario(config);
    expect_same_result(buddy_bare, buddy_memo, "buddy-leg");

    ScenarioConfig magnet = ScenarioConfig(config).with_ptemagnet();
    ScenarioResult magnet_bare = run_bare(magnet);
    ScenarioResult magnet_memo = run_scenario(magnet);
    expect_same_result(magnet_bare, magnet_memo, "magnet-leg");
}

TEST(RetiredTraceFields, RunScenarioRejectsEachNonDefaultValue)
{
    // Still declared (the benchmark's leg runner reads them) but backed
    // by no feature: setting one must fail loudly, never be ignored.
    const ScenarioConfig base = tiny_config("pagerank");
    ScenarioConfig record = base;
    record.trace_record = "run.ptt";
    EXPECT_THROW(run_scenario(record), SimError);
    ScenarioConfig replay = base;
    replay.trace_replay = "run.ptt";
    EXPECT_THROW(run_scenario(replay), SimError);
    ScenarioConfig fast_forward = base;
    fast_forward.replay_fast_forward = true;
    EXPECT_THROW(run_scenario(fast_forward), SimError);
    ScenarioConfig cold = base;
    cold.cold_measurement = true;
    EXPECT_THROW(run_scenario(cold), SimError);
}

}  // namespace
}  // namespace ptm::sim
