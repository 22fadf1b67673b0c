/**
 * @file
 * Trace subsystem tests: container writer/reader round trips,
 * corrupt-file rejection, the BBEvent data-slot block-split seam, the
 * batched produce() contract, wrap/pass accounting, replay of the
 * index's decoded lap against a reference decode of the records, one
 * index shared by many readers, the mini-trace pack's byte-identical
 * regeneration, and the trace:<path> workload scheme through the
 * experiment layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "exp/profile_cache.hh"
#include "exp/runner.hh"
#include "sim/golden.hh"
#include "sim/multicore.hh"
#include "trace/format.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/source.hh"
#include "trace/writer.hh"
#include "util/flat_map.hh"

namespace trrip::trace {
namespace {

/** Fresh scratch directory under the test's cwd. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::string("trace_test_tmp/") +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    std::string path(const std::string &leaf) const
    {
        return dir_ + "/" + leaf;
    }

    std::string dir_;
};

TraceInstr
plainAt(std::uint64_t ip, std::uint64_t loadAddr = 0)
{
    TraceInstr in;
    in.ip = ip;
    in.destRegs[0] = 1;
    in.srcRegs[0] = 2;
    in.srcMem[0] = loadAddr;
    return in;
}

std::vector<char>
fileBytes(const std::string &p)
{
    std::ifstream f(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(f),
                             std::istreambuf_iterator<char>());
}

TEST_F(TraceTest, RoundTripPreservesEveryRecord)
{
    // A record count that is NOT a multiple of the chunk size, so the
    // tail chunk is short.
    constexpr std::uint64_t kRecords = 8 * 3 + 5;
    const std::string file = path("roundtrip.trrtrc");
    {
        TraceWriter writer(file, TraceCodec::Raw, 8);
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            TraceInstr in = plainAt(0x1000 + i * 4, 0x9000 + i * 8);
            in.isBranch = i % 7 == 0;
            in.branchTaken = i % 14 == 0;
            in.destMem[1] = i;
            writer.append(in);
        }
        writer.finish();
        ASSERT_TRUE(writer.ok()) << writer.error();
        EXPECT_EQ(writer.recordsWritten(), kRecords);
    }

    TraceReader reader(file);
    ASSERT_TRUE(reader.valid()) << reader.error();
    EXPECT_EQ(reader.recordCount(), kRecords);
    EXPECT_EQ(reader.chunkCount(), 4u);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        const TraceInstr *rec = reader.next();
        ASSERT_NE(rec, nullptr) << "record " << i;
        EXPECT_EQ(rec->ip, 0x1000 + i * 4);
        EXPECT_EQ(rec->srcMem[0], 0x9000 + i * 8);
        EXPECT_EQ(rec->destMem[1], i);
        EXPECT_EQ(rec->isBranch, i % 7 == 0);
    }
    EXPECT_EQ(reader.next(), nullptr);

    // reset() rewinds to the first record.
    reader.reset();
    const TraceInstr *again = reader.next();
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->ip, 0x1000u);
}

TEST_F(TraceTest, EmptyTraceIsValidAndEndsImmediately)
{
    const std::string file = path("empty.trrtrc");
    {
        TraceWriter writer(file);
        writer.finish();
        ASSERT_TRUE(writer.ok()) << writer.error();
    }
    TraceReader reader(file);
    ASSERT_TRUE(reader.valid()) << reader.error();
    EXPECT_EQ(reader.recordCount(), 0u);
    EXPECT_EQ(reader.chunkCount(), 0u);
    EXPECT_EQ(reader.next(), nullptr);
}

TEST_F(TraceTest, MissingFileIsRejected)
{
    TraceReader reader(path("no_such_file.trrtrc"));
    EXPECT_FALSE(reader.valid());
    EXPECT_NE(reader.error().find("cannot open"), std::string::npos)
        << reader.error();
}

TEST_F(TraceTest, TruncatedHeaderIsRejected)
{
    const std::string file = path("truncated.trrtrc");
    std::ofstream(file, std::ios::binary) << "trriptrc";
    TraceReader reader(file);
    EXPECT_FALSE(reader.valid());
    EXPECT_NE(reader.error().find("truncated header"),
              std::string::npos)
        << reader.error();
}

TEST_F(TraceTest, BadMagicIsRejected)
{
    const std::string file = path("badmagic.trrtrc");
    std::ofstream(file, std::ios::binary)
        << std::string(sizeof(TraceHeader), '\0');
    TraceReader reader(file);
    EXPECT_FALSE(reader.valid());
    EXPECT_NE(reader.error().find("bad magic"), std::string::npos)
        << reader.error();
}

TEST_F(TraceTest, CorruptDirectoryAndPayloadAreRejected)
{
    const std::string file = path("corrupt.trrtrc");
    {
        TraceWriter writer(file, TraceCodec::Raw, 8);
        for (int i = 0; i < 20; ++i)
            writer.append(plainAt(0x1000 + i * 4));
        writer.finish();
        ASSERT_TRUE(writer.ok()) << writer.error();
    }
    const std::vector<char> good = fileBytes(file);

    // Directory pushed past the end of the file.
    {
        std::vector<char> bytes = good;
        const std::uint64_t bogus = bytes.size() + 64;
        std::memcpy(bytes.data() + offsetof(TraceHeader, dirOffset),
                    &bogus, sizeof(bogus));
        std::ofstream(file, std::ios::binary)
            .write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
        TraceReader reader(file);
        EXPECT_FALSE(reader.valid());
        EXPECT_NE(reader.error().find("directory out of bounds"),
                  std::string::npos)
            << reader.error();
    }

    // Record count inflated past what the chunks hold.
    {
        std::vector<char> bytes = good;
        const std::uint64_t bogus = 100000;
        std::memcpy(bytes.data() + offsetof(TraceHeader, recordCount),
                    &bogus, sizeof(bogus));
        std::ofstream(file, std::ios::binary)
            .write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
        TraceReader reader(file);
        EXPECT_FALSE(reader.valid());
    }

    // Payload truncated mid-chunk.
    {
        std::vector<char> bytes = good;
        bytes.resize(bytes.size() / 2);
        std::ofstream(file, std::ios::binary)
            .write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
        TraceReader reader(file);
        EXPECT_FALSE(reader.valid());
    }
}

TEST_F(TraceTest, WriterOutputIsBytePure)
{
    const std::string a = path("a.trrtrc");
    const std::string b = path("b.trrtrc");
    for (const std::string &file : {a, b}) {
        TraceWriter writer(file, TraceCodec::Raw, 16);
        for (int i = 0; i < 100; ++i)
            writer.append(plainAt(0x4000 + i * 4, 0x8000 + i));
        writer.finish();
        ASSERT_TRUE(writer.ok()) << writer.error();
    }
    EXPECT_EQ(fileBytes(a), fileBytes(b));
}

/**
 * Write a gather block: @p gather consecutive instructions with 4
 * loads each, then a direct jump back to the start.
 */
void
writeGatherTrace(const std::string &file, int gather)
{
    TraceWriter writer(file, TraceCodec::Raw, 8);
    std::uint64_t ip = 0x1000;
    for (int i = 0; i < gather; ++i) {
        TraceInstr in;
        in.ip = ip;
        in.destRegs[0] = 1;
        for (int s = 0; s < 4; ++s)
            in.srcMem[s] = 0x9000 + (i * 4 + s) * 8;
        writer.append(in);
        ip += 4;
    }
    TraceInstr jump;
    jump.ip = ip;
    jump.isBranch = 1;
    jump.branchTaken = 1;
    jump.destRegs[0] = kRegInstructionPointer;
    writer.append(jump);
    writer.finish();
    EXPECT_TRUE(writer.ok()) << writer.error();
}

/**
 * Write a short trace with one branch of every kind, an unrecorded
 * jump (an ip discontinuity) and a not-taken conditional branch as
 * its last record, so the lap's wrap seam ends on a branch that the
 * trace itself did not take.
 */
void
writeBranchMixTrace(const std::string &file)
{
    TraceWriter writer(file, TraceCodec::Raw, 4);
    const auto branch = [&](std::uint64_t ip, bool taken,
                            std::vector<std::uint8_t> dest,
                            std::vector<std::uint8_t> src) {
        TraceInstr in;
        in.ip = ip;
        in.isBranch = 1;
        in.branchTaken = taken;
        std::copy(dest.begin(), dest.end(), in.destRegs);
        std::copy(src.begin(), src.end(), in.srcRegs);
        writer.append(in);
    };
    const std::uint8_t ip = kRegInstructionPointer;
    const std::uint8_t sp = kRegStackPointer;
    writer.append(plainAt(0x1000, 0x9000));
    writer.append(plainAt(0x1004));
    branch(0x1008, true, {ip}, {kRegFlags});         // Conditional.
    TraceInstr store = plainAt(0x2000);
    store.destMem[0] = 0xa000;
    writer.append(store);
    branch(0x2004, true, {ip, sp}, {ip, sp});         // Direct call.
    writer.append(plainAt(0x3000, 0x9008));
    branch(0x3004, true, {ip, sp}, {sp});             // Return.
    writer.append(plainAt(0x2008));
    writer.append(plainAt(0x5000));                   // Unrecorded jump.
    branch(0x5004, true, {ip}, {5});                  // Indirect jump.
    branch(0x6000, false, {ip}, {kRegFlags});         // Not taken, last.
    writer.finish();
    EXPECT_TRUE(writer.ok()) << writer.error();
}

TEST_F(TraceTest, BlockWithMoreAccessesThanEventSlotsIsSplit)
{
    // 5 x 4 = 20 accesses in one static block: more than
    // kBBEventDataSlots, so the source must emit two events with a
    // pure fall-through seam and drop nothing.
    const std::string file = path("gather.trrtrc");
    writeGatherTrace(file, 5);
    TraceEventSource source(file);

    BBEvent first;
    source.next(first);
    EXPECT_EQ(first.vaddr, 0x1000u);
    EXPECT_EQ(first.instrs, 3u);  // 3 x 4 fits; a 4th would overflow.
    EXPECT_EQ(first.numData, 12u);
    EXPECT_FALSE(first.hasBranch) << "split seam must fall through";

    BBEvent second;
    source.next(second);
    EXPECT_EQ(second.vaddr, 0x100cu);
    EXPECT_EQ(second.instrs, 3u);  // 2 gathers + the jump.
    EXPECT_EQ(second.numData, 8u);
    EXPECT_TRUE(second.hasBranch);
    EXPECT_TRUE(second.branch.taken);

    // Every access survived, in program order, with correct pcs.
    std::vector<std::uint64_t> seen;
    for (int i = 0; i < first.numData; ++i)
        seen.push_back(first.data[i].vaddr);
    for (int i = 0; i < second.numData; ++i)
        seen.push_back(second.data[i].vaddr);
    ASSERT_EQ(seen.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(seen[i], 0x9000 + i * 8u);

    // The seam block got its own id; ids are stable across laps.
    EXPECT_NE(first.bb, second.bb);
    BBEvent lap2first;
    source.next(lap2first);
    EXPECT_EQ(lap2first.bb, first.bb);
    EXPECT_EQ(source.passes(), 1u);
}

/**
 * Test-local reference for the block rebuild, written directly over
 * TraceReader: one event per call, re-reading the records on every
 * lap, so replay of the index's decoded lap is checked against the
 * records themselves rather than against another replay.
 */
class ReferenceDecoder
{
  public:
    explicit ReferenceDecoder(const std::string &file) : reader_(file)
    {
        const TraceInstr *first = reader_.valid() ? reader_.next()
                                                  : nullptr;
        if (!first)
            throw reader_.makeError();
        cur_ = *first;
        firstIp_ = cur_.ip;
    }

    void
    next(BBEvent &ev)
    {
        ev = BBEvent{};
        auto [slot, inserted] = ids_.tryEmplace(cur_.ip);
        if (inserted) {
            *slot = static_cast<std::uint32_t>(blocks_.size());
            blocks_.push_back(TraceBlockInfo{cur_.ip, 0, 0});
        }
        ev.bb = *slot;
        ev.vaddr = cur_.ip;
        while (true) {
            std::uint32_t accesses = 0;
            for (const std::uint64_t a : cur_.srcMem)
                accesses += a != 0;
            for (const std::uint64_t a : cur_.destMem)
                accesses += a != 0;
            if (ev.instrs > 0 &&
                (ev.numData + accesses > kBBEventDataSlots ||
                 ev.instrs >= kMaxBlockInstrs)) {
                break;
            }
            const TraceInstr in = cur_;
            const bool wrapped = advance();
            const std::uint64_t delta = cur_.ip - in.ip;
            const bool contiguous =
                !wrapped && delta > 0 && delta <= kMaxInstrBytes;
            ev.instrs += 1;
            ev.bytes += contiguous ? static_cast<std::uint32_t>(delta)
                                   : 4;
            const auto push = [&](std::uint64_t a, bool store) {
                DataAccessEvent &d = ev.data.at(ev.numData++);
                d.vaddr = a;
                d.pc = in.ip;
                d.isStore = store;
            };
            for (const std::uint64_t a : in.srcMem) {
                if (a != 0)
                    push(a, false);
            }
            for (const std::uint64_t a : in.destMem) {
                if (a != 0)
                    push(a, true);
            }
            if (in.isBranch || wrapped || !contiguous) {
                const BranchKind kind = classifyBranch(in);
                ev.hasBranch = true;
                ev.branch.pc = in.ip;
                ev.branch.target = wrapped ? firstIp_ : cur_.ip;
                ev.branch.taken =
                    wrapped || !in.isBranch || in.branchTaken != 0;
                ev.branch.conditional =
                    kind == BranchKind::Conditional;
                ev.branch.isCall = kind == BranchKind::DirectCall ||
                                   kind == BranchKind::IndirectCall;
                ev.branch.isReturn = kind == BranchKind::Return;
                ev.branch.isIndirect =
                    kind == BranchKind::IndirectJump ||
                    kind == BranchKind::IndirectCall ||
                    kind == BranchKind::Return;
                break;
            }
        }
        TraceBlockInfo &info = blocks_[ev.bb];
        if (info.instrs == 0) {
            info.instrs = ev.instrs;
            info.bytes = ev.bytes;
        }
    }

    std::uint64_t passes() const { return passes_; }
    const std::vector<TraceBlockInfo> &blocks() const { return blocks_; }

  private:
    /** Step cur_ to the next record; true when the trace wrapped. */
    bool
    advance()
    {
        if (const TraceInstr *rec = reader_.next()) {
            cur_ = *rec;
            return false;
        }
        ++passes_;
        reader_.reset();
        const TraceInstr *rec = reader_.next();
        if (!rec)
            throw reader_.makeError();
        cur_ = *rec;
        return true;
    }

    TraceReader reader_;
    TraceInstr cur_;
    Addr firstIp_ = 0;
    std::uint64_t passes_ = 0;
    FlatMap<std::uint32_t> ids_{64};
    std::vector<TraceBlockInfo> blocks_;
};

void
expectSameEvent(const BBEvent &got, const BBEvent &want,
                const std::string &where)
{
    ASSERT_EQ(got.bb, want.bb) << where;
    ASSERT_EQ(got.vaddr, want.vaddr) << where;
    ASSERT_EQ(got.instrs, want.instrs) << where;
    ASSERT_EQ(got.bytes, want.bytes) << where;
    ASSERT_EQ(got.fdipMispredict, false) << where;
    ASSERT_EQ(got.numData, want.numData) << where;
    for (std::uint8_t d = 0; d < got.numData; ++d) {
        ASSERT_EQ(got.data[d].vaddr, want.data[d].vaddr) << where;
        ASSERT_EQ(got.data[d].pc, want.data[d].pc) << where;
        ASSERT_EQ(got.data[d].isStore, want.data[d].isStore) << where;
        ASSERT_EQ(got.data[d].dependent, want.data[d].dependent)
            << where;
    }
    ASSERT_EQ(got.hasBranch, want.hasBranch) << where;
    if (!got.hasBranch)
        return;
    ASSERT_EQ(got.branch.pc, want.branch.pc) << where;
    ASSERT_EQ(got.branch.target, want.branch.target) << where;
    ASSERT_EQ(got.branch.taken, want.branch.taken) << where;
    ASSERT_EQ(got.branch.conditional, want.branch.conditional) << where;
    ASSERT_EQ(got.branch.isCall, want.branch.isCall) << where;
    ASSERT_EQ(got.branch.isReturn, want.branch.isReturn) << where;
    ASSERT_EQ(got.branch.isIndirect, want.branch.isIndirect) << where;
    ASSERT_EQ(got.branch.temp, want.branch.temp) << where;
}

void
expectSameBlocks(std::span<const TraceBlockInfo> got,
                 const std::vector<TraceBlockInfo> &want,
                 const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t b = 0; b < got.size(); ++b) {
        ASSERT_EQ(got[b].addr, want[b].addr) << where << " block " << b;
        ASSERT_EQ(got[b].instrs, want[b].instrs)
            << where << " block " << b;
        ASSERT_EQ(got[b].bytes, want[b].bytes)
            << where << " block " << b;
    }
}

TEST_F(TraceTest, ReplayMatchesAReferenceDecodeOverThreeLaps)
{
    const auto pack = generateMiniTracePack(path("pack"));
    const std::string gather = path("gather.trrtrc");
    writeGatherTrace(gather, 5);  // 20 accesses: the split seam.
    const std::string mix = path("branch_mix.trrtrc");
    writeBranchMixTrace(mix);

    constexpr std::uint64_t kLaps = 3;
    for (const std::string &file : {pack[0], pack[1], gather, mix}) {
        SCOPED_TRACE(file);
        // Event at a time: fields, passes() after every event and
        // blocks() mid-lap and at each lap boundary.
        {
            ReferenceDecoder ref(file);
            TraceEventSource source(file);
            std::uint64_t events = 0;
            while (ref.passes() < kLaps) {
                BBEvent want;
                ref.next(want);
                BBEvent got;
                source.next(got);
                const std::string where =
                    "event " + std::to_string(events++);
                expectSameEvent(got, want, where);
                ASSERT_EQ(source.passes(), ref.passes()) << where;
                if (events == 2 || source.passes() != ref.passes() ||
                    want.vaddr == ref.blocks()[0].addr) {
                    expectSameBlocks(source.blocks(), ref.blocks(),
                                     where);
                }
            }
            EXPECT_EQ(source.passes(), kLaps);
            expectSameBlocks(source.blocks(), ref.blocks(), "end");
        }
        // Batched through the ring contract with awkward sizes and
        // wrap-around positions.
        {
            ReferenceDecoder ref(file);
            TraceEventSource source(file);
            constexpr std::uint32_t kRing = 64;
            std::vector<BBEvent> ring(kRing);
            const std::uint32_t batches[] = {1, 7, 64, 13, 32, 5, 50};
            std::uint32_t pos = 0;
            for (std::size_t b = 0; ref.passes() < kLaps; ++b) {
                const std::uint32_t count = batches[b % 7];
                source.produce(ring.data(), kRing - 1, pos, count);
                for (std::uint32_t k = 0; k < count; ++k) {
                    BBEvent want;
                    ref.next(want);
                    expectSameEvent(ring[(pos + k) & (kRing - 1)], want,
                                    "batch " + std::to_string(b));
                }
                ASSERT_EQ(source.passes(), ref.passes());
                pos = (pos + count) & (kRing - 1);
            }
        }
    }
}

TEST_F(TraceTest, OneSharedIndexServesManyReaders)
{
    const auto pack = generateMiniTracePack(path("pack"));
    SimOptions options;
    options.maxInstructions = 120'000;
    const std::vector<std::string> bundle = {
        kTracePrefix + pack[0], kTracePrefix + pack[1],
        kTracePrefix + pack[0], kTracePrefix + pack[1]};

    // References: every run builds its own private index.
    const std::uint64_t wantTrace = goldenFingerprint(
        runTrace(pack[0], "TRRIP-2", options).result);
    MultiCoreOptions mo;
    mo.base = options;
    mo.quantum = 5'000;
    const std::uint64_t wantBundle =
        multiCoreFingerprint(runMultiCore(bundle, "TRRIP-2", mo));

    // One index per trace, read concurrently by two runTrace calls and
    // all four lanes of the bundle.
    const auto dispatch = std::make_shared<const TraceIndex>(
        buildTraceIndex(pack[0]));
    const auto streaming = std::make_shared<const TraceIndex>(
        buildTraceIndex(pack[1]));
    mo.traceIndexProvider = [&](const std::string &p) {
        return p == pack[0] ? dispatch : streaming;
    };
    std::uint64_t gotTrace = 0;
    std::uint64_t gotBundle = 0;
    std::string error;
    std::thread traceThread([&] {
        try {
            gotTrace = goldenFingerprint(
                runTrace(pack[0], "TRRIP-2", options, dispatch).result);
        } catch (const std::exception &e) {
            error = e.what();
        }
    });
    std::thread bundleThread([&] {
        try {
            gotBundle = multiCoreFingerprint(
                runMultiCore(bundle, "TRRIP-2", mo));
        } catch (const std::exception &e) {
            error = e.what();
        }
    });
    const std::uint64_t gotHere = goldenFingerprint(
        runTrace(pack[0], "TRRIP-2", options, dispatch).result);
    traceThread.join();
    bundleThread.join();
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(gotTrace, wantTrace);
    EXPECT_EQ(gotHere, wantTrace);
    EXPECT_EQ(gotBundle, wantBundle);
}

TEST_F(TraceTest, BadTraceFailsInTheIndexPrePass)
{
    const std::string missing = path("no_such_file.trrtrc");
    const std::string corrupt = path("corrupt.trrtrc");
    std::ofstream(corrupt, std::ios::binary) << "trriptrc";
    for (const std::string &file : {missing, corrupt}) {
        try {
            buildTraceIndex(file);
            ADD_FAILURE() << file << " indexed";
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::TraceCorrupt)
                << e.what();
        }
        EXPECT_THROW(TraceEventSource{file}, SimError);
    }

    // Through the experiment layer: contained trace_corrupt rows for
    // single-core cells and for a bundle lane alike.
    exp::ExperimentSpec spec;
    spec.name = "bad_traces";
    spec.workloads = {kTracePrefix + missing, kTracePrefix + corrupt,
                      "mc:gcc+" + (kTracePrefix + corrupt)};
    spec.policies = {"SRRIP"};
    spec.options.maxInstructions = 20'000;
    spec.options.profileInstructions = 10'000;
    spec.onError.mode = exp::OnError::Mode::Skip;
    exp::ExperimentRunner runner(1);
    const exp::ExperimentResults results = runner.run(spec, {});
    ASSERT_EQ(results.cells().size(), 3u);
    for (const exp::CellRecord &rec : results.cells()) {
        EXPECT_TRUE(rec.failed) << rec.workload;
        EXPECT_EQ(rec.errorCategory, "trace_corrupt") << rec.workload;
    }
}

TEST_F(TraceTest, MiniPackRegeneratesByteIdentically)
{
    const auto first = generateMiniTracePack(path("pack1"));
    const auto second = generateMiniTracePack(path("pack2"));
    ASSERT_EQ(first.size(), second.size());
    ASSERT_EQ(first.size(), miniTraceNames().size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        const auto a = fileBytes(first[i]);
        EXPECT_FALSE(a.empty());
        EXPECT_EQ(a, fileBytes(second[i])) << first[i];
    }
}

TEST_F(TraceTest, TraceIndexCountsOnePass)
{
    generateMiniTrace("streaming", path("streaming.trrtrc"));
    const TraceIndex index = buildTraceIndex(path("streaming.trrtrc"));
    EXPECT_GT(index.recordCount, 0u);
    // One record is one instruction, and a lap consumes each record
    // exactly once.
    EXPECT_EQ(index.passInstructions, index.recordCount);
    EXPECT_FALSE(index.blocks.empty());
    EXPECT_EQ(index.program.numBlocks(), index.blocks.size());
    // Every block the pre-pass saw has a nonzero count.
    std::uint64_t counted = 0;
    for (std::size_t b = 0; b < index.blocks.size(); ++b)
        counted += index.profile.count(static_cast<std::uint32_t>(b));
    EXPECT_GT(counted, 0u);
}

TEST_F(TraceTest, TraceNameSchemeRoundTrips)
{
    EXPECT_TRUE(isTraceName("trace:foo/bar.trrtrc"));
    EXPECT_FALSE(isTraceName("python"));
    EXPECT_FALSE(isTraceName("tracey"));
    EXPECT_EQ(tracePathOf("trace:foo/bar.trrtrc"), "foo/bar.trrtrc");
    EXPECT_EQ(tracePathOf("python"), "");
}

TEST_F(TraceTest, RunTraceIsDeterministicAcrossPolicies)
{
    generateMiniTrace("dispatch", path("dispatch.trrtrc"));
    SimOptions options;
    options.maxInstructions = 60'000;

    const RunArtifacts a =
        runTrace(path("dispatch.trrtrc"), "TRRIP-2", options);
    const RunArtifacts b =
        runTrace(path("dispatch.trrtrc"), "TRRIP-2", options);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.l2.demandMisses, b.result.l2.demandMisses);
    EXPECT_GE(a.result.instructions, options.maxInstructions);

    // A precomputed index must not change the outcome.
    const auto index = std::make_shared<const TraceIndex>(
        buildTraceIndex(path("dispatch.trrtrc")));
    const RunArtifacts c =
        runTrace(path("dispatch.trrtrc"), "TRRIP-2", options, index);
    EXPECT_EQ(a.result.cycles, c.result.cycles);

    // The policy axis must matter (LRU vs TRRIP differ on this
    // dispatcher-shaped trace).
    const RunArtifacts lru =
        runTrace(path("dispatch.trrtrc"), "LRU", options);
    EXPECT_EQ(lru.resolvedPolicies[2].second.find("LRU"), 0u)
        << lru.resolvedPolicies[2].second;
}

TEST_F(TraceTest, ExperimentGridMixesProxiesAndTraces)
{
    const auto pack = generateMiniTracePack(path("pack"));

    exp::ExperimentSpec spec;
    spec.name = "trace_mix";
    spec.workloads = {"python", kTracePrefix + pack[0],
                      kTracePrefix + pack[1]};
    spec.policies = {"LRU", "TRRIP-2"};
    spec.options.maxInstructions = 40'000;
    spec.options.profileInstructions = 10'000;

    exp::ExperimentRunner runner(2);
    const exp::ExperimentResults results = runner.run(spec);

    ASSERT_EQ(results.cells().size(), 6u);
    std::uint64_t traceCells = 0;
    for (const exp::CellRecord &rec : results.cells()) {
        EXPECT_TRUE(rec.valid);
        EXPECT_GT(rec.result().instructions, 0u);
        EXPECT_FALSE(rec.metrics.empty());
        if (isTraceName(rec.workload))
            ++traceCells;
    }
    EXPECT_EQ(traceCells, 4u);

    // The shared index was built once per trace, not once per cell.
    EXPECT_EQ(runner.profiles().collections(), 3u);  // python + 2.
    EXPECT_EQ(runner.profiles().hits(), 3u);

    // Same grid, serial runner: bit-identical cycles per cell.
    exp::ExperimentRunner serial(1);
    const exp::ExperimentResults serialResults = serial.run(spec);
    for (const std::string &w : spec.workloads) {
        for (const std::string &p : spec.policies) {
            EXPECT_EQ(serialResults.result(w, p).cycles,
                      results.result(w, p).cycles)
                << w << " x " << p;
        }
    }
}

TEST_F(TraceTest, ProfileCacheSharesTraceIndexes)
{
    generateMiniTrace("dispatch", path("dispatch.trrtrc"));
    exp::ProfileCache cache;
    const auto a = cache.traceIndex(path("dispatch.trrtrc"));
    const auto b = cache.traceIndex(path("dispatch.trrtrc"));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.collections(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    cache.clear();
    const auto c = cache.traceIndex(path("dispatch.trrtrc"));
    EXPECT_NE(a.get(), c.get());
}

} // namespace
} // namespace trrip::trace
