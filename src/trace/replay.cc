#include "trace/replay.hh"

#include <algorithm>
#include <limits>
#include <map>

#include "core/policy_registry.hh"
#include "sw/temperature_classifier.hh"
#include "trace/reader.hh"
#include "util/flat_map.hh"
#include "util/logging.hh"

namespace trrip::trace {

bool
isTraceName(const std::string &name)
{
    return name.rfind(kTracePrefix, 0) == 0;
}

std::string
tracePathOf(const std::string &name)
{
    return isTraceName(name)
               ? name.substr(std::string(kTracePrefix).size())
               : std::string();
}

namespace {

/** Number of memory operands of @p in (one BBEvent data slot each). */
std::uint32_t
accessesOf(const TraceInstr &in)
{
    std::uint32_t n = 0;
    for (const std::uint64_t a : in.srcMem)
        n += a != 0;
    for (const std::uint64_t a : in.destMem)
        n += a != 0;
    return n;
}

/** The lap flag bits of an explicit branch record. */
std::uint8_t
branchFlags(const TraceInstr &in)
{
    const BranchKind kind = classifyBranch(in);
    std::uint8_t flags = kLapHasBranch;
    if (in.branchTaken != 0)
        flags |= kLapTaken;
    if (kind == BranchKind::Conditional)
        flags |= kLapConditional;
    if (kind == BranchKind::DirectCall ||
        kind == BranchKind::IndirectCall) {
        flags |= kLapCall;
    }
    if (kind == BranchKind::Return)
        flags |= kLapReturn;
    if (kind == BranchKind::IndirectJump ||
        kind == BranchKind::IndirectCall || kind == BranchKind::Return) {
        flags |= kLapIndirect;
    }
    return flags;
}

/**
 * The block rebuild (trace/source.hh): stream one lap of @p index's
 * file into index.lap, recording each event's block in the profile
 * as it closes.  Polls @p cancel once per kPollEvents events.
 */
void
decodeLap(TraceIndex &index, const CancelToken *cancel)
{
    TraceReader reader(index.path);
    if (!reader.valid())
        throw reader.makeError();
    if (reader.recordCount() == 0) {
        throw SimError(ErrorCategory::TraceCorrupt,
                       "trace '" + index.path + "': empty; an event "
                       "source needs at least one record");
    }
    index.recordCount = reader.recordCount();

    // The next record, or nullptr at the end of the lap.  A reader
    // can turn !valid() mid-stream (chunk corruption, trace_read
    // fault injection); that surfaces as a thrown SimError, not as
    // the end of the lap.  A record pointer only lives to the next
    // call (the zstd chunk buffer is reused), so every field of a
    // record is used before its successor is read.
    const auto advance = [&reader]() -> const TraceInstr * {
        const TraceInstr *rec = reader.next();
        if (!rec && !reader.valid())
            throw reader.makeError();
        return rec;
    };
    const TraceInstr *cur = advance();  // First unconsumed record.
    if (!cur)
        throw reader.makeError();

    FlatMap<std::uint32_t> ids(1024);  // Start ip -> block id.
    TraceLap &lap = index.lap;
    // Every event consumes at least one record, so the event array
    // never reallocates; the reserved tail past the lap's end is never
    // touched, so it costs address space, not resident memory.
    lap.events.reserve(index.recordCount);
    lap.data.reserve(index.recordCount);
    constexpr std::size_t kPollEvents = 4096;
    while (cur) {
        if (cancel && lap.events.size() % kPollEvents == 0 &&
            cancel->cancelled()) {
            throw SimError(ErrorCategory::Timeout,
                           "cell deadline exceeded");
        }
        // cur starts the block.
        auto [slot, inserted] = ids.tryEmplace(cur->ip);
        if (inserted) {
            *slot = static_cast<std::uint32_t>(index.blocks.size());
            index.blocks.push_back(TraceBlockInfo{cur->ip, 0, 0});
        }
        const std::uint32_t bb = *slot;
        const Addr start = cur->ip;
        const std::size_t dataBegin = lap.data.size();
        if (dataBegin > std::numeric_limits<std::uint32_t>::max()) {
            throw SimError(ErrorCategory::TraceCorrupt,
                           "trace '" + index.path +
                               "': too many data accesses to index");
        }
        std::uint32_t instrs = 0;
        std::uint32_t bytes = 0;
        std::uint32_t numData = 0;
        std::uint16_t branchPcOffset = 0;
        std::uint8_t flags = 0;

        while (true) {
            // Split BEFORE the instruction that would overflow the
            // data slots or the block-length cap: a pure fall-through
            // seam (no branch), so no access is ever dropped.
            // ChampSim caps an instruction at 4 loads + 2 stores, so
            // one always fits an empty event.
            const std::uint32_t accesses = accessesOf(*cur);
            if (instrs > 0 && (numData + accesses > kBBEventDataSlots ||
                               instrs >= kMaxBlockInstrs)) {
                break;
            }

            // Consume cur.
            const Addr ip = cur->ip;
            const auto offset = static_cast<std::uint16_t>(ip - start);
            for (const std::uint64_t a : cur->srcMem) {
                if (a != 0)
                    lap.data.push_back(LapAccess{a, offset, false});
            }
            for (const std::uint64_t a : cur->destMem) {
                if (a != 0)
                    lap.data.push_back(LapAccess{a, offset, true});
            }
            const std::uint8_t branch =
                cur->isBranch ? branchFlags(*cur) : 0;
            instrs += 1;
            numData += accesses;

            // One-record lookahead: the instruction's size, and where
            // a taken branch lands, come from the successor's ip.
            cur = advance();
            const std::uint64_t delta = cur ? cur->ip - ip : 0;
            const bool contiguous =
                cur && delta > 0 && delta <= kMaxInstrBytes;
            bytes += contiguous ? static_cast<std::uint32_t>(delta) : 4;

            if (branch) {
                // The wrap seam is always taken (to the trace start).
                flags = branch | (cur ? 0 : kLapTaken);
                branchPcOffset = offset;
                break;
            }
            if (!cur || !contiguous) {
                // End of trace or an ip discontinuity between
                // non-branch records (sampled trace): an implicit
                // taken direct jump.
                flags = kLapHasBranch | kLapTaken;
                branchPcOffset = offset;
                break;
            }
        }

        lap.events.push_back(LapEvent{
            bb, static_cast<std::uint32_t>(dataBegin),
            static_cast<std::uint16_t>(bytes), branchPcOffset,
            static_cast<std::uint8_t>(instrs),
            static_cast<std::uint8_t>(numData), flags});
        index.profile.record(bb);
        index.passInstructions += instrs;
        // First-appearance snapshot of the block's shape.
        TraceBlockInfo &info = index.blocks[bb];
        if (info.instrs == 0) {
            info.instrs = instrs;
            info.bytes = bytes;
        }
    }
}

} // namespace

TraceIndex
buildTraceIndex(const std::string &path, const CancelToken *cancel)
{
    TraceIndex index;
    index.path = path;
    decodeLap(index, cancel);

    // Pseudo-program: one single-block Handler function per block, so
    // classifyTemperature() sees the same (Program, Profile) shape a
    // proxy produces.  Handler (not External) keeps every block
    // inside the classifier's view.
    for (std::size_t i = 0; i < index.blocks.size(); ++i) {
        const std::uint32_t fn = index.program.addFunction(
            "bb" + std::to_string(i), FuncKind::Handler);
        BasicBlock bb;
        bb.instrs = std::max<std::uint32_t>(1, index.blocks[i].instrs);
        bb.data.clear();
        index.program.addBodyBlock(fn, std::move(bb));
    }
    return index;
}

namespace {

/**
 * The modeled image of a trace: contiguous same-temperature runs of
 * discovered blocks become sections (the artifacts/sinks view of the
 * "binary"); gaps between blocks are never claimed.
 */
ElfImage
traceImage(const TraceIndex &index, const Classification *cls)
{
    ElfImage image;
    image.pgo = cls != nullptr;
    image.blockAddr.reserve(index.blocks.size());
    image.funcEntry.reserve(index.blocks.size());
    for (const TraceBlockInfo &b : index.blocks) {
        image.blockAddr.push_back(b.addr);
        image.funcEntry.push_back(b.addr);
        image.binaryBytes += b.bytes;
    }
    if (index.blocks.empty())
        return image;

    std::vector<std::size_t> order(index.blocks.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return index.blocks[a].addr < index.blocks[b].addr;
              });

    const auto temp_of = [&](std::size_t id) {
        return cls ? cls->blockTemp[id] : Temperature::None;
    };
    ElfSection sec;
    sec.name = "trace";
    sec.vaddr = index.blocks[order[0]].addr;
    sec.size = index.blocks[order[0]].bytes;
    sec.temp = temp_of(order[0]);
    for (std::size_t k = 1; k < order.size(); ++k) {
        const TraceBlockInfo &b = index.blocks[order[k]];
        const Temperature t = temp_of(order[k]);
        // Overlapping blocks (splits re-discovering a tail) extend
        // the run; only a gap or a temperature change opens a new
        // section.
        if (b.addr <= sec.end() && t == sec.temp) {
            if (b.addr + b.bytes > sec.end())
                sec.size = b.addr + b.bytes - sec.vaddr;
        } else {
            image.sections.push_back(sec);
            sec.vaddr = b.addr;
            sec.size = b.bytes;
            sec.temp = t;
        }
    }
    image.sections.push_back(sec);
    image.imageBase = image.sections.front().vaddr;
    image.imageEnd = image.sections.back().end();
    return image;
}

/**
 * Stamp PTE temperature bits for every code page a block touches.
 * Same per-page accounting as sw/loader.cc (dominant temperature,
 * MixedPagePolicy on pages mixing temperatures), but pages are
 * enumerated from the blocks, not from the image span: a sparse
 * trace address space (shared libraries gigabytes apart) must not
 * turn loading into a walk over every page in between.
 */
LoadStats
mapTracePages(const TraceIndex &index, const Classification *cls,
              PageTable &pt, MixedPagePolicy policy)
{
    const std::uint64_t page = pt.pageSize();
    // Ordered map: deterministic stamping order for a given trace.
    std::map<Addr, std::array<std::uint64_t, 4>> byPage;
    for (std::size_t i = 0; i < index.blocks.size(); ++i) {
        const TraceBlockInfo &b = index.blocks[i];
        const Temperature t =
            cls ? cls->blockTemp[i] : Temperature::None;
        const Addr end = b.addr + std::max<std::uint32_t>(1, b.bytes);
        for (Addr p = b.addr & ~static_cast<Addr>(page - 1); p < end;
             p += page) {
            const Addr lo = std::max(p, b.addr);
            const Addr hi = std::min(p + page, end);
            byPage[p][encodeTemperature(t)] += hi - lo;
        }
    }

    LoadStats stats;
    for (const auto &[p, bytes] : byPage) {
        ++stats.codePages;
        unsigned temps_present = 0;
        unsigned dominant = 0;
        for (unsigned t = 0; t < 4; ++t) {
            if (bytes[t] > 0)
                ++temps_present;
            if (bytes[t] > bytes[dominant])
                dominant = t;
        }
        Temperature mark = decodeTemperature(
            static_cast<std::uint8_t>(dominant));
        if (temps_present > 1) {
            ++stats.mixedPages;
            if (policy == MixedPagePolicy::DisableMark)
                mark = Temperature::None;
        }
        pt.map(p, mark);
        ++stats.pagesByTemp[encodeTemperature(mark)];
    }
    return stats;
}

} // namespace

TraceRuntime
prepareTrace(const std::string &path, const SimOptions &options,
             std::shared_ptr<const TraceIndex> index)
{
    TraceRuntime rt;
    if (!index) {
        index = std::make_shared<const TraceIndex>(
            buildTraceIndex(path, options.cancel));
    }
    panic_if(index->path != path, "trace index for '", index->path,
             "' replayed against '", path, "'");
    rt.index = index;

    RunArtifacts &art = rt.art;
    // Aliasing share: the profile lives inside the shared index.
    art.profile = std::shared_ptr<const Profile>(index,
                                                 &index->profile);

    // (4)-(5) Classify block temperatures from the pre-pass profile
    // (there is no re-layout: the trace pins every address).
    const Classification *cls = nullptr;
    if (options.pgo) {
        art.classification = classifyTemperature(
            index->program, index->profile, options.classifier);
        cls = &art.classification;
    }
    art.image = traceImage(*index, cls);

    // (6)-(8) Stamp the PTE temperature attribute bits.
    rt.pageTable = std::make_unique<PageTable>(options.pageSize);
    art.loadStats = mapTracePages(*index, cls, *rt.pageTable,
                                  options.pagePolicy);
    return rt;
}

RunArtifacts
runTrace(const std::string &path, const std::string &policy_spec,
         const SimOptions &options,
         std::shared_ptr<const TraceIndex> index)
{
    SimOptions opts = options;
    opts.hier.l2Policy = PolicySpec(policy_spec);

    TraceRuntime rt = prepareTrace(path, opts, std::move(index));
    Lane lane(std::move(rt.art), std::move(rt.pageTable), nullptr,
              std::move(rt.index), opts);
    lane.art.result = lane.core->run(resolveBudget(opts));
    return std::move(lane.art);
}

} // namespace trrip::trace
