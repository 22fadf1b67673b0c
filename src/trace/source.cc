#include "trace/source.hh"

#include <algorithm>

#include "trace/replay.hh"
#include "util/logging.hh"

namespace trrip::trace {

TraceEventSource::TraceEventSource(
    std::shared_ptr<const TraceIndex> index) :
    index_(std::move(index)),
    blocks_(index_->blocks.data()),
    events_(index_->lap.events.data()),
    data_(index_->lap.data.data()),
    numEvents_(index_->lap.events.size())
{
    panic_if(numEvents_ == 0, "trace '", index_->path,
             "': index holds no decoded lap");
}

TraceEventSource::TraceEventSource(const std::string &path) :
    TraceEventSource(
        std::make_shared<const TraceIndex>(buildTraceIndex(path)))
{}

std::span<const TraceBlockInfo>
TraceEventSource::blocks() const
{
    const std::vector<TraceBlockInfo> &all = index_->blocks;
    if (passes_ > 0)
        return all;
    // Ids are dense in first-appearance order, so the blocks seen so
    // far are exactly the ids up to the largest one emitted.
    std::size_t seen = 0;
    for (std::size_t k = 0; k < pos_; ++k)
        seen = std::max<std::size_t>(seen, events_[k].bb + 1);
    return std::span<const TraceBlockInfo>(all).first(seen);
}

void
TraceEventSource::emit(BBEvent &ev)
{
    const LapEvent &e = events_[pos_];
    if (++pos_ == numEvents_) {
        pos_ = 0;
        ++passes_;
    }
    const Addr vaddr = blocks_[e.bb].addr;
    ev.bb = e.bb;
    ev.vaddr = vaddr;
    ev.instrs = e.instrs;
    ev.bytes = e.bytes;
    ev.numData = e.numData;
    ev.fdipMispredict = false;
    ev.hasBranch = (e.flags & kLapHasBranch) != 0;
    if (ev.hasBranch) {
        ev.branch = BranchInfo{};
        ev.branch.pc = vaddr + e.branchPcOffset;
        // pos_ already names the successor (event 0 after a wrap).
        ev.branch.target = blocks_[events_[pos_].bb].addr;
        ev.branch.taken = (e.flags & kLapTaken) != 0;
        ev.branch.conditional = (e.flags & kLapConditional) != 0;
        ev.branch.isCall = (e.flags & kLapCall) != 0;
        ev.branch.isReturn = (e.flags & kLapReturn) != 0;
        ev.branch.isIndirect = (e.flags & kLapIndirect) != 0;
    }
    const LapAccess *src = data_ + e.dataBegin;
    for (std::uint8_t i = 0; i < e.numData; ++i) {
        DataAccessEvent &d = ev.data[i];
        d.vaddr = src[i].vaddr;
        d.pc = vaddr + src[i].pcOffset;
        d.isStore = src[i].isStore;
        d.dependent = false;
    }
}

void
TraceEventSource::produce(BBEvent *ring, std::uint32_t mask,
                          std::uint32_t pos, std::uint32_t count)
{
    for (std::uint32_t k = 0; k < count; ++k)
        emit(ring[(pos + k) & mask]);
}

} // namespace trrip::trace
