/**
 * @file
 * TraceEventSource: replays an instruction trace through the batched
 * BBEventSource contract, so CoreModel, the golden harness and the
 * worker pool consume traces exactly like Executor-generated proxy
 * streams.
 *
 * Basic blocks are reconstructed from the flat record stream once,
 * by the buildTraceIndex() pre-pass (trace/replay.hh), which stores
 * one decoded lap in the TraceIndex.  A block closes at:
 *  - an explicit branch record (kind recovered from the register
 *    patterns, target from the next record's ip -- the ChampSim
 *    one-record-lookahead convention);
 *  - an ip discontinuity between consecutive non-branch records
 *    (sampled traces), emitted as an implicit taken direct jump;
 *  - the BBEvent::data capacity (kBBEventDataSlots): the block is
 *    split *before* the instruction that would overflow, with a pure
 *    fall-through seam (hasBranch = false), so no event ever drops a
 *    data access;
 *  - a maximum block length (kMaxBlockInstrs), split the same way;
 *  - the end of the trace: the stream is infinite per the
 *    BBEventSource contract, so the trace wraps to its first record
 *    through an implicit taken jump, and passes() counts completed
 *    laps.
 *
 * Block ids are assigned in order of first appearance of the block's
 * start ip.  The end of the trace always closes an event and the next
 * lap restarts at record 0 with the same ids, so the event stream is
 * periodic in the lap: replay only expands the decoded lap's compact
 * events into the ring, and every source over one index -- any cell,
 * any lane, any thread -- reads the same read-only lap.
 */

#ifndef TRRIP_TRACE_SOURCE_HH
#define TRRIP_TRACE_SOURCE_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "workloads/executor.hh"

namespace trrip::trace {

struct TraceIndex;

/** Longest reconstructed block (interval-model granularity). */
constexpr std::uint32_t kMaxBlockInstrs = 64;
/** Longest plausible encoded instruction; larger ip deltas between
 *  consecutive records are treated as discontinuities. */
constexpr std::uint64_t kMaxInstrBytes = 16;

/** One reconstructed static block (first-appearance snapshot). */
struct TraceBlockInfo
{
    Addr addr = 0;
    std::uint32_t instrs = 0;
    std::uint32_t bytes = 0;
};

/** @name LapEvent::flags bits */
/** @{ */
constexpr std::uint8_t kLapHasBranch = 1u << 0;
constexpr std::uint8_t kLapTaken = 1u << 1;
constexpr std::uint8_t kLapConditional = 1u << 2;
constexpr std::uint8_t kLapCall = 1u << 3;
constexpr std::uint8_t kLapReturn = 1u << 4;
constexpr std::uint8_t kLapIndirect = 1u << 5;
/** @} */

/**
 * One block event of a decoded lap, minus what replay derives: the
 * event's vaddr is its block's start address (block ids are keyed on
 * it), the branch target is always the next event's vaddr (a taken
 * branch lands on the next record; the lap's last event jumps to
 * event 0), and every pc inside an event is a short offset from its
 * vaddr (instructions within an event are contiguous, at most
 * kMaxInstrBytes apart).
 */
struct LapEvent
{
    std::uint32_t bb = 0;
    std::uint32_t dataBegin = 0;       //!< First access in TraceLap::data.
    std::uint16_t bytes = 0;
    std::uint16_t branchPcOffset = 0;  //!< branch.pc - vaddr.
    std::uint8_t instrs = 0;
    std::uint8_t numData = 0;
    std::uint8_t flags = 0;            //!< kLap* bits.
};
static_assert(sizeof(LapEvent) == 16);
static_assert(kMaxBlockInstrs <= 0xff &&
              kMaxBlockInstrs * kMaxInstrBytes <= 0xffff,
              "LapEvent's narrow fields must hold any event");

/** One data access of a decoded lap (always independent). */
struct LapAccess
{
    Addr vaddr = 0;
    std::uint16_t pcOffset = 0;  //!< pc - the event's vaddr.
    bool isStore = false;
};
static_assert(sizeof(LapAccess) == 16);

/** One decoded lap: the trace's whole event stream, read-only. */
struct TraceLap
{
    std::vector<LapEvent> events;
    std::vector<LapAccess> data;

    /** Bytes the decoded events and accesses occupy. */
    std::size_t
    bytes() const
    {
        return events.size() * sizeof(LapEvent) +
               data.size() * sizeof(LapAccess);
    }
};

/** Infinite, deterministic event stream over one trace's lap. */
class TraceEventSource final : public BBEventSource
{
  public:
    /** Replays @p index's decoded lap; the index may be shared. */
    explicit TraceEventSource(std::shared_ptr<const TraceIndex> index);

    /** Builds a private index first; throws SimError(TraceCorrupt)
     *  on a missing, corrupt or empty file -- a contained per-cell
     *  failure, not a process abort. */
    explicit TraceEventSource(const std::string &path);

    /** Emit the next block event (the stream never ends). */
    void next(BBEvent &ev) { emit(ev); }

    /** Batched emission into a caller-owned ring (BBEventSource). */
    void produce(BBEvent *ring, std::uint32_t mask, std::uint32_t pos,
                 std::uint32_t count) override;

    /** Completed laps over the trace. */
    std::uint64_t passes() const { return passes_; }

    /** Blocks discovered so far, indexed by block id. */
    std::span<const TraceBlockInfo> blocks() const;

  private:
    void emit(BBEvent &ev);

    std::shared_ptr<const TraceIndex> index_;
    const TraceBlockInfo *blocks_ = nullptr;
    const LapEvent *events_ = nullptr;
    const LapAccess *data_ = nullptr;
    std::size_t numEvents_ = 0;
    std::size_t pos_ = 0;         //!< Next event of the lap.
    std::uint64_t passes_ = 0;
};

} // namespace trrip::trace

#endif // TRRIP_TRACE_SOURCE_HH
