#include "replay.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/policy_registry.hh"
#include "measure.hh"
#include "sim/golden.hh"
#include "trace/replay.hh"
#include "workloads/builder.hh"
#include "workloads/proxies.hh"

namespace perfbench {

using namespace trrip;

CellPlan
planFor(const std::string &workload_label, const std::string &policy,
        const SimOptions &options)
{
    CellPlan plan;
    plan.cores = isMultiCoreName(workload_label)
                     ? multiCoreWorkloadsOf(workload_label)
                     : std::vector<std::string>{workload_label};
    plan.policy = policy;
    plan.options = options;
    plan.options.hier.l2Policy = PolicySpec(policy);
    return plan;
}

SimResult
CellResult::aggregate() const
{
    if (cores.size() == 1)
        return cores[0];
    MultiCoreResult mc;
    for (const SimResult &r : cores) {
        mc.cores.emplace_back();
        mc.cores.back().result = r;
    }
    mc.slc = slc;
    mc.dramReads = dramReads;
    mc.dramWrites = dramWrites;
    return aggregateMultiCore(mc);
}

std::uint64_t
CellResult::fingerprint() const
{
    return goldenFingerprint(aggregate());
}

namespace {

volatile std::uint64_t replaySink = 0;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** One private stack, or N private stacks over a shared SLC. */
class HierarchySet
{
  public:
    HierarchySet(const HierarchyParams &params, unsigned cores)
    {
        if (cores == 1) {
            single_ = std::make_unique<CacheHierarchy>(params);
        } else {
            MultiCoreParams mp;
            mp.hier = params;
            mp.numCores = cores;
            multi_ = std::make_unique<MultiCoreHierarchy>(mp);
        }
    }

    CacheHierarchy &
    core(unsigned c)
    {
        return single_ ? *single_ : multi_->core(c);
    }

    const Cache &slc() { return single_ ? single_->slc() : multi_->slc(); }
    const Dram &
    dram()
    {
        return single_ ? single_->dram() : multi_->dram();
    }

  private:
    std::unique_ptr<CacheHierarchy> single_;
    std::unique_ptr<MultiCoreHierarchy> multi_;
};

/**
 * The tracing decorator: times every produce() batch and counts the
 * events it passes through, leaving them unchanged.
 */
class TimedSource final : public BBEventSource
{
  public:
    explicit TimedSource(BBEventSource &inner) : inner_(inner) {}

    void
    produce(BBEvent *ring, std::uint32_t mask, std::uint32_t pos,
            std::uint32_t count) override
    {
        const auto t0 = Clock::now();
        inner_.produce(ring, mask, pos, count);
        const auto t1 = Clock::now();
        events_ += count;
        produceNs_ +=
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        selfNs_ += nsSince(t1);
    }

    double produceNs() const { return produceNs_; }
    double selfNs() const { return selfNs_; }
    std::uint64_t events() const { return events_; }

  private:
    BBEventSource &inner_;
    double produceNs_ = 0.0;
    double selfNs_ = 0.0;
    std::uint64_t events_ = 0;
};

/**
 * Step @p cores to their budgets the way the library does: one
 * step(budget) for a single core (runWorkload's core.run), else
 * runMultiCore's round-robin in its default quanta.  Adds each core's
 * step time to @p step_ns and returns the wall time of the whole loop.
 */
template <typename Core>
double
drive(const std::vector<Core *> &cores,
      const std::vector<InstCount> &budgets, std::vector<double> &step_ns)
{
    const InstCount quantum = MultiCoreOptions().quantum;
    const auto t0 = Clock::now();
    const auto timed_step = [&](std::size_t c, InstCount target) {
        const auto s0 = Clock::now();
        cores[c]->step(target);
        step_ns[c] += nsSince(s0);
    };
    if (cores.size() == 1) {
        timed_step(0, budgets[0]);
        return nsSince(t0);
    }
    while (true) {
        bool all_done = true;
        for (std::size_t c = 0; c < cores.size(); ++c) {
            if (cores[c]->retired() >= budgets[c])
                continue;
            all_done = false;
            timed_step(c, std::min<InstCount>(
                              budgets[c], cores[c]->retired() + quantum));
        }
        if (all_done)
            break;
    }
    return nsSince(t0);
}

// ------------------------------------------------------ call streams

struct MmuOp
{
    Addr vaddr;
    std::uint32_t core;
};

struct BranchOp
{
    BranchInfo info;
    std::uint32_t core;
    bool predict;  //!< predictAndUpdate; else wouldMispredict.
};

enum HierKind : std::uint8_t { kFetch, kData, kPrefetch, kPriority };

struct HierOp
{
    MemRequest req;
    Cycles now;
    std::uint32_t core;
    HierKind kind;
};

struct L2Op
{
    MemRequest req;
    std::uint32_t core;
};

/** The calls the shadow cores made since the last flush. */
struct Recorder
{
    std::vector<MmuOp> mmu;
    std::vector<BranchOp> branch;
    std::vector<HierOp> hier;
    std::vector<L2Op> l2;

    /** Chunk size: bounds memory at a few MB whatever the budget. */
    static constexpr std::size_t kChunk = 1u << 16;

    /** Consumes (and clears) the streams once a chunk is full. */
    std::function<void()> flush;

    Recorder()
    {
        // Room for a chunk plus the calls of the event that fills it.
        mmu.reserve(kChunk + 256);
        branch.reserve(kChunk + 256);
        hier.reserve(kChunk + 256);
        l2.reserve(kChunk + 256);
    }

    void
    flushIfFull()
    {
        if (mmu.size() >= kChunk || branch.size() >= kChunk ||
            hier.size() >= kChunk || l2.size() >= kChunk)
            flush();
    }

    void
    clear()
    {
        mmu.clear();
        branch.clear();
        hier.clear();
        l2.clear();
    }
};

/** Records one shadow core's L2 demand stream. */
class L2Tap final : public L2AccessObserver
{
  public:
    L2Tap(Recorder &rec, std::uint32_t core) : rec_(rec), core_(core) {}
    void onL2Access(const MemRequest &req) override
    { rec_.l2.push_back(L2Op{req, core_}); }

  private:
    Recorder &rec_;
    std::uint32_t core_;
};

/**
 * CoreModel's exact engine (stepLoop / processEvent / processData /
 * fdipPrefetch / finalize with no stub and no memo), restated call
 * for call so each layer call can be recorded with its arguments.
 * The timing arithmetic is copied expression for expression: the
 * cycle count feeds every hierarchy call, and the fingerprint check
 * against the runner holds only if it is bit-identical.
 */
class ShadowCore
{
  public:
    ShadowCore(BBEventSource &events, CacheHierarchy &hier, Mmu &mmu,
               BranchUnit &branch, const CoreParams &params,
               const BackendParams &backend, Recorder &rec,
               std::uint32_t core) :
        events_(events), hier_(hier), mmu_(mmu), branch_(branch),
        params_(params), backend_(backend), rec_(rec), core_(core),
        lineMask_(~static_cast<Addr>(hier.params().l2.lineBytes - 1)),
        lineBytes_(hier.params().l2.lineBytes),
        backendStallPerInstr_(backend.dependStallPerInstr +
                              backend.issueStallPerInstr +
                              backend.otherStallPerInstr)
    {
        window_ = params_.fdipLookahead + 1;
        const std::uint32_t cap = std::bit_ceil(
            std::max<std::uint32_t>(window_ + 48u, 64u));
        ring_.resize(cap);
        mask_ = cap - 1;
        fdipScan_ = params_.fdipEnabled && window_ >= 2;
        for (std::size_t n = 0; n < retireMemo_.size(); ++n)
            retireMemo_[n] = static_cast<double>(n) /
                             params_.dispatchWidth;
        const auto mp = static_cast<double>(params_.mispredictPenalty);
        const auto rd = static_cast<double>(params_.btbRedirectPenalty);
        branchPenalty_ = {0.0, mp, rd, mp};
    }

    InstCount retired() const { return instructions_; }
    std::uint64_t events() const { return produced_; }

    /** Advance until @p target instructions retired. */
    void
    step(InstCount target)
    {
        while (instructions_ < target) {
            refill();
            if (fdipScan_) {
                const std::uint64_t visible = head_ + window_;
                while (scanned_ < visible) {
                    BBEvent &ev = ring_[scanned_ & mask_];
                    ev.fdipMispredict =
                        ev.hasBranch && wouldMispredict(ev.branch);
                    windowMispredicts_ += ev.fdipMispredict ? 1u : 0u;
                    ++scanned_;
                }
                if (windowMispredicts_ == 0)
                    fdipPrefetch(ring_[(head_ + window_ - 1) & mask_]);
            }
            const BBEvent &ev = ring_[head_ & mask_];
            if (fdipScan_ && ev.fdipMispredict)
                --windowMispredicts_;
            processEvent(ev);
            ++head_;
            rec_.flushIfFull();
        }
    }

    SimResult
    finalize()
    {
        td_.mispred = static_cast<double>(params_.mispredictPenalty) *
                          static_cast<double>(mispredEvents_) +
                      static_cast<double>(params_.btbRedirectPenalty) *
                          static_cast<double>(redirectEvents_);
        SimResult res;
        res.instructions = instructions_;
        res.cycles = now_;
        res.topdown = td_;
        res.l2InstMpki = hier_.l2InstMpki(instructions_);
        res.l2DataMpki = hier_.l2DataMpki(instructions_);
        res.l1i = hier_.l1i().stats();
        res.l1d = hier_.l1d().stats();
        res.l2 = hier_.l2().stats();
        res.slc = hier_.slc().stats();
        res.prefetch = hier_.prefetchStats();
        res.branch = branch_.stats();
        res.tlb = mmu_.stats();
        res.l2HotEvictions = res.l2.evictionsByTemp[encodeTemperature(
            Temperature::Hot)];
        return res;
    }

  private:
    MmuResult
    translate(Addr vaddr)
    {
        rec_.mmu.push_back(MmuOp{vaddr, core_});
        return mmu_.translate(vaddr);
    }

    bool
    wouldMispredict(const BranchInfo &info)
    {
        rec_.branch.push_back(BranchOp{info, core_, false});
        return branch_.wouldMispredict(info);
    }

    void
    refill()
    {
        const auto ahead = static_cast<std::uint32_t>(produced_ - head_);
        if (ahead >= window_)
            return;
        const auto n = static_cast<std::uint32_t>(ring_.size()) - ahead;
        events_.produce(ring_.data(), mask_,
                        static_cast<std::uint32_t>(produced_) & mask_, n);
        produced_ += n;
    }

    void
    fdipPrefetch(const BBEvent &tail)
    {
        const Addr first = tail.vaddr & lineMask_;
        const Addr last = (tail.vaddr + tail.bytes - 1) & lineMask_;
        for (Addr line = first; line <= last; line += lineBytes_) {
            MemRequest req;
            req.vaddr = line;
            req.paddr = line;
            req.pc = line;
            req.type = AccessType::InstPrefetch;
            const MmuResult tr = translate(line);
            req.paddr = tr.paddr;
            req.temp = tr.temp;
            const auto now = static_cast<Cycles>(now_);
            rec_.hier.push_back(HierOp{req, now, core_, kPrefetch});
            hier_.instPrefetch(req, now);
        }
    }

    void
    processData(const DataAccessEvent &d)
    {
        MemRequest req;
        req.vaddr = d.vaddr;
        req.paddr = d.vaddr;
        req.pc = d.pc;
        req.type = d.isStore ? AccessType::Store : AccessType::Load;
        const MmuResult tr = translate(d.vaddr);
        if (tr.tlbMiss) {
            td_.other += static_cast<double>(params_.tlbWalkPenalty);
            now_ += static_cast<double>(params_.tlbWalkPenalty);
        }
        req.paddr = tr.paddr;
        const auto now = static_cast<Cycles>(now_);
        rec_.hier.push_back(HierOp{req, now, core_, kData});
        const AccessOutcome out = hier_.dataAccess(req, now);
        if (out.latency == 0)
            return;
        const double raw = static_cast<double>(out.latency);
        if (d.isStore) {
            const double exposed = raw * params_.storeExposedFraction;
            td_.mem += exposed;
            now_ += exposed;
        } else if (d.dependent) {
            const double exposed =
                raw * params_.dependentExposedFraction;
            missShadowEnd_ = now_ + raw;
            td_.mem += exposed;
            now_ += exposed;
        } else {
            double exposed = raw * params_.loadExposedFraction;
            if (now_ < missShadowEnd_)
                exposed /= params_.overlapMlp;
            missShadowEnd_ = now_ + raw;
            td_.mem += exposed;
            now_ += exposed;
        }
    }

    void
    processEvent(const BBEvent &ev)
    {
        const Addr first = ev.vaddr & lineMask_;
        const Addr last = (ev.vaddr + ev.bytes - 1) & lineMask_;
        Temperature fetch_temp = Temperature::None;
        for (Addr line = first; line <= last; line += lineBytes_) {
            if (line == lastFetchLine_)
                continue;
            lastFetchLine_ = line;
            MemRequest req;
            req.vaddr = line;
            req.paddr = line;
            req.pc = line;
            req.type = AccessType::InstFetch;
            const MmuResult tr = translate(line);
            if (tr.tlbMiss) {
                td_.other += static_cast<double>(params_.tlbWalkPenalty);
                now_ += static_cast<double>(params_.tlbWalkPenalty);
            }
            req.paddr = tr.paddr;
            req.temp = tr.temp;
            fetch_temp = tr.temp;
            const auto now = static_cast<Cycles>(now_);
            rec_.hier.push_back(HierOp{req, now, core_, kFetch});
            const AccessOutcome out = hier_.instFetch(req, now);
            const double exposed =
                out.latency > params_.fetchQueueSlack
                    ? static_cast<double>(out.latency -
                                          params_.fetchQueueSlack)
                    : 0.0;
            td_.ifetch += exposed;
            now_ += exposed;
            if (out.l2DemandMiss) {
                const bool burst = now_ - lastInstL2Miss_ <=
                                   params_.starvationBurstWindow;
                lastInstL2Miss_ = now_;
                if (burst &&
                    out.latency >= params_.starvationThreshold &&
                    (starvationEvents_++ & 1) == 0) {
                    rec_.hier.push_back(
                        HierOp{req, 0, core_, kPriority});
                    hier_.markL2Priority(req.paddr);
                }
            }
        }

        if (ev.hasBranch) {
            BranchInfo info = ev.branch;
            info.temp = fetch_temp;
            rec_.branch.push_back(BranchOp{info, core_, true});
            const BranchOutcome out = branch_.predictAndUpdate(info);
            const unsigned idx =
                (out.mispredicted ? 1u : 0u) |
                ((out.btbMiss && ev.branch.taken) ? 2u : 0u);
            now_ += branchPenalty_[idx];
            mispredEvents_ += idx & 1u;
            redirectEvents_ += idx == 2u ? 1u : 0u;
        }

        const double instrs = static_cast<double>(ev.instrs);
        const double retire =
            ev.instrs < retireMemo_.size()
                ? retireMemo_[ev.instrs]
                : static_cast<double>(ev.instrs) / params_.dispatchWidth;
        td_.retire += retire;
        td_.depend += instrs * backend_.dependStallPerInstr;
        td_.issue += instrs * backend_.issueStallPerInstr;
        td_.other += instrs * backend_.otherStallPerInstr;
        now_ += retire + instrs * backendStallPerInstr_;

        for (std::uint8_t i = 0; i < ev.numData; ++i)
            processData(ev.data[i]);

        instructions_ += ev.instrs;
    }

    BBEventSource &events_;
    CacheHierarchy &hier_;
    Mmu &mmu_;
    BranchUnit &branch_;
    CoreParams params_;
    BackendParams backend_;
    Recorder &rec_;
    std::uint32_t core_;

    std::vector<BBEvent> ring_;
    std::uint32_t mask_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t scanned_ = 0;
    std::uint64_t produced_ = 0;
    std::uint32_t window_ = 0;
    unsigned windowMispredicts_ = 0;
    bool fdipScan_ = false;

    Addr lineMask_;
    std::uint32_t lineBytes_;
    double backendStallPerInstr_;
    std::array<double, 256> retireMemo_{};
    std::array<double, 4> branchPenalty_{};

    double now_ = 0.0;
    InstCount instructions_ = 0;
    TopDown td_;
    Addr lastFetchLine_ = ~0ull;
    double missShadowEnd_ = 0.0;
    std::uint64_t mispredEvents_ = 0;
    std::uint64_t redirectEvents_ = 0;
    std::uint64_t starvationEvents_ = 0;
    double lastInstL2Miss_ = -1e18;
};

/** Cheap per-call timestamp for the hierarchy split (TSC ticks). */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        Clock::now().time_since_epoch().count());
#endif
}

/** Median cost of one empty ticks() pair, subtracted per call. */
std::uint64_t
tickOverhead()
{
    std::vector<double> samples;
    for (int i = 0; i < 4001; ++i) {
        const std::uint64_t t0 = ticks();
        const std::uint64_t t1 = ticks();
        samples.push_back(static_cast<double>(t1 - t0));
    }
    return static_cast<std::uint64_t>(median(samples));
}

/**
 * Fresh layer objects, each driven alone through its recorded stream
 * one chunk at a time (state carries across chunks, so the result is
 * the same as one long stream).
 */
class Replayer
{
  public:
    Replayer(const std::vector<const PageTable *> &tables,
             const SimOptions &opts) :
        hierTotal_(opts.hier, static_cast<unsigned>(tables.size())),
        hierSplit_(opts.hier, static_cast<unsigned>(tables.size())),
        tickOverhead_(tickOverhead())
    {
        for (const PageTable *pt : tables) {
            tables_.push_back(std::make_unique<PageTable>(*pt));
            mmus_.push_back(std::make_unique<Mmu>(*tables_.back()));
            branches_.push_back(
                std::make_unique<BranchUnit>(opts.branch));
            l2s_.push_back(
                std::make_unique<Cache>(opts.hier.l2, opts.hier.l2Policy));
        }
    }

    void
    consume(Recorder &rec, LayerReport &rep)
    {
        auto t0 = Clock::now();
        for (const MmuOp &op : rec.mmu)
            sink_ += mmus_[op.core]->translate(op.vaddr).paddr;
        rep.mmuNs += nsSince(t0);

        t0 = Clock::now();
        for (const BranchOp &op : rec.branch) {
            BranchUnit &b = *branches_[op.core];
            sink_ += op.predict ? b.predictAndUpdate(op.info).mispredicted
                                : b.wouldMispredict(op.info);
        }
        rep.branchNs += nsSince(t0);

        t0 = Clock::now();
        for (const HierOp &op : rec.hier)
            sink_ += call(hierTotal_.core(op.core), op);
        rep.hierarchyNs += nsSince(t0);

        for (const HierOp &op : rec.hier) {
            const std::uint64_t s = ticks();
            sink_ += call(hierSplit_.core(op.core), op);
            const std::uint64_t d = ticks() - s;
            splitTicks_[op.kind] += d > tickOverhead_ ? d - tickOverhead_
                                                      : 0;
        }

        t0 = Clock::now();
        for (const L2Op &op : rec.l2) {
            Cache &c = *l2s_[op.core];
            if (!c.access(op.req))
                sink_ += c.fillProbe(op.req, 0).addr;
        }
        rep.l2PolicyNs += nsSince(t0);

        rep.translateCalls += rec.mmu.size();
        for (const BranchOp &op : rec.branch)
            ++(op.predict ? rep.predictCalls : rep.wouldMispredictCalls);
        for (const HierOp &op : rec.hier)
            ++callCounts_[op.kind];
        rep.l2Calls += rec.l2.size();
        rec.clear();
    }

    /** Apportion the hierarchy total by the per-kind tick shares. */
    void
    finish(LayerReport &rep) const
    {
        double total = 0.0;
        for (std::uint64_t t : splitTicks_)
            total += static_cast<double>(t);
        const auto share = [&](int k) {
            return total > 0.0 ? rep.hierarchyNs *
                                     static_cast<double>(splitTicks_[k]) /
                                     total
                               : 0.0;
        };
        rep.fetchNs = share(kFetch);
        rep.dataNs = share(kData);
        rep.prefetchNs = share(kPrefetch);
        rep.fetchCalls = callCounts_[kFetch];
        rep.dataCalls = callCounts_[kData];
        rep.prefetchCalls = callCounts_[kPrefetch];
        rep.priorityCalls = callCounts_[kPriority];
    }

    /** Keeps every replayed call's result observable. */
    std::uint64_t sink() const { return sink_; }

  private:
    static std::uint64_t
    call(CacheHierarchy &h, const HierOp &op)
    {
        switch (op.kind) {
          case kFetch:
            return h.instFetch(op.req, op.now).latency;
          case kData:
            return h.dataAccess(op.req, op.now).latency;
          case kPrefetch:
            h.instPrefetch(op.req, op.now);
            return 1;
          default:
            h.markL2Priority(op.req.paddr);
            return 2;
        }
    }

    std::vector<std::unique_ptr<PageTable>> tables_;
    std::vector<std::unique_ptr<Mmu>> mmus_;
    std::vector<std::unique_ptr<BranchUnit>> branches_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    HierarchySet hierTotal_;
    HierarchySet hierSplit_;
    std::uint64_t tickOverhead_;
    std::array<std::uint64_t, 4> splitTicks_{};
    std::array<std::uint64_t, 4> callCounts_{};
    std::uint64_t sink_ = 0;
};

} // namespace

// ------------------------------------------------------------- lanes

struct AssembledCell::Lane
{
    RunArtifacts art;
    std::unique_ptr<SyntheticWorkload> workload;  //!< Proxy lanes.
    std::unique_ptr<PageTable> pageTable;
    std::string tracePath;                        //!< Trace lanes.
    BackendParams backend;
    InstCount budget = 0;

    std::unique_ptr<BBEventSource>
    newSource() const
    {
        if (!tracePath.empty())
            return std::make_unique<trace::TraceEventSource>(tracePath);
        ExecOptions exec_opts;
        exec_opts.seed = workload->params.seed;
        exec_opts.handlerZipfSkew = workload->params.zipfSkew;
        return std::make_unique<Executor>(*workload, art.image,
                                          exec_opts);
    }
};

namespace {

/** Fresh engine objects over the prepared lanes. */
struct Engine
{
    std::vector<std::unique_ptr<PageTable>> tables;
    std::vector<std::unique_ptr<Mmu>> mmus;
    std::vector<std::unique_ptr<BranchUnit>> branches;
    std::vector<std::unique_ptr<BBEventSource>> sources;
    std::vector<InstCount> budgets;
    HierarchySet hier;

    template <typename Lanes>
    Engine(const Lanes &lanes, const SimOptions &opts) :
        hier(opts.hier, static_cast<unsigned>(lanes.size()))
    {
        for (const auto &lane : lanes) {
            tables.push_back(
                std::make_unique<PageTable>(*lane->pageTable));
            mmus.push_back(std::make_unique<Mmu>(*tables.back()));
            branches.push_back(
                std::make_unique<BranchUnit>(opts.branch));
            sources.push_back(lane->newSource());
            budgets.push_back(lane->budget);
        }
    }

    CellResult
    result(std::vector<SimResult> cores)
    {
        CellResult res;
        res.cores = std::move(cores);
        res.slc = hier.slc().stats();
        res.dramReads = hier.dram().reads();
        res.dramWrites = hier.dram().writes();
        return res;
    }
};

} // namespace

AssembledCell::AssembledCell(const CellPlan &plan,
                             exp::ProfileCache &cache) :
    plan_(plan)
{
    // Mirrors runMultiCore()'s lane construction, which in turn is
    // runWorkload() / runTrace() for one core.
    const SimOptions &opts = plan_.options;
    for (const std::string &label : plan_.cores) {
        auto lane = std::make_unique<Lane>();
        lane->budget = resolveBudget(opts);
        if (trace::isTraceName(label)) {
            lane->tracePath = trace::tracePathOf(label);
            trace::TraceRuntime trt = trace::prepareTrace(
                lane->tracePath, opts, cache.traceIndex(lane->tracePath));
            lane->art = std::move(trt.art);
            lane->pageTable = std::move(trt.pageTable);
        } else {
            lane->workload = std::make_unique<SyntheticWorkload>(
                buildWorkload(proxyParams(label)));
            SimOptions wopts = opts;
            wopts.precomputedProfile = cache.get(
                *lane->workload, resolveProfileBudget(wopts));
            WorkloadRuntime wrt = prepareWorkload(*lane->workload, wopts);
            lane->art = std::move(wrt.art);
            lane->pageTable = std::move(wrt.pageTable);
            const WorkloadParams &p = lane->workload->params;
            lane->backend.dependStallPerInstr = p.dependStallPerInstr;
            lane->backend.issueStallPerInstr = p.issueStallPerInstr;
            lane->backend.otherStallPerInstr = p.otherStallPerInstr;
        }
        lanes_.push_back(std::move(lane));
    }
}

AssembledCell::~AssembledCell() = default;

unsigned
AssembledCell::numCores() const
{
    return static_cast<unsigned>(lanes_.size());
}

CellResult
AssembledCell::run(bool traced, RunTiming *timing)
{
    const SimOptions &opts = plan_.options;
    Engine eng(lanes_, opts);
    std::vector<std::unique_ptr<TimedSource>> timed;
    std::vector<std::unique_ptr<CoreModel>> models;
    std::vector<CoreModel *> cores;
    for (unsigned c = 0; c < lanes_.size(); ++c) {
        BBEventSource *source = eng.sources[c].get();
        if (traced) {
            timed.push_back(std::make_unique<TimedSource>(*source));
            source = timed.back().get();
        }
        models.push_back(std::make_unique<CoreModel>(
            *source, eng.hier.core(c), *eng.mmus[c], *eng.branches[c],
            opts.core, lanes_[c]->backend));
        cores.push_back(models.back().get());
    }

    std::vector<double> step_ns(cores.size(), 0.0);
    const double wall =
        drive(cores, eng.budgets, step_ns);

    std::vector<SimResult> results;
    for (CoreModel *core : cores)
        results.push_back(core->finalize());
    CellResult res = eng.result(std::move(results));

    if (timing) {
        RunTiming t;
        t.wallNs = wall;
        for (double ns : step_ns)
            t.stepNs += ns;
        for (unsigned c = 0; c < timed.size(); ++c) {
            (lanes_[c]->tracePath.empty() ? t.executorNs
                                          : t.traceSourceNs) +=
                timed[c]->produceNs();
            t.decoratorNs += timed[c]->selfNs();
            t.events += timed[c]->events();
        }
        for (const SimResult &r : res.cores)
            t.instructions += r.instructions;
        *timing = t;
    }
    return res;
}

LayerReport
AssembledCell::replay()
{
    const SimOptions &opts = plan_.options;
    Engine eng(lanes_, opts);
    Recorder rec;

    std::vector<const PageTable *> tables;
    for (const auto &lane : lanes_)
        tables.push_back(lane->pageTable.get());
    Replayer replayer(tables, opts);
    LayerReport rep;
    rec.flush = [&] { replayer.consume(rec, rep); };

    std::vector<std::unique_ptr<L2Tap>> taps;
    std::vector<std::unique_ptr<ShadowCore>> shadows;
    std::vector<ShadowCore *> cores;
    for (unsigned c = 0; c < lanes_.size(); ++c) {
        taps.push_back(std::make_unique<L2Tap>(rec, c));
        eng.hier.core(c).setL2Observer(taps.back().get());
        shadows.push_back(std::make_unique<ShadowCore>(
            *eng.sources[c], eng.hier.core(c), *eng.mmus[c],
            *eng.branches[c], opts.core, lanes_[c]->backend, rec, c));
        cores.push_back(shadows.back().get());
    }

    // The shadow is stepped on the same schedule as the real cores;
    // its own host time is not a measurement, only the replays are.
    std::vector<double> unused(cores.size(), 0.0);
    drive(cores, eng.budgets, unused);
    replayer.consume(rec, rep);
    replayer.finish(rep);

    std::vector<SimResult> results;
    for (ShadowCore *core : cores) {
        results.push_back(core->finalize());
        rep.events += core->events();
    }
    rep.shadow = eng.result(std::move(results));
    // The replayed results feed nothing else; publish them so no
    // replay loop is dead code.
    replaySink = replayer.sink();
    return rep;
}

} // namespace perfbench
