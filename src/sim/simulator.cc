#include "sim/simulator.hh"

#include <cstdlib>

#include "trace/source.hh"
#include "util/logging.hh"

namespace trrip {

InstCount
defaultInstrBudget()
{
    if (const char *env = std::getenv("TRRIP_INSTR_MILLIONS")) {
        const double millions = std::atof(env);
        if (millions > 0.0)
            return static_cast<InstCount>(millions * 1e6);
    }
    return 6'000'000;
}

Profile
collectProfile(const SyntheticWorkload &workload,
               InstCount instructions, const CancelToken *cancel)
{
    // Instrumented binaries are the pre-PGO layout (Fig. 4, ELF1).
    LayoutOptions layout_opts;
    const ElfImage image =
        layoutProgram(workload.program, nullptr, nullptr, layout_opts);

    ExecOptions exec_opts;
    exec_opts.seed = workload.params.trainSeed;
    exec_opts.handlerZipfSkew = workload.params.trainZipfSkew;
    Executor exec(workload, image, exec_opts);

    // Batched consumption (BBEventSource contract): events beyond the
    // budget boundary are produced and discarded, which is free --
    // the executor is a pure generator and this instance dies here.
    Profile profile(workload.program.numBlocks());
    constexpr std::uint32_t kBatch = 64;
    // The deadline poll runs once per kPollBatches batches, so a
    // fired token lands within a few thousand events.
    constexpr std::uint64_t kPollBatches = 64;
    std::vector<BBEvent> ring(kBatch);
    InstCount done = 0;
    for (std::uint64_t batch = 0; done < instructions; ++batch) {
        if (cancel && batch % kPollBatches == 0 && cancel->cancelled())
            throw SimError(ErrorCategory::Timeout,
                           "cell deadline exceeded");
        exec.produce(ring.data(), kBatch - 1, 0, kBatch);
        for (std::uint32_t i = 0; i < kBatch && done < instructions;
             ++i) {
            profile.record(ring[i].bb);
            done += ring[i].instrs;
        }
    }
    return profile;
}

InstCount
resolveBudget(const SimOptions &options)
{
    return options.maxInstructions > 0 ? options.maxInstructions
                                       : defaultInstrBudget();
}

InstCount
resolveProfileBudget(const SimOptions &options)
{
    // PGO profiles need comparable coverage to the evaluation run or
    // the tail of the count distribution degenerates (every executed
    // block looks equally rare); default to the evaluation budget.
    return options.profileInstructions > 0
               ? options.profileInstructions
               : resolveBudget(options);
}

WorkloadRuntime
prepareWorkload(const SyntheticWorkload &workload,
                const SimOptions &options)
{
    WorkloadRuntime rt;
    RunArtifacts &art = rt.art;

    const InstCount profile_budget = resolveProfileBudget(options);

    // (2)-(3) Instrumented run producing the profile.  A precomputed
    // profile is shared by reference, not copied: a policy sweep keeps
    // one immutable Profile alive across all of its runs.
    if (options.precomputedProfile)
        art.profile = options.precomputedProfile;
    else
        art.profile = std::make_shared<Profile>(
            collectProfile(workload, profile_budget, options.cancel));

    // (4)-(5) Re-optimization: classify temperature, lay out ELF2.
    LayoutOptions layout_opts = options.layout;
    layout_opts.pageSize = options.pageSize;
    layout_opts.extraColdTextBytes = workload.params.extraColdTextBytes;
    layout_opts.extraBinaryBytes = workload.params.extraBinaryBytes;
    if (options.pgo) {
        art.classification = classifyTemperature(
            workload.program, *art.profile, options.classifier);
        art.image = layoutProgram(workload.program,
                                  &art.classification,
                                  art.profile.get(), layout_opts);
    } else {
        art.image = layoutProgram(workload.program, nullptr, nullptr,
                                  layout_opts);
    }

    // (6)-(8) Loader populates PTE temperature attribute bits.
    rt.pageTable = std::make_unique<PageTable>(options.pageSize);
    art.loadStats =
        loadImage(art.image, *rt.pageTable, options.pagePolicy);
    return rt;
}

Lane::Lane(RunArtifacts art_in, std::unique_ptr<PageTable> page_table,
           const SyntheticWorkload *workload,
           std::shared_ptr<const trace::TraceIndex> trace,
           const SimOptions &options, CacheHierarchy *shared) :
    art(std::move(art_in)), pageTable(std::move(page_table))
{
    // (9)-(11) Execute: MMU stamps temperatures onto fetch requests.
    mmu = std::make_unique<Mmu>(*pageTable);
    branch = std::make_unique<BranchUnit>(options.branch);
    hier = shared;
    if (!hier) {
        ownHier = std::make_unique<CacheHierarchy>(options.hier);
        hier = ownHier.get();
    }
    const HierarchyParams &hp = hier->params();
    art.resolvedPolicies = {
        {"L1I", hp.l1iPolicy.canonical()},
        {"L1D", hp.l1dPolicy.canonical()},
        {"L2", hp.l2Policy.canonical()},
        {"SLC", hp.slcPolicy.canonical()},
    };
    if (options.reuse)
        hier->setL2Observer(options.reuse);

    BackendParams backend;  // Traces carry no synthetic stall model.
    if (workload) {
        const WorkloadParams &params = workload->params;
        ExecOptions exec_opts;
        exec_opts.seed = params.seed;
        exec_opts.handlerZipfSkew = params.zipfSkew;
        source = std::make_unique<Executor>(*workload, art.image,
                                            exec_opts);
        backend.dependStallPerInstr = params.dependStallPerInstr;
        backend.issueStallPerInstr = params.issueStallPerInstr;
        backend.otherStallPerInstr = params.otherStallPerInstr;
    } else {
        source =
            std::make_unique<trace::TraceEventSource>(std::move(trace));
    }

    core = std::make_unique<CoreModel>(*source, *hier, *mmu, *branch,
                                       options.core, backend);
    core->setCostlyTracker(options.costly);
    core->setCancelToken(options.cancel);
}

RunArtifacts
runWorkload(const SyntheticWorkload &workload, const SimOptions &options)
{
    WorkloadRuntime rt = prepareWorkload(workload, options);
    Lane lane(std::move(rt.art), std::move(rt.pageTable), &workload,
              nullptr, options);
    lane.art.result = lane.core->run(resolveBudget(options));
    return std::move(lane.art);
}

} // namespace trrip
