#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>

#include "core/policy_registry.hh"
#include "exp/journal.hh"
#include "exp/sink.hh"
#include "sim/multicore.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "workloads/builder.hh"

namespace trrip::exp {

std::map<std::string, double>
defaultMetrics(const SimResult &r)
{
    std::map<std::string, double> m;
    m["instructions"] = static_cast<double>(r.instructions);
    m["cycles"] = r.cycles;
    m["ipc"] = r.ipc();
    m["l2_inst_mpki"] = r.l2InstMpki;
    m["l2_data_mpki"] = r.l2DataMpki;
    m["l2_demand_misses"] = static_cast<double>(r.l2.demandMisses);
    m["l2_hot_evictions"] = static_cast<double>(r.l2HotEvictions);
    m["branch_mispredicts"] =
        static_cast<double>(r.branch.mispredicts);
    m["btb_misses"] = static_cast<double>(r.branch.btbMisses);
    const TopDown &td = r.topdown;
    m["td_retire"] = td.fraction(td.retire);
    m["td_ifetch"] = td.fraction(td.ifetch);
    m["td_mispred"] = td.fraction(td.mispred);
    m["td_depend"] = td.fraction(td.depend);
    m["td_issue"] = td.fraction(td.issue);
    m["td_mem"] = td.fraction(td.mem);
    m["td_other"] = td.fraction(td.other);
    return m;
}

const CellRecord &
ExperimentResults::at(std::size_t workload, std::size_t policy,
                      std::size_t config) const
{
    const CellRecord &rec =
        cells_.at(spec_.cellIndex(CellId{workload, policy, config}));
    panic_if(!rec.valid, "cell (", rec.workload, ", ", rec.policy,
             ", config ", config, ") was filtered out of experiment '",
             spec_.name, "'");
    return rec;
}

const CellRecord &
ExperimentResults::at(const std::string &workload,
                      const std::string &policy,
                      std::size_t config) const
{
    const auto find = [](const std::vector<std::string> &axis,
                         const std::string &label) {
        for (std::size_t i = 0; i < axis.size(); ++i)
            if (axis[i] == label)
                return i;
        panic("experiment axis has no entry '", label, "'");
        return std::size_t(0);
    };
    return at(find(spec_.workloads, workload),
              find(spec_.policies, policy), config);
}

unsigned
ExperimentRunner::defaultJobs()
{
    if (const char *env = std::getenv("TRRIP_JOBS")) {
        const long n = std::atol(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ExperimentRunner::ExperimentRunner(unsigned threads) :
    threads_(threads > 0 ? threads : defaultJobs())
{}

ExperimentRunner::~ExperimentRunner() = default;

WorkerPool &
ExperimentRunner::ensurePool()
{
    std::call_once(poolOnce_, [&] {
        pool_ = std::make_unique<WorkerPool>(threads_);
        if (const char *env = std::getenv("TRRIP_CELL_TIMEOUT_MS")) {
            const long long ms = std::atoll(env);
            if (ms > 0) {
                pool_->setItemTimeout(
                    static_cast<std::uint64_t>(ms));
            }
        }
    });
    return *pool_;
}

namespace detail {

/**
 * Everything one submitted grid carries through the pool.  Shared by
 * the batch item closures and the PendingRun handle; the closures are
 * dropped when the batch completes, so the only reference left after
 * wait() is the caller's.
 */
struct RunState
{
    ExperimentSpec spec;
    std::function<WorkloadParams(const std::string &)> paramsFor;
    std::vector<CellRecord> records;
    std::vector<std::size_t> live;  //!< Record indices to execute.
    std::vector<ResultSink *> sinks;

    /** One proxy workload, built at most once per submit. */
    struct BuiltWorkload
    {
        std::once_flag once;
        std::shared_ptr<const SyntheticWorkload> workload;
    };

    /**
     * Proxy label -> its build, shared by every cell and mc: lane of
     * this submit that names the label; dropped when the grid
     * completes.  Guarded by workloadsMutex (map nodes are stable, so
     * a slot is used outside the lock).
     */
    std::mutex workloadsMutex;
    std::map<std::string, BuiltWorkload> workloads;

    ProfileCache *profiles = nullptr;
    WorkerPool *pool = nullptr;

    std::chrono::steady_clock::time_point t0;
    double wallSeconds = 0.0;
    unsigned threadsUsed = 1;
    std::uint64_t collectionsBefore = 0;
    std::uint64_t hitsBefore = 0;
    std::uint64_t collectionsDelta = 0;
    std::uint64_t hitsDelta = 0;

    /** Failure policy (copied from the spec) and its bookkeeping. */
    OnError onError;
    std::unique_ptr<RunJournal> journal;
    std::uint64_t cellsResumed = 0;
    std::atomic<std::uint64_t> cellsFailed{0};
    std::atomic<std::uint64_t> cellsRetried{0};
    std::atomic<std::uint64_t> failedAttempts{0};
    /** Abort mode: set on the first failure; later cells short-
     *  circuit instead of running. */
    std::atomic<bool> abortRequested{false};
    /** The failed cell with the lowest record index (what wait()
     *  throws under Abort).  Guarded by errorMutex. */
    std::mutex errorMutex;
    std::size_t firstErrorIndex = ~std::size_t(0);
    std::unique_ptr<SimError> firstError;

    std::shared_ptr<WorkerPool::Batch> batch;

    /** The workload provider behind every simulation cell. */
    std::shared_ptr<const SyntheticWorkload>
    workload(const std::string &label)
    {
        // The build injection site.  Every request draws, not just
        // the one that builds, so a cell's build faults depend only
        // on the cell and attempt, never on which cell won the race
        // to build.
        FaultInjector::instance().maybeInject(FaultSite::Build);
        BuiltWorkload *slot;
        {
            std::lock_guard<std::mutex> lock(workloadsMutex);
            slot = &workloads[label];
        }
        std::call_once(slot->once, [&] {
            // A throw leaves the once flag unset, so the next cell
            // needing this workload (or this cell's next attempt)
            // rebuilds.
            try {
                slot->workload = std::make_shared<const SyntheticWorkload>(
                    buildWorkload(paramsFor(label)));
            } catch (const SimError &) {
                throw;
            } catch (const std::exception &e) {
                throw SimError(ErrorCategory::BuildFailure, e.what())
                    .withContext("building workload " + label);
            }
        });
        return slot->workload;
    }

    /** Called once the grid's batch completes. */
    void
    finish()
    {
        workloads.clear();
        wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        // With overlapping submits on one runner these deltas can
        // include a concurrent spec's cache traffic; for a lone
        // run() they are exact, as before.
        collectionsDelta = profiles->collections() - collectionsBefore;
        hitsDelta = profiles->hits() - hitsBefore;
    }

    /**
     * Every simulation cell is one runMultiCore() call: a proxy or
     * trace label runs as the one-lane bundle {label} (bit-identical
     * to runWorkload()/runTrace()), an mc: label as its components.
     * Workloads come from this submit's build map; training profiles
     * and trace indexes from the shared cache.
     */
    CellOutcome
    simulate(const CellContext &ctx)
    {
        MultiCoreOptions mo;
        mo.base = ctx.options;
        mo.workloadProvider = [this](const std::string &label) {
            return workload(label);
        };
        // The cell's deadline token rides into the shared collections,
        // so an overrunning profile pass or trace pre-pass times out
        // like the simulation does.
        ProfileCache *cache = profiles;
        const CancelToken *cancel = ctx.options.cancel;
        mo.profileProvider = [cache, cancel](const SyntheticWorkload &w,
                                             InstCount budget) {
            return cache->get(w, budget, cancel);
        };
        mo.traceIndexProvider = [cache, cancel](const std::string &path) {
            return cache->traceIndex(path, cancel);
        };
        const bool bundle = isMultiCoreName(ctx.workload);
        MultiCoreResult mc = runMultiCore(
            bundle ? multiCoreWorkloadsOf(ctx.workload)
                   : std::vector<std::string>{ctx.workload},
            ctx.policy, mo);

        CellOutcome outcome;
        if (!bundle) {
            outcome.artifacts = std::move(mc.cores[0]);
            outcome.metrics = defaultMetrics(outcome.artifacts.result);
            return outcome;
        }
        const SimResult agg = aggregateMultiCore(mc);
        outcome.metrics = defaultMetrics(agg);
        for (std::size_t core = 0; core < mc.cores.size(); ++core) {
            const std::string prefix = "core" + std::to_string(core) + "_";
            for (const auto &[key, value] :
                 defaultMetrics(mc.cores[core].result)) {
                outcome.metrics[prefix + key] = value;
            }
        }
        outcome.metrics["dram_reads"] = static_cast<double>(mc.dramReads);
        outcome.metrics["dram_writes"] =
            static_cast<double>(mc.dramWrites);
        // The record keeps core 0's software artifacts (layout,
        // profile, resolved policies) with the aggregate result.
        outcome.artifacts = std::move(mc.cores[0]);
        outcome.artifacts.result = agg;
        return outcome;
    }

    void
    runCell(std::size_t ordinal, WorkerContext &wc)
    {
        CellRecord &rec = records[live[ordinal]];
        CellContext ctx;
        ctx.id = rec.id;
        ctx.workload = rec.workload;
        ctx.policy = rec.policy;
        ctx.config = rec.config;
        ctx.options = spec.options;
        ctx.worker = wc.worker;
        if (!spec.configs.empty() && spec.configs[ctx.id.config].apply)
            spec.configs[ctx.id.config].apply(ctx.options);
        // Config mutators must not smuggle in a shared observer
        // either (see the guard on the base options in submit()).
        panic_if(ctx.options.reuse || ctx.options.costly,
                 "experiment '", spec.name,
                 "': attach observers via ExperimentSpec::hooks, not "
                 "a config mutator");
        // Deadline enforcement: the simulation polls the worker's
        // token at event-batch boundaries (CoreModel::refill).
        ctx.options.cancel = wc.cancel;
        if (spec.hooks)
            rec.hook = spec.hooks(ctx.options, ctx.id);
        ctx.profiles = profiles;

        CellOutcome outcome =
            spec.runCell ? spec.runCell(ctx) : simulate(ctx);
        rec.artifacts = std::move(outcome.artifacts);
        rec.metrics = std::move(outcome.metrics);
    }

    JournalEntry
    journalEntryFor(const CellRecord &rec, std::size_t index) const
    {
        JournalEntry entry;
        entry.cell = index;
        entry.workload = rec.workload;
        entry.policy = rec.policy;
        entry.config = rec.config;
        entry.attempts = rec.attempts;
        entry.failed = rec.failed;
        entry.errorCategory = rec.errorCategory;
        entry.errorMessage = rec.errorMessage;
        if (!rec.failed) {
            entry.metrics = rec.metrics;
            entry.resolvedPolicies = rec.artifacts.resolvedPolicies;
        }
        return entry;
    }

    /**
     * The success-or-error cell contract: every attempt of runCell()
     * runs under a deterministic fault-injection scope, failures are
     * retried/recorded per the OnError policy, and nothing escapes to
     * the pool.  (The pool's own item-boundary catch stays as the
     * backstop for raw submitters.)
     */
    void
    runCellGuarded(std::size_t ordinal, WorkerContext &wc)
    {
        const std::size_t index = live[ordinal];
        CellRecord &rec = records[index];
        // Abort mode short-circuit: once one cell failed, the rest
        // of the grid is moot (wait() throws before the sinks run),
        // so do not burn time executing it.
        if (onError.mode == OnError::Mode::Abort &&
            abortRequested.load(std::memory_order_relaxed)) {
            return;
        }

        const unsigned max_attempts =
            onError.mode == OnError::Mode::Retry
                ? std::max(1u, onError.maxAttempts)
                : 1;
        SimError last(ErrorCategory::Internal, "unreachable");
        for (unsigned attempt = 1; attempt <= max_attempts;
             ++attempt) {
            if (attempt > 1) {
                if (onError.backoffMs > 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            static_cast<std::uint64_t>(
                                onError.backoffMs)
                            << (attempt - 2)));
                }
                // A fresh attempt deserves a fresh deadline: all
                // attempts run inside ONE pool item, so without this
                // the first attempt's clock would cancel its
                // retries.
                pool->rearmDeadline(wc.worker);
            }
            // Scope keyed on (cell index, attempt): which faults
            // fire depends only on the cell and the attempt number,
            // never on the worker or the schedule -- and a retry
            // re-rolls, so finite rates converge.
            FaultInjector::Scope scope(index, attempt);
            try {
                FaultInjector::instance().maybeInject(
                    FaultSite::Cell);
                runCell(ordinal, wc);
                rec.attempts = attempt;
                if (attempt > 1) {
                    cellsRetried.fetch_add(
                        1, std::memory_order_relaxed);
                }
                if (journal)
                    journal->append(journalEntryFor(rec, index));
                return;
            } catch (const SimError &e) {
                last = e;
            } catch (const std::exception &e) {
                last = SimError(ErrorCategory::Internal, e.what());
            }
            failedAttempts.fetch_add(1, std::memory_order_relaxed);
            // Drop whatever the failed attempt half-produced so a
            // retry (or the error row) starts from a clean record.
            rec.hook = nullptr;
            rec.artifacts = RunArtifacts{};
            rec.metrics.clear();
        }

        // Final failure: a schema-stable error row, not a crash.
        last.addContext(
            "cell " + std::to_string(index) + ": workload " +
            rec.workload + ", policy " + rec.policy +
            (rec.config.empty() ? std::string()
                                : ", config " + rec.config));
        rec.failed = true;
        rec.attempts = max_attempts;
        rec.errorCategory = errorCategoryName(last.category());
        rec.errorMessage = last.message();
        for (const std::string &frame : last.context())
            rec.errorMessage += "; " + frame;
        cellsFailed.fetch_add(1, std::memory_order_relaxed);
        if (journal)
            journal->append(journalEntryFor(rec, index));
        if (onError.mode == OnError::Mode::Abort) {
            abortRequested.store(true, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(errorMutex);
            if (index < firstErrorIndex) {
                firstErrorIndex = index;
                firstError = std::make_unique<SimError>(last);
            }
        }
    }
};

} // namespace detail

PendingRun
ExperimentRunner::submit(const ExperimentSpec &spec,
                         const std::vector<ResultSink *> &sinks)
{
    // A single observer shared by every cell would be mutated from
    // all worker threads at once (and would aggregate across cells
    // even serially); per-cell instrumentation must come from hooks.
    panic_if(spec.options.reuse || spec.options.costly,
             "experiment '", spec.name,
             "': attach observers via ExperimentSpec::hooks, not the "
             "base options");

    // Reject policy-axis entries that are the same policy in
    // different spellings ("SRRIP" vs "SRRIP(bits=2)"): the sinks
    // canonicalize labels, so their rows would be indistinguishable.
    // A grid-level error: thrown before any cell runs, whatever the
    // spec's OnError mode.
    {
        std::map<std::string, std::string> seen;
        for (const auto &label : spec.policies) {
            const std::string canon =
                PolicyRegistry::instance().canonicalLabel(label);
            const auto [it, inserted] = seen.emplace(canon, label);
            if (!inserted) {
                throw SimError(
                    ErrorCategory::BuildFailure,
                    trrip::detail::formatArgs(
                        "experiment '", spec.name,
                        "': policy axis entries '", it->second,
                        "' and '", label,
                        "' resolve to the same policy (", canon, ")"));
            }
        }
    }

    auto state = std::make_shared<detail::RunState>();
    state->spec = spec;
    state->sinks = sinks;
    state->paramsFor = spec.paramsFor
                           ? spec.paramsFor
                           : [](const std::string &name) {
                                 return proxyParams(name);
                             };
    state->profiles = &profiles_;

    const std::size_t n_cells = spec.cellCount();
    state->records.resize(n_cells);

    // Enumerate the live cells up front (deterministic order).
    state->live.reserve(n_cells);
    for (std::size_t i = 0; i < n_cells; ++i) {
        const CellId id = spec.cellIdAt(i);
        CellRecord &rec = state->records[i];
        rec.id = id;
        rec.workload = spec.workloads[id.workload];
        rec.policy = spec.policies[id.policy];
        rec.config = spec.configLabel(id.config);
        if (spec.filter && !spec.filter(id))
            continue;
        rec.valid = true;
        state->live.push_back(i);
    }

    state->onError = spec.onError;
    if (!spec.journal.empty()) {
        // Resume: cells the journal already holds are replayed into
        // their records and dropped from the execution set, so the
        // sinks re-emit them byte-identically without re-running.
        const auto done = RunJournal::load(spec.journal);
        state->live.erase(
            std::remove_if(
                state->live.begin(), state->live.end(),
                [&](std::size_t i) {
                    const auto it = done.find(i);
                    if (it == done.end())
                        return false;
                    CellRecord &rec = state->records[i];
                    const JournalEntry &entry = it->second;
                    // A label mismatch means the journal belongs to
                    // a different grid; resuming from it would emit
                    // silently wrong rows.  Thrown before the journal
                    // is reopened, so nothing is appended to it.
                    if (entry.workload != rec.workload ||
                        entry.policy != rec.policy ||
                        entry.config != rec.config) {
                        throw SimError(
                            ErrorCategory::BuildFailure,
                            trrip::detail::formatArgs(
                                "journal '", spec.journal, "' cell ", i,
                                " is (", entry.workload, ", ",
                                entry.policy, ", ", entry.config,
                                ") but experiment '", spec.name,
                                "' expects (", rec.workload, ", ",
                                rec.policy, ", ", rec.config, ")"));
                    }
                    rec.metrics = entry.metrics;
                    rec.artifacts.resolvedPolicies =
                        entry.resolvedPolicies;
                    rec.resumed = true;
                    ++state->cellsResumed;
                    return true;
                }),
            state->live.end());
        state->journal = std::make_unique<RunJournal>(spec.journal);
    }

    state->threadsUsed = static_cast<unsigned>(std::min<std::size_t>(
        threads_, std::max<std::size_t>(1, state->live.size())));
    state->collectionsBefore = profiles_.collections();
    state->hitsBefore = profiles_.hits();
    state->t0 = std::chrono::steady_clock::now();

    WorkerPool &pool = ensurePool();
    state->pool = &pool;
    state->batch = pool.submit(
        state->live.size(),
        [state](std::size_t ordinal, WorkerContext &wc) {
            state->runCellGuarded(ordinal, wc);
        },
        [state] { state->finish(); });

    return PendingRun(std::move(state));
}

ExperimentResults
PendingRun::wait()
{
    panic_if(!state_, "wait() on an empty PendingRun");
    const std::shared_ptr<detail::RunState> state = std::move(state_);
    state->batch->wait();

    // Abort mode: a failed cell poisons the whole grid.  Rethrow the
    // deterministically-first error without feeding the sinks -- no
    // partial BENCH files.
    if (state->firstError)
        throw *state->firstError;

    ExperimentResults results(state->spec, std::move(state->records));
    results.wallSeconds = state->wallSeconds;
    results.threadsUsed = state->threadsUsed;
    results.profileCollections = state->collectionsDelta;
    results.profileHits = state->hitsDelta;
    results.cellsFailed =
        state->cellsFailed.load(std::memory_order_relaxed);
    results.cellsRetried =
        state->cellsRetried.load(std::memory_order_relaxed);
    results.cellsResumed = state->cellsResumed;
    results.failedAttempts =
        state->failedAttempts.load(std::memory_order_relaxed);

    // Sinks observe cells in deterministic index order on the waiting
    // thread, independent of the schedule the pool actually executed.
    for (ResultSink *sink : state->sinks) {
        if (!sink)
            continue;
        sink->begin(results.spec());
        for (const CellRecord &rec : results.cells())
            if (rec.valid)
                sink->cell(rec);
        sink->end(results);
    }
    return results;
}

} // namespace trrip::exp
