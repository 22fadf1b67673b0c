#include "exp/profile_cache.hh"

#include <sstream>

namespace trrip::exp {

std::string
ProfileCache::key(const SyntheticWorkload &workload,
                  InstCount profile_instructions)
{
    // collectProfile() runs the pre-PGO layout with the training seed
    // and training skew for the given budget; the program itself is a
    // deterministic function of the workload parameters, fingerprinted
    // here by name + block/function counts (specs that mutate a
    // workload's structure under the same name must rename it).
    const WorkloadParams &p = workload.params;
    std::ostringstream os;
    os << p.name << '|' << p.trainSeed << '|' << p.trainZipfSkew << '|'
       << profile_instructions << '|'
       << workload.program.numFunctions() << '|'
       << workload.program.numBlocks();
    return os.str();
}

std::shared_ptr<const Profile>
ProfileCache::get(const SyntheticWorkload &workload,
                  InstCount profile_instructions,
                  const CancelToken *cancel)
{
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = entries_[key(workload, profile_instructions)];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }
    // A throw (a cancelled or failed collection) leaves the once flag
    // unset and the counters untouched: the next request collects.
    bool collected = false;
    std::call_once(entry->once, [&] {
        entry->profile = std::make_shared<const Profile>(
            collectProfile(workload, profile_instructions, cancel));
        collected = true;
        collections_.fetch_add(1, std::memory_order_relaxed);
    });
    if (!collected)
        hits_.fetch_add(1, std::memory_order_relaxed);
    return entry->profile;
}

std::shared_ptr<const trace::TraceIndex>
ProfileCache::traceIndex(const std::string &path,
                         const CancelToken *cancel)
{
    std::shared_ptr<TraceEntry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = traceEntries_[path];
        if (!slot)
            slot = std::make_shared<TraceEntry>();
        entry = slot;
    }
    bool collected = false;
    std::call_once(entry->once, [&] {
        entry->index = std::make_shared<const trace::TraceIndex>(
            trace::buildTraceIndex(path, cancel));
        collected = true;
        collections_.fetch_add(1, std::memory_order_relaxed);
    });
    if (!collected)
        hits_.fetch_add(1, std::memory_order_relaxed);
    return entry->index;
}

void
ProfileCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    traceEntries_.clear();
    collections_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
}

} // namespace trrip::exp
