#include "harness.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/error.hh"

namespace trrip::bench {

namespace {

bool
envFlag(const char *name, bool default_value)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return default_value;
    return std::strcmp(v, "0") != 0;
}

} // namespace

SimOptions
defaultOptions()
{
    SimOptions opts;
    opts.maxInstructions = defaultInstrBudget();
    return opts;
}

std::vector<std::string>
envList(const char *name, std::vector<std::string> fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    // Split on commas outside parentheses, so parameterized policy
    // specs like "DRRIP(psel_bits=10,throttle=32)" stay whole.
    std::vector<std::string> out;
    std::string item;
    int depth = 0;
    for (const char *p = v;; ++p) {
        if (*p == '\0' || (*p == ',' && depth == 0)) {
            if (!item.empty())
                out.push_back(item);
            item.clear();
            if (*p == '\0')
                break;
            continue;
        }
        depth += *p == '(' ? 1 : (*p == ')' ? -1 : 0);
        item += *p;
    }
    return out.empty() ? fallback : out;
}

std::vector<std::unique_ptr<exp::ResultSink>>
standardSinks()
{
    std::vector<std::unique_ptr<exp::ResultSink>> sinks;
    if (envFlag("TRRIP_JSON", true))
        sinks.push_back(std::make_unique<exp::JsonSink>());
    if (envFlag("TRRIP_CSV", false))
        sinks.push_back(std::make_unique<exp::CsvSink>());
    if (envFlag("TRRIP_CELL_TABLE", false))
        sinks.push_back(std::make_unique<exp::TableSink>());
    return sinks;
}

exp::ExperimentRunner &
sharedRunner()
{
    static exp::ExperimentRunner runner;
    return runner;
}

exp::ExperimentResults
runExperiment(const exp::ExperimentSpec &spec)
{
    return runExperiment(spec, sharedRunner());
}

exp::ExperimentResults
runExperiment(const exp::ExperimentSpec &spec,
              exp::ExperimentRunner &runner,
              const std::vector<exp::ResultSink *> &extra_sinks)
{
    const auto sinks = standardSinks();
    std::vector<exp::ResultSink *> sink_ptrs;
    for (const auto &s : sinks)
        sink_ptrs.push_back(s.get());
    sink_ptrs.insert(sink_ptrs.end(), extra_sinks.begin(),
                     extra_sinks.end());
    auto results = runOrExit(runner, spec, sink_ptrs);
    exp::printRunSummary(results);
    return results;
}

exp::ExperimentResults
runOrExit(exp::ExperimentRunner &runner, const exp::ExperimentSpec &spec,
          const std::vector<exp::ResultSink *> &sinks)
{
    try {
        return runner.run(spec, sinks);
    } catch (const SimError &err) {
        // Abort-mode failure: the grid already stopped with no
        // partial BENCH written; exit cleanly instead of unwinding
        // into std::terminate.
        std::fprintf(stderr, "error: %s\n", err.what());
        std::exit(1);
    }
}

} // namespace trrip::bench
