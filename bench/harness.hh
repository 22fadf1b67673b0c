/**
 * @file
 * Thin shared layer for the table/figure reproduction binaries: the
 * paper's Table 1 option defaults, standard sink construction, and a
 * one-call wrapper running an ExperimentSpec on the shared runner.
 * All looping, caching and parallelism lives in src/exp/.
 */

#ifndef TRRIP_BENCH_HARNESS_HH
#define TRRIP_BENCH_HARNESS_HH

#include <memory>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/sink.hh"

namespace trrip::bench {

/** Default SimOptions for bench runs (paper Table 1 configuration). */
SimOptions defaultOptions();

/**
 * Comma list from the environment, or @p fallback when unset/empty.
 * Commas inside parentheses belong to the item, so parameterized
 * policy specs like "DRRIP(psel_bits=10,throttle=32)" stay whole.
 */
std::vector<std::string> envList(const char *name,
                                 std::vector<std::string> fallback);

/**
 * The standard sink set for a bench run: a JSON trajectory writer
 * (disable with TRRIP_JSON=0), an opt-in CSV writer (TRRIP_CSV=1) and
 * an opt-in raw per-cell table (TRRIP_CELL_TABLE=1).
 */
std::vector<std::unique_ptr<exp::ResultSink>>
standardSinks();

/**
 * The process-wide runner every bench shares, so the profile cache
 * spans the multiple specs of one binary (fig9's two grids, the six
 * ablations).
 */
exp::ExperimentRunner &sharedRunner();

/**
 * Run @p spec on a TRRIP_JOBS-wide runner with the standard sinks and
 * print a one-line run summary (wall time, threads, profile cache).
 */
exp::ExperimentResults runExperiment(const exp::ExperimentSpec &spec);

/**
 * Same, on a caller-supplied runner (e.g. a serial one for timing
 * cells) and optional extra sinks fed alongside the standard set.
 */
exp::ExperimentResults
runExperiment(const exp::ExperimentSpec &spec,
              exp::ExperimentRunner &runner,
              const std::vector<exp::ResultSink *> &extra_sinks = {});

/**
 * runner.run(spec, sinks) for benches that time or compare grids
 * themselves: an Abort-mode cell failure (say, a bad policy spec from
 * the environment) prints the error and exits 1, as runExperiment()
 * does, instead of unwinding into std::terminate.
 */
exp::ExperimentResults
runOrExit(exp::ExperimentRunner &runner, const exp::ExperimentSpec &spec,
          const std::vector<exp::ResultSink *> &sinks = {});

} // namespace trrip::bench

#endif // TRRIP_BENCH_HARNESS_HH
