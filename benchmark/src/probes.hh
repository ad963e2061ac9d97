/**
 * @file
 * Per-layer measurements for traced runs, each timed from outside the
 * layer's public functions:
 *
 *  - attributeLayers: every (kernel, scheme) simulated twice through
 *    core::Processor, untraced and with the TimingSupplier installed
 *    (core, storage, regcache; the decorator's fidelity checks);
 *  - isaLayer / workloadLayer: FunctionalCore::run and buildWorkload;
 *  - traceLayer: record, loadTrace, decodeTrace, replayDecoded,
 *    streaming replayTrace;
 *  - schedLayer: a runSuites batch against Scheduler::global().stats()
 *    and a serial rerun of the same points.
 *
 * A workload that does not exercise a layer still reports it, from a
 * short probe of that layer, so every traced run carries every
 * per-layer metric.
 */

#ifndef UBRC_BENCHMARK_SRC_PROBES_HH
#define UBRC_BENCHMARK_SRC_PROBES_HH

#include <string>
#include <vector>

#include "report.hh"
#include "sched/scheduler.hh"
#include "sim/runner.hh"
#include "timing_supplier.hh"
#include "workload/workload.hh"

namespace ubrcbench
{

/** A named register-storage design measured by the benchmark. */
struct Scheme
{
    std::string label;
    ubrc::sim::SimConfig cfg;
};

/** The design point, the 3-cycle monolithic file, two-level 64. */
std::vector<Scheme> paperSchemes();

/** "<kernel>/<config>/<insts>": the key pins are stored under. */
std::string opKey(const std::string &kernel, const std::string &config,
                  uint64_t insts);

/** A simulation run through core::Processor directly. */
struct DirectRun
{
    ubrc::core::SimResult result;
    bool ok = true;
    std::string error;
    double runS = 0;   ///< Processor::run alone
    double totalS = 0; ///< construction + run
};

/** `profile` set: decorated with the TimingSupplier and sampled. */
DirectRun runDirect(const ubrc::sim::SimConfig &config,
                    const ubrc::workload::Workload &w, uint64_t insts,
                    SupplierProfile *profile = nullptr);

/**
 * Untraced then traced simulation of every kernel under every paper
 * scheme. Untraced results go to `untraced`, traced ones to `traced`;
 * returns the untraced pass's wall time.
 */
double attributeLayers(Report &rep,
                       const std::vector<ubrc::workload::Workload> &kernels,
                       uint64_t insts, uint32_t parent,
                       std::vector<Op> &untraced, std::vector<Op> &traced);

void isaLayer(Report &rep,
              const std::vector<ubrc::workload::Workload> &kernels,
              uint64_t insts);

void workloadLayer(Report &rep, const std::vector<std::string> &names,
                   const ubrc::workload::WorkloadParams &params);

void traceLayer(Report &rep,
                const std::vector<ubrc::workload::Workload> &kernels,
                uint64_t insts, const std::string &dir, uint32_t parent);

/** One runSuites batch, with scheduler counters around it. */
struct Batch
{
    std::vector<ubrc::sim::SuiteResult> suites;
    double wallS = 0;
    ubrc::sched::SchedStats before, after;
};

Batch runBatch(const std::vector<ubrc::sim::SimConfig> &configs,
               const std::vector<std::string> &names,
               const ubrc::workload::WorkloadParams &params,
               uint64_t insts, unsigned jobs);

/**
 * Scheduler metrics of `batch`; `config` picks the grid row rerun
 * serially (one point per kernel) for the parallel slowdown.
 */
void schedLayer(Report &rep, const Batch &batch,
                const std::vector<ubrc::sim::SimConfig> &configs,
                size_t config, const std::vector<std::string> &names,
                const ubrc::workload::WorkloadParams &params,
                uint64_t insts);

} // namespace ubrcbench

#endif // UBRC_BENCHMARK_SRC_PROBES_HH
