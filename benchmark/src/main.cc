/**
 * @file
 * ubrc-bench: the benchmark's C++ harness. benchmark/run.py runs one
 * mode per process and reads back the JSON document it writes.
 *
 *   ubrc-bench exec|sweep|replay --seed N --seconds S [--trace 0|1]
 *                                [--setup-only 1]
 *   ubrc-bench record --seed N --insts N --dir D
 *   ubrc-bench probe --seed N --dir D
 *   ubrc-bench expect --requests FILE
 *
 * Every timed call goes through a layer's public API: buildWorkload,
 * runOneChecked, runSuites, core::Processor (with a benchmark-owned
 * SupplierWrap), FunctionalCore::run, and the trace load/decode/replay
 * functions. Each process times its set-up once; run.py repeats the
 * set-up in fresh processes (--setup-only 1) for its median. After one
 * warm-up round, the timed phase repeats whole rounds of its workload
 * until --seconds have passed, so every round weighs the same mix.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "probes.hh"
#include "regcache/policies.hh"
#include "server/request.hh"

using namespace ubrc;
using namespace ubrcbench;

namespace
{

struct Args
{
    std::string mode;
    uint64_t seed = 1;
    double seconds = 10;
    uint64_t insts = 0;
    unsigned jobs = 4;
    bool trace = false;
    bool setupOnly = false;
    std::string dir = "build-bench/out/traces";
    std::string out = "-";
    std::string requests;
    std::vector<std::string> kernels;
    uint64_t probeInsts = 20000;
};

uint64_t
parseU64(const std::string &flag, const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0')
        fatal("%s: cannot parse '%s'", flag.c_str(), s);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        fatal("usage: ubrc-bench exec|sweep|replay|record|probe|expect "
              "[options]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("option '%s' needs a value", flag.c_str());
        const char *v = argv[++i];
        if (flag == "--seed")
            a.seed = parseU64(flag, v);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (flag == "--insts")
            a.insts = parseU64(flag, v);
        else if (flag == "--probe-insts")
            a.probeInsts = parseU64(flag, v);
        else if (flag == "--jobs")
            a.jobs = static_cast<unsigned>(parseU64(flag, v));
        else if (flag == "--trace")
            a.trace = parseU64(flag, v) != 0;
        else if (flag == "--setup-only")
            a.setupOnly = parseU64(flag, v) != 0;
        else if (flag == "--dir")
            a.dir = v;
        else if (flag == "--out")
            a.out = v;
        else if (flag == "--requests")
            a.requests = v;
        else
            fatal("unknown option '%s'", flag.c_str());
    }
    a.kernels = workload::workloadNames();
    if (a.jobs == 0)
        a.jobs = 1;
    return a;
}

workload::WorkloadParams
paramsOf(const Args &a)
{
    workload::WorkloadParams p;
    p.seed = a.seed;
    return p;
}

std::vector<workload::Workload>
buildKernels(const Args &a)
{
    std::vector<workload::Workload> out;
    for (const std::string &name : a.kernels)
        out.push_back(workload::buildWorkload(name, paramsOf(a)));
    return out;
}

/**
 * Time `setup`, everything the timed phase needs. Returns true when
 * the caller should stop there (--setup-only).
 */
template <typename Fn>
bool
timedSetup(Report &rep, const Args &a, Fn &&setup)
{
    const Clock::time_point t0 = Clock::now();
    setup();
    rep.setupS = secondsSince(t0);
    return a.setupOnly;
}

/**
 * Run `round` once as a warm-up (round 0, before the clock starts),
 * then repeat it until a.seconds have passed (at least once), tagging
 * each round's ops and recording its wall time.
 */
template <typename Fn>
void
timedRounds(Report &rep, const Args &a, Fn &&round)
{
    auto tagged = [&] {
        const size_t first = rep.ops.size();
        const Clock::time_point r0 = Clock::now();
        round();
        rep.roundS.push_back(secondsSince(r0));
        for (size_t i = first; i < rep.ops.size(); ++i)
            rep.ops[i].round = static_cast<unsigned>(rep.roundS.size() - 1);
    };
    tagged();
    const Clock::time_point t0 = Clock::now();
    do
        tagged();
    while (secondsSince(t0) < a.seconds);
}

/** Layers a workload does not exercise itself, from short probes. */
void
probeCommonLayers(Report &rep, const Args &a, uint32_t parent,
                  uint64_t isa_insts)
{
    std::vector<workload::Workload> kernels = buildKernels(a);
    workloadLayer(rep, a.kernels, paramsOf(a));
    isaLayer(rep, kernels, isa_insts);
    // Four kernels keep the decoded traces small; their mix spans
    // short- and long-lived values.
    std::vector<workload::Workload> traced;
    for (const workload::Workload &w : kernels)
        if (w.name == "gzip" || w.name == "gcc" || w.name == "mcf" ||
            w.name == "twolf")
            traced.push_back(w);
    SpanScope span(rep.spans, "probe.trace", parent);
    traceLayer(rep, traced, a.probeInsts, a.dir + "/probe", span.id());
}

void
probeAttribution(Report &rep, const Args &a, uint32_t parent)
{
    SpanScope span(rep.spans, "probe.attribution", parent);
    attributeLayers(rep, buildKernels(a), a.probeInsts, span.id(),
                    rep.extraOps, rep.extraOps);
}

void
probeSched(Report &rep, const Args &a, uint32_t parent)
{
    SpanScope span(rep.spans, "probe.sched", parent);
    const std::vector<sim::SimConfig> configs = {
        sim::SimConfig::useBasedCache(), sim::SimConfig::monolithic(3)};
    const Batch batch =
        runBatch(configs, a.kernels, paramsOf(a), a.probeInsts, a.jobs);
    schedLayer(rep, batch, configs, 0, a.kernels, paramsOf(a),
               a.probeInsts);
}

/** Ops of one runSuites batch, keyed by grid label. */
void
appendBatchOps(std::vector<Op> &ops, const Batch &batch,
               const std::vector<std::string> &labels,
               const std::vector<std::string> &names, uint64_t insts)
{
    for (size_t c = 0; c < batch.suites.size(); ++c)
        for (size_t i = 0; i < names.size(); ++i) {
            const sim::WorkloadRun &r = batch.suites[c].runs[i];
            ops.push_back(makeOp(opKey(names[i], labels[c], insts),
                                 r.result, !r.failed, r.error,
                                 r.wallSeconds));
        }
}

// --- exec -------------------------------------------------------------

void
runExec(Report &rep, const Args &a)
{
    const uint64_t insts = a.insts ? a.insts : 50000;
    std::vector<workload::Workload> kernels;
    if (timedSetup(rep, a, [&] { kernels = buildKernels(a); }))
        return;
    const std::vector<Scheme> schemes = paperSchemes();

    SpanScope root(rep.spans, "exec", 0);
    if (!a.trace) {
        timedRounds(rep, a, [&] {
            for (const workload::Workload &w : kernels)
                for (const Scheme &s : schemes) {
                    const Clock::time_point t0 = Clock::now();
                    const sim::RunOutcome out =
                        sim::runOneChecked(s.cfg, w, insts);
                    rep.ops.push_back(makeOp(opKey(w.name, s.label, insts),
                                             out.result, out.ok,
                                             out.message,
                                             secondsSince(t0)));
                }
        });
        return;
    }
    // Traced: the workload's own round, once untraced and once
    // through the timing decorator; the rest of the layers by probe.
    rep.roundS.push_back(attributeLayers(rep, kernels, insts, root.id(),
                                         rep.ops, rep.extraOps));
    probeCommonLayers(rep, a, root.id(), insts);
    probeSched(rep, a, root.id());
}

// --- sweep ------------------------------------------------------------

void
runSweep(Report &rep, const Args &a)
{
    const uint64_t insts = a.insts ? a.insts : 10000;
    std::vector<sim::SimConfig> configs;
    std::vector<std::string> labels;
    const bool setup_only = timedSetup(rep, a, [&] {
        // The Fig. 6 grid: size x associativity with physical-register
        // indexing, plus monolithic files of 1-4 cycles.
        for (unsigned entries : {16u, 32u, 48u, 64u, 80u, 128u})
            for (unsigned assoc : {1u, 2u, 4u, entries}) {
                sim::SimConfig cfg = sim::SimConfig::useBasedCache();
                cfg.rc.entries = entries;
                cfg.rc.assoc = assoc;
                cfg.rc.indexing = regcache::IndexPolicy::PhysReg;
                configs.push_back(cfg);
                labels.push_back("e" + std::to_string(entries) + "a" +
                                 std::to_string(assoc));
            }
        for (unsigned lat = 1; lat <= 4; ++lat) {
            configs.push_back(sim::SimConfig::monolithic(lat));
            labels.push_back("mono" + std::to_string(lat));
        }
        for (const sim::SimConfig &cfg : configs)
            cfg.validate();
        // runSuites builds the kernels in every batch, so that work
        // stays in the timed phase; the worker pool starts here.
        sched::Scheduler::global(a.jobs);
    });
    if (setup_only)
        return;

    SpanScope root(rep.spans, "sweep", 0);
    if (!a.trace) {
        timedRounds(rep, a, [&] {
            const Batch batch =
                runBatch(configs, a.kernels, paramsOf(a), insts, a.jobs);
            appendBatchOps(rep.ops, batch, labels, a.kernels, insts);
        });
        return;
    }
    Batch batch;
    {
        SpanScope span(rep.spans, "sched.batch", root.id());
        batch = runBatch(configs, a.kernels, paramsOf(a), insts, a.jobs);
    }
    appendBatchOps(rep.ops, batch, labels, a.kernels, insts);
    rep.roundS.push_back(batch.wallS);
    // Serial rerun of the paper's size and associativity.
    const size_t row = static_cast<size_t>(
        std::find(labels.begin(), labels.end(), "e64a2") - labels.begin());
    schedLayer(rep, batch, configs, row, a.kernels, paramsOf(a), insts);
    probeAttribution(rep, a, root.id());
    probeCommonLayers(rep, a, root.id(), insts);
}

// --- replay -----------------------------------------------------------

void
runReplay(Report &rep, const Args &a)
{
    const uint64_t insts = a.insts ? a.insts : 20000;
    sim::SimConfig record_cfg = sim::SimConfig::useBasedCache();
    record_cfg.classifyMisses = false;
    record_cfg.traceMode = sim::TraceMode::Record;
    record_cfg.traceDir = a.dir;

    // Set-up records the design point once per kernel.
    sim::SuiteResult recorded;
    if (timedSetup(rep, a, [&] {
            recorded = sim::runSuite(record_cfg, a.kernels, paramsOf(a),
                                     insts, a.jobs);
        }))
        return;
    for (const sim::WorkloadRun &r : recorded.runs)
        rep.extraOps.push_back(makeOp(opKey(r.workload, "record", insts),
                                      r.result, !r.failed, r.error,
                                      r.wallSeconds));

    // The bench_replay_surface grid: size x assoc x indexing.
    std::vector<sim::SimConfig> grid;
    std::vector<std::string> labels;
    size_t exact_point = 0;
    for (const char *ix : {"preg", "filtered-rr"})
        for (unsigned entries : {16u, 32u, 64u, 128u})
            for (unsigned assoc : {1u, 2u, 4u}) {
                sim::SimConfig cfg = sim::SimConfig::useBasedCache();
                cfg.rc.entries = entries;
                cfg.rc.assoc = assoc;
                cfg.rc.indexing = std::string(ix) == "preg"
                                      ? regcache::IndexPolicy::PhysReg
                                      : regcache::IndexPolicy::
                                            FilteredRoundRobin;
                cfg.classifyMisses = false;
                cfg.traceMode = sim::TraceMode::Replay;
                cfg.traceDir = a.dir;
                if (std::string(ix) == "filtered-rr" && entries == 64 &&
                    assoc == 2)
                    exact_point = grid.size();
                grid.push_back(cfg);
                labels.push_back(std::string(ix) + "-e" +
                                 std::to_string(entries) + "a" +
                                 std::to_string(assoc));
            }

    // The exact-mode point must reproduce its recording bit for bit.
    auto checkExact = [&](size_t first_op) {
        for (size_t i = 0; i < a.kernels.size(); ++i) {
            Op &op = rep.ops[first_op + exact_point * a.kernels.size() + i];
            const sim::WorkloadRun &r = recorded.runs[i];
            if (op.ok && (r.failed || op.digest != digestOf(r.result))) {
                op.ok = false;
                op.error = "exact replay differs from its recording";
            }
        }
    };
    auto replayRound = [&](Batch &batch) {
        const size_t first = rep.ops.size();
        batch = runBatch(grid, a.kernels, paramsOf(a), 0, a.jobs);
        appendBatchOps(rep.ops, batch, labels, a.kernels, insts);
        checkExact(first);
    };

    SpanScope root(rep.spans, "replay", 0);
    if (!a.trace) {
        timedRounds(rep, a, [&] {
            Batch batch;
            replayRound(batch);
        });
        return;
    }
    Batch batch;
    {
        SpanScope span(rep.spans, "sched.batch", root.id());
        replayRound(batch);
    }
    rep.roundS.push_back(batch.wallS);
    schedLayer(rep, batch, grid, exact_point, a.kernels, paramsOf(a), 0);
    probeAttribution(rep, a, root.id());
    probeCommonLayers(rep, a, root.id(), insts);
}

// --- serve support ----------------------------------------------------

/** Record the serve workload's traces (default design point). */
void
runRecord(Report &rep, const Args &a)
{
    sim::SimConfig cfg = sim::SimConfig::useBasedCache();
    cfg.traceMode = sim::TraceMode::Record;
    cfg.traceDir = a.dir;
    const sim::SuiteResult rec =
        sim::runSuite(cfg, a.kernels, paramsOf(a), a.insts, a.jobs);
    for (const sim::WorkloadRun &r : rec.runs)
        rep.ops.push_back(makeOp(opKey(r.workload, "record", a.insts),
                                 r.result, !r.failed, r.error,
                                 r.wallSeconds));
}

/** Per-layer probes for the serve workload's traced run. */
void
runProbe(Report &rep, const Args &a)
{
    SpanScope root(rep.spans, "probe", 0);
    probeAttribution(rep, a, root.id());
    probeCommonLayers(rep, a, root.id(), a.probeInsts);
    probeSched(rep, a, root.id());
}

/**
 * Reference outcomes for sweep requests, computed through the
 * request parser and runOneChecked instead of the server: one
 * {"key": ..., "request": {...}} object per line of a.requests.
 */
void
runExpect(Report &rep, const Args &a)
{
    std::ifstream in(a.requests);
    if (!in)
        fatal("cannot read '%s'", a.requests.c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const json::Value doc = json::parse(line);
        const std::string key = doc.at("key").string;
        const server::SweepRequest req =
            server::parseSweepRequest(doc.at("request"));
        const workload::Workload w =
            workload::buildWorkload(req.workloadName, req.params);
        const sim::RunOutcome out =
            sim::runOneChecked(req.config, w, req.maxInsts);
        rep.ops.push_back(makeOp(key, out.result, out.ok, out.message, 0));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    sched::setGlobalWorkers(a.jobs);

    Report rep;
    rep.workload = a.mode;
    rep.seed = a.seed;
    rep.spans = SpanLog(a.trace);
    try {
        if (a.mode == "exec")
            runExec(rep, a);
        else if (a.mode == "sweep")
            runSweep(rep, a);
        else if (a.mode == "replay")
            runReplay(rep, a);
        else if (a.mode == "record")
            runRecord(rep, a);
        else if (a.mode == "probe")
            runProbe(rep, a);
        else if (a.mode == "expect")
            runExpect(rep, a);
        else
            fatal("unknown mode '%s'", a.mode.c_str());
    } catch (const std::exception &e) {
        fatal("ubrc-bench %s: %s", a.mode.c_str(), e.what());
    }
    rep.write(a.out);
    return 0;
}
