#include "probes.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "isa/functional_core.hh"
#include "timing_supplier.hh"
#include "trace/trace_recorder.hh"
#include "trace/trace_replay.hh"

namespace ubrcbench
{

using namespace ubrc;

std::vector<Scheme>
paperSchemes()
{
    return {
        {"cached", sim::SimConfig::useBasedCache()},
        {"monolithic", sim::SimConfig::monolithic(3)},
        {"two-level", sim::SimConfig::twoLevelFile(64)},
    };
}

std::string
opKey(const std::string &kernel, const std::string &config,
      uint64_t insts)
{
    return kernel + "/" + config + "/" + std::to_string(insts);
}

DirectRun
runDirect(const sim::SimConfig &config, const workload::Workload &w,
          uint64_t insts, SupplierProfile *profile)
{
    sim::SimConfig cfg = config;
    cfg.maxInsts = insts;
    cfg.validate();

    DirectRun out;
    const Clock::time_point t0 = Clock::now();
    core::Processor proc(cfg, w,
                         profile ? timingWrap(*profile)
                                 : core::Processor::SupplierWrap{});
    const Clock::time_point t1 = Clock::now();
    try {
        if (profile)
            runSampled(proc, *profile);
        else
            proc.run();
    } catch (const sim::SimError &e) {
        out.ok = false;
        out.error = e.what();
    }
    out.runS = secondsSince(t1);
    out.totalS = secondsSince(t0);
    out.result = proc.result();
    return out;
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Stage breakdown and closure check of one scheme's traced runs. */
void
storageMetrics(Report &rep, const std::string &scheme,
               const SupplierProfile &prof, double untraced_run_s,
               uint64_t insts, uint64_t cycles)
{
    // Sample shares apportion the untraced Processor::run time, so
    // the decorator's own cost is left out of every layer.
    const double n = static_cast<double>(insts);
    const double untraced_ns = untraced_run_s * 1e9;
    const double samples = static_cast<double>(prof.totalSamples());
    double storage_ns = 0;
    for (unsigned i = 0; i < numStages; ++i) {
        const double ns =
            ratio(static_cast<double>(prof.samples[i]), samples) *
            untraced_ns;
        storage_ns += ns;
        rep.layers[std::string("storage.") +
                   stageName(static_cast<Stage>(i)) + "_ns_per_inst." +
                   scheme] = ratio(ns, n);
    }
    rep.layers["storage.ns_per_inst." + scheme] = ratio(storage_ns, n);
    rep.layers["storage.calls_per_inst." + scheme] =
        ratio(static_cast<double>(prof.totalCalls()), n);
    rep.layers["core.self_ns_per_inst." + scheme] =
        ratio(static_cast<double>(prof.coreSamples), samples) *
        untraced_ns / n;
    rep.layers["core.ns_per_cycle." + scheme] =
        ratio(untraced_ns, static_cast<double>(cycles));
    rep.layers["core.ipc." + scheme] =
        ratio(n, static_cast<double>(cycles));

    // Core and storage samples together must cover the CPU time the
    // traced runs took: a lost or double-counted stretch shows here.
    const double closure = ratio(samples * prof.periodS, prof.cpuS);
    rep.detail["closure." + scheme] = closure;
    rep.detail["samples." + scheme] = samples;
    rep.check("attribution closure " + scheme,
              std::fabs(closure - 1.0) <= 0.05,
              "core + storage samples cover " + std::to_string(closure) +
                  " x traced Processor::run CPU time");
}

} // namespace

double
attributeLayers(Report &rep, const std::vector<workload::Workload> &kernels,
                uint64_t insts, uint32_t parent, std::vector<Op> &untraced,
                std::vector<Op> &traced)
{
    double untraced_wall = 0, traced_wall = 0;
    uint64_t all_insts = 0, replays = 0;
    double mispredict_sum = 0;
    size_t runs = 0;
    uint64_t rc_misses = 0, rc_operands = 0, filtered = 0, produced = 0;
    double dou_sum = 0, occupancy_sum = 0;
    size_t cached_runs = 0;
    size_t mismatches = 0;

    for (const Scheme &s : paperSchemes()) {
        SupplierProfile prof;
        double untraced_run = 0;
        uint64_t scheme_insts = 0, scheme_cycles = 0;
        for (const workload::Workload &w : kernels) {
            const std::string key = opKey(w.name, s.label, insts);
            DirectRun a, b;
            SupplierProfile p;
            {
                SpanScope span(rep.spans, "sim.untraced", parent, key);
                a = runDirect(s.cfg, w, insts);
            }
            {
                SpanScope span(rep.spans, "sim.traced", parent, key);
                b = runDirect(s.cfg, w, insts, &p);
            }
            untraced.push_back(makeOp(key, a.result, a.ok, a.error,
                                      a.totalS));
            traced.push_back(makeOp(key, b.result, b.ok, b.error,
                                    b.totalS));
            if (!a.ok || !b.ok ||
                untraced.back().digest != traced.back().digest)
                ++mismatches;

            prof.add(p);
            untraced_run += a.runS;
            untraced_wall += a.totalS;
            traced_wall += b.totalS;
            scheme_insts += a.result.instsRetired;
            scheme_cycles += a.result.cycles;

            const core::SimResult &r = a.result;
            all_insts += r.instsRetired;
            replays += r.miniReplays;
            mispredict_sum += r.branchMispredictRate;
            ++runs;
            if (r.supplier.hasCache) {
                rc_misses += r.rcMisses;
                rc_operands += r.operandReads();
                filtered += r.writesFiltered;
                produced += r.valuesProduced;
                dou_sum += r.douAccuracy;
                occupancy_sum += r.avgOccupancy;
                ++cached_runs;
            }
        }
        storageMetrics(rep, s.label, prof, untraced_run, scheme_insts,
                       scheme_cycles);
    }

    rep.check("decorated digests equal untraced", mismatches == 0,
              std::to_string(mismatches) + " of " +
                  std::to_string(runs) + " simulation(s) differ");
    rep.layers["core.replays_per_kinst"] =
        ratio(1000.0 * static_cast<double>(replays),
              static_cast<double>(all_insts));
    rep.layers["frontend.mispredict_rate"] =
        ratio(mispredict_sum, static_cast<double>(runs));
    rep.layers["regcache.miss_per_operand"] =
        ratio(static_cast<double>(rc_misses),
              static_cast<double>(rc_operands));
    rep.layers["regcache.writes_filtered_frac"] =
        ratio(static_cast<double>(filtered),
              static_cast<double>(produced));
    rep.layers["regcache.dou_accuracy"] =
        ratio(dou_sum, static_cast<double>(cached_runs));
    rep.layers["regcache.avg_occupancy"] =
        ratio(occupancy_sum, static_cast<double>(cached_runs));
    rep.layers["bench.trace_overhead"] = ratio(traced_wall, untraced_wall);
    return untraced_wall;
}

void
isaLayer(Report &rep, const std::vector<workload::Workload> &kernels,
         uint64_t insts)
{
    double seconds = 0;
    uint64_t executed = 0;
    for (const workload::Workload &w : kernels) {
        SparseMemory mem;
        w.initMemory(mem);
        isa::FunctionalCore fc(w.program, mem);
        const Clock::time_point t0 = Clock::now();
        executed += fc.run(insts);
        seconds += secondsSince(t0);
    }
    rep.layers["isa.func_ns_per_inst"] =
        ratio(seconds * 1e9, static_cast<double>(executed));
}

void
workloadLayer(Report &rep, const std::vector<std::string> &names,
              const workload::WorkloadParams &params)
{
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r) {
        for (const std::string &name : names) {
            const Clock::time_point t0 = Clock::now();
            const workload::Workload w =
                workload::buildWorkload(name, params);
            ms.push_back(secondsSince(t0) * 1e3);
        }
    }
    rep.layers["workload.build_ms"] = percentile(ms, 0.5);
}

void
traceLayer(Report &rep, const std::vector<workload::Workload> &kernels,
           uint64_t insts, const std::string &dir, uint32_t parent)
{
    sim::SimConfig cfg = sim::SimConfig::useBasedCache();
    cfg.classifyMisses = false;
    sim::SimConfig rec_cfg = cfg;
    rec_cfg.traceMode = sim::TraceMode::Record;
    rec_cfg.traceDir = dir;
    rec_cfg.maxInsts = insts;
    rec_cfg.validate();
    sim::SimConfig exact_cfg = cfg;
    exact_cfg.traceMode = sim::TraceMode::Replay;
    exact_cfg.traceDir = dir;
    sim::SimConfig adaptive_cfg = exact_cfg;
    adaptive_cfg.rc.entries = 32;
    adaptive_cfg.rc.assoc = 4;
    const uint32_t skip = trace::replaySkipMask(exact_cfg);

    double off_s = 0, record_s = 0, load_s = 0, decode_s = 0;
    double exact_s = 0, adaptive_s = 0, stream_s = 0;
    uint64_t recorded_insts = 0, events = 0, decoded_events = 0;
    double bytes = 0, decoded_bytes = 0;
    size_t mismatches = 0;

    for (const workload::Workload &w : kernels) {
        const std::string key = opKey(w.name, "trace-exact", insts);
        {
            SpanScope span(rep.spans, "trace.plain_run", parent, key);
            off_s += runDirect(cfg, w, insts).totalS;
        }
        trace::TraceRecorder recorder;
        core::SimResult recorded;
        {
            SpanScope span(rep.spans, "trace.record", parent, key);
            const Clock::time_point t0 = Clock::now();
            core::Processor proc(rec_cfg, w, trace::recordingWrap(recorder));
            proc.run();
            trace::writeRecordedTrace(rec_cfg, w.name, proc, recorder,
                                      dir);
            recorded = proc.result();
            record_s += secondsSince(t0);
        }
        const std::string path = trace::traceFilePath(dir, w.name);
        recorded_insts += recorded.instsRetired;
        events += recorder.eventCount;
        bytes += static_cast<double>(std::filesystem::file_size(path));

        Clock::time_point t0 = Clock::now();
        trace::RecordedTrace loaded;
        {
            SpanScope span(rep.spans, "trace.load", parent, key);
            loaded = trace::loadTrace(path);
        }
        load_s += secondsSince(t0);

        t0 = Clock::now();
        trace::DecodedTrace decoded;
        {
            SpanScope span(rep.spans, "trace.decode", parent, key);
            decoded = trace::decodeTrace(loaded, skip);
        }
        decode_s += secondsSince(t0);
        decoded_events += decoded.events.size();
        for (const trace::TraceEvent &e : decoded.events)
            decoded_bytes += static_cast<double>(
                sizeof(e) + e.regs.capacity() * sizeof(PhysReg));

        t0 = Clock::now();
        core::SimResult exact;
        {
            SpanScope span(rep.spans, "trace.replay_exact", parent, key);
            exact = trace::replayDecoded(exact_cfg, decoded);
        }
        exact_s += secondsSince(t0);
        if (digestOf(exact) != digestOf(recorded))
            ++mismatches;

        t0 = Clock::now();
        {
            SpanScope span(rep.spans, "trace.replay_adaptive", parent,
                           key);
            trace::replayDecoded(adaptive_cfg, decoded);
        }
        adaptive_s += secondsSince(t0);

        t0 = Clock::now();
        {
            SpanScope span(rep.spans, "trace.replay_stream", parent, key);
            trace::replayTrace(exact_cfg, loaded);
        }
        stream_s += secondsSince(t0);
        rep.extraOps.push_back(makeOp(key, exact, true, "", 0));
    }

    rep.check("trace probe exact replay equals recording",
              mismatches == 0,
              std::to_string(mismatches) + " trace(s) differ");
    const double n_events = static_cast<double>(events);
    const double n_decoded = static_cast<double>(decoded_events);
    rep.layers["trace.record_overhead"] = ratio(record_s, off_s);
    rep.layers["trace.bytes_per_inst"] =
        ratio(bytes, static_cast<double>(recorded_insts));
    rep.layers["trace.load_ms"] =
        ratio(load_s * 1e3, static_cast<double>(kernels.size()));
    rep.layers["trace.decode_ns_per_event"] =
        ratio(decode_s * 1e9, n_events);
    rep.layers["trace.replay_ns_per_event.exact"] =
        ratio(exact_s * 1e9, n_decoded);
    rep.layers["trace.replay_ns_per_event.adaptive"] =
        ratio(adaptive_s * 1e9, n_decoded);
    rep.layers["trace.events_per_inst"] =
        ratio(n_events, static_cast<double>(recorded_insts));
    rep.layers["trace.decoded_bytes_per_event"] =
        ratio(decoded_bytes, n_decoded);
    // A streaming replay task is load + decode-while-replaying; the
    // decode part is what the stream costs beyond a decoded replay.
    const double stream_task = load_s + stream_s;
    rep.layers["trace.load_share"] = std::clamp(
        ratio(load_s + stream_s - exact_s, stream_task), 0.0, 1.0);
}

Batch
runBatch(const std::vector<sim::SimConfig> &configs,
         const std::vector<std::string> &names,
         const workload::WorkloadParams &params, uint64_t insts,
         unsigned jobs)
{
    Batch b;
    sched::Scheduler &sch = sched::Scheduler::global(jobs);
    b.before = sch.stats();
    const Clock::time_point t0 = Clock::now();
    b.suites = sim::runSuites(configs, names, params, insts, jobs);
    b.wallS = secondsSince(t0);
    b.after = sch.stats();
    return b;
}

void
schedLayer(Report &rep, const Batch &batch,
           const std::vector<sim::SimConfig> &configs, size_t config,
           const std::vector<std::string> &names,
           const workload::WorkloadParams &params, uint64_t insts)
{
    std::vector<double> task_s;
    for (const sim::SuiteResult &s : batch.suites)
        for (const sim::WorkloadRun &r : s.runs)
            task_s.push_back(r.wallSeconds);
    double busy_us = 0;
    for (size_t w = 0; w < batch.after.perWorker.size(); ++w)
        busy_us += static_cast<double>(
            batch.after.perWorker[w].busyMicros -
            (w < batch.before.perWorker.size()
                 ? batch.before.perWorker[w].busyMicros
                 : 0));
    const double workers = std::max(1u, batch.after.workers);
    double task_sum = 0;
    for (double t : task_s)
        task_sum += t;

    rep.layers["sched.utilization"] =
        ratio(busy_us * 1e-6, workers * batch.wallS);
    rep.layers["sched.tail_s"] =
        std::max(0.0, batch.wallS - task_sum / workers);
    rep.layers["sched.task_s_p50"] = percentile(task_s, 0.50);
    rep.layers["sched.task_s_p95"] = percentile(task_s, 0.95);
    rep.layers["sched.steals"] =
        static_cast<double>(batch.after.steals - batch.before.steals);
    rep.layers["sched.steal_failures"] = static_cast<double>(
        batch.after.stealFailures - batch.before.stealFailures);

    // The same points, one at a time on this thread.
    double parallel_s = 0, serial_s = 0;
    size_t mismatches = 0;
    for (size_t i = 0; i < names.size(); ++i) {
        const workload::Workload w = workload::buildWorkload(names[i],
                                                             params);
        const Clock::time_point t0 = Clock::now();
        const sim::RunOutcome out =
            sim::runOneChecked(configs[config], w, insts);
        serial_s += secondsSince(t0);
        const sim::WorkloadRun &par = batch.suites[config].runs[i];
        parallel_s += par.wallSeconds;
        const Op op = makeOp(opKey(names[i], "serial", insts), out.result,
                             out.ok, out.message, 0);
        if (!op.ok || par.failed || op.digest != digestOf(par.result))
            ++mismatches;
        rep.extraOps.push_back(op);
    }
    rep.check("serial rerun equals parallel batch", mismatches == 0,
              std::to_string(mismatches) + " point(s) differ");
    rep.layers["sched.parallel_slowdown"] = ratio(parallel_s, serial_s);
}

} // namespace ubrcbench
