#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.hh"
#include "common/log.hh"
#include "trace/trace_recorder.hh"

namespace ubrcbench
{

std::string
digestOf(const ubrc::core::SimResult &r)
{
    std::string s;
    auto u = [&s](const char *name, uint64_t v) {
        s += name;
        s += '=';
        s += std::to_string(v);
        s += ';';
    };
    auto d = [&s](const char *name, double v) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        s += name;
        s += '=';
        s += buf;
        s += ';';
    };
    u("cycles", r.cycles);
    u("insts", r.instsRetired);
    d("ipc", r.ipc);
    u("op_bypass", r.opBypass);
    u("op_cache", r.opCache);
    u("op_file", r.opFile);
    u("rc_misses", r.rcMisses);
    u("rc_miss_no_write", r.rcMissNoWrite);
    u("rc_miss_conflict", r.rcMissConflict);
    u("rc_miss_capacity", r.rcMissCapacity);
    d("miss_per_operand", r.missPerOperand);
    u("rc_inserts", r.rcInserts);
    u("rc_fills", r.rcFills);
    u("values_produced", r.valuesProduced);
    u("writes_filtered", r.writesFiltered);
    u("values_never_cached", r.valuesNeverCached);
    u("cached_never_read", r.cachedNeverRead);
    u("cached_total", r.cachedTotal);
    d("avg_occupancy", r.avgOccupancy);
    d("avg_entry_lifetime", r.avgEntryLifetime);
    d("dou_accuracy", r.douAccuracy);
    d("branch_mispredict_rate", r.branchMispredictRate);
    u("mini_replays", r.miniReplays);
    u("issue_group_squashes", r.issueGroupSquashes);
    u("branch_mispredicts", r.branchMispredicts);
    u("mem_order_violations", r.memOrderViolations);
    u("fetch_blocks", r.fetchBlocks);
    u("rename_stalls_regs", r.renameStallsRegs);
    u("rename_stalls_rob", r.renameStallsRob);
    u("rename_stalls_iq", r.renameStallsIq);
    u("file_reads", r.supplier.fileReads);
    u("file_writes", r.supplier.fileWrites);
    return ubrc::trace::fnv1aHex(s);
}

Op
makeOp(const std::string &key, const ubrc::core::SimResult &r, bool ok,
       const std::string &error, double wall_s)
{
    Op op;
    op.key = key;
    op.ok = ok;
    op.error = error;
    op.digest = ok ? digestOf(r) : "";
    op.insts = r.instsRetired;
    op.cycles = r.cycles;
    op.wallS = wall_s;
    return op;
}

uint32_t
SpanLog::open(const std::string &name, uint32_t parent,
              const std::string &key)
{
    if (!on)
        return 0;
    Span s;
    s.id = static_cast<uint32_t>(log.size() + 1);
    s.parent = parent;
    s.name = name;
    s.key = key;
    s.startS = secondsSince(origin);
    log.push_back(std::move(s));
    return log.back().id;
}

void
SpanLog::close(uint32_t id)
{
    if (on && id != 0)
        log[id - 1].endS = secondsSince(origin);
}

void
Report::check(const std::string &name, bool ok, const std::string &text)
{
    checks.push_back({name, ok, text});
}

namespace
{

void
writeOps(ubrc::json::Writer &w, const std::vector<Op> &ops)
{
    w.beginArray();
    for (const Op &op : ops) {
        w.beginObject();
        w.field("key", op.key);
        w.field("ok", op.ok);
        w.field("error", op.error);
        w.field("digest", op.digest);
        w.field("insts", op.insts);
        w.field("cycles", op.cycles);
        w.field("wall_s", op.wallS);
        w.field("round", op.round);
        w.endObject();
    }
    w.endArray();
}

void
writeMap(ubrc::json::Writer &w, const std::map<std::string, double> &m)
{
    w.beginObject();
    for (const auto &[k, v] : m)
        w.field(k, v);
    w.endObject();
}

} // namespace

void
Report::write(const std::string &path) const
{
    ubrc::json::Writer w(false);
    w.beginObject();
    w.field("workload", workload);
    w.field("seed", seed);
    w.key("build").beginObject();
    w.field("compiler", UBRC_BENCH_COMPILER);
    w.field("build_type", UBRC_BENCH_BUILD_TYPE);
    w.field("lto", UBRC_BENCH_LTO != 0);
    w.endObject();
    w.field("setup_s", setupS);
    w.key("round_s").beginArray();
    for (double s : roundS)
        w.value(s);
    w.endArray();
    w.key("ops");
    writeOps(w, ops);
    w.key("extra_ops");
    writeOps(w, extraOps);
    w.key("checks").beginArray();
    for (const Check &c : checks) {
        w.beginObject();
        w.field("name", c.name);
        w.field("ok", c.ok);
        w.field("detail", c.detail);
        w.endObject();
    }
    w.endArray();
    w.key("layers");
    writeMap(w, layers);
    w.key("detail");
    writeMap(w, detail);
    w.key("spans").beginArray();
    for (const SpanLog::Span &s : spans.spans()) {
        w.beginObject();
        w.field("id", s.id);
        w.field("parent", s.parent);
        w.field("name", s.name);
        w.field("key", s.key);
        w.field("start_s", s.startS);
        w.field("end_s", s.endS);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    std::FILE *f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (!f)
        ubrc::fatal("ubrc-bench: cannot write '%s'", path.c_str());
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    if (f != stdout && std::fclose(f) != 0)
        ubrc::fatal("ubrc-bench: cannot write '%s'", path.c_str());
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

} // namespace ubrcbench
