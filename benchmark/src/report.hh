/**
 * @file
 * What one ubrc-bench invocation hands back to benchmark/run.py: the
 * timed operations with their result digests, correctness checks,
 * per-layer metrics, and (traced runs only) coarse spans. Everything
 * is written as one JSON document at exit; nothing here runs inside a
 * timed region except Op bookkeeping after each operation returns.
 */

#ifndef UBRC_BENCHMARK_SRC_REPORT_HH
#define UBRC_BENCHMARK_SRC_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/processor.hh"

namespace ubrcbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Canonical digest of a simulation's typed SimResult fields: FNV-1a
 * over "name=value;" text built here, field by field, so it does not
 * depend on any serializer of the product. Doubles enter with nine
 * significant digits.
 */
std::string digestOf(const ubrc::core::SimResult &r);

/** One timed operation: a simulation, a replayed point, a request. */
struct Op
{
    std::string key; ///< "<kernel>/<config>/<insts>"
    bool ok = true;
    std::string error;
    std::string digest;
    uint64_t insts = 0;
    uint64_t cycles = 0;
    double wallS = 0;
    unsigned round = 0; ///< timed-phase round it ran in
};

Op makeOp(const std::string &key, const ubrc::core::SimResult &r,
          bool ok, const std::string &error, double wall_s);

/**
 * Coarse spans (one per simulation, trace phase, batch), kept in
 * memory with their parent ids. A disabled log records nothing and
 * hands out id 0, so untraced runs pay one branch per call site.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }
    uint32_t open(const std::string &name, uint32_t parent,
                  const std::string &key = "");
    void close(uint32_t id);

    struct Span
    {
        uint32_t id = 0, parent = 0;
        std::string name, key;
        double startS = 0, endS = 0;
    };
    const std::vector<Span> &spans() const { return log; }

  private:
    bool on;
    Clock::time_point origin = Clock::now();
    std::vector<Span> log;
};

/** Scoped span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const std::string &name, uint32_t parent,
              const std::string &key = "")
        : spans(log), spanId(log.open(name, parent, key))
    {}
    ~SpanScope() { spans.close(spanId); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint32_t id() const { return spanId; }

  private:
    SpanLog &spans;
    uint32_t spanId;
};

/** The document one ubrc-bench invocation writes. */
struct Report
{
    std::string workload;
    uint64_t seed = 0;
    double setupS = 0;           ///< set-up wall time
    /** Wall time of each round of the timed phase. */
    std::vector<double> roundS;
    std::vector<Op> ops;         ///< timed operations
    /** Operations outside the timed phase (recordings, probes). */
    std::vector<Op> extraOps;
    struct Check
    {
        std::string name;
        bool ok = true;
        std::string detail;
    };
    std::vector<Check> checks;
    std::map<std::string, double> layers;
    /** Per-stage supplier breakdown and other traced-run detail. */
    std::map<std::string, double> detail;
    SpanLog spans{false};

    void check(const std::string &name, bool ok,
               const std::string &detail = "");

    /** Write the whole document to `path` ("-" for stdout). */
    void write(const std::string &path) const;
};

/** Nearest-rank percentile (q in [0, 1]) of `v`; 0 when empty. */
double percentile(std::vector<double> v, double q);

} // namespace ubrcbench

#endif // UBRC_BENCHMARK_SRC_REPORT_HH
