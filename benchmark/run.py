#!/usr/bin/env python3
"""Benchmark of the UBRC simulator: build, run, check, report.

    python3 benchmark/run.py [--workload W] [--seed N] [--trace [0|1]]
                             [--repeat N] [--smoke] [--write-expected]

Builds build-bench/ from benchmark/CMakeLists.txt (the product's own
Release + LTO flags), runs each workload in its own processes, checks
every result, and prints every metric by name with its unit. The last
line of output is one JSON object: correct, attempted, failed, metrics.

Workloads (README.md says why each exists):
  exec    12 kernels x 3 schemes x 50k insts, serial, checker on
  sweep   the Fig. 6 grid (28 configs x 12 kernels x 10k insts) as one
          runSuites batch
  replay  the 24-point replay surface over 12 traces recorded in set-up
  serve   ubrcsim-server driven over its pipes, closed loop

The timed phase lasts run_seconds of BENCHMARK.json (0.5 s under
--smoke). --seconds is accepted for the usual benchmark calling
convention, but only with that value.

--trace 1 reports the per-layer metrics of BENCHMARK.json instead of
the end-to-end ones and writes build-bench/out/trace-<workload>.json.
--repeat N runs each workload N times at --seed (host noise alone) and
N times at N other seeds (host noise plus the seed's effect on the
work), and reports each metric's median, quartiles and both spreads
against its bound. --write-expected regenerates the pinned digests in
benchmark/expected/ (seeds 1 and 2).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# Running the benchmark leaves nothing beside its sources.
sys.dont_write_bytecode = True
import serve  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
OUT = os.path.join(BUILD, "out")
BENCH = os.path.join(BUILD, "ubrc-bench")
SERVER = os.path.join(BUILD, "ubrc", "tools", "ubrcsim-server")
EXPECTED = os.path.join(HERE, "expected")
WORKLOADS = ("exec", "sweep", "replay", "serve")
PINNED_SEEDS = (1, 2)
CHILD_TIMEOUT_S = 170

# Run sizes. --smoke shrinks every budget so all four workloads finish
# in well under 30 s; its runs are never checked against the pins.
SIZES = {
    False: {"exec": 50000, "sweep": 10000, "replay": 20000,
            "serve_trace": 20000, "serve_budgets": (20000, 50000, 100000),
            "probe": 20000, "probe_serve_trace": 5000,
            "probe_serve_budgets": (5000, 10000, 20000),
            # Set-ups per run, each in a fresh process; setup_s is
            # their median. Cheap set-ups repeat more.
            "setup_reps": {"exec": 9, "sweep": 9, "replay": 5,
                           "serve": 5}},
    True: {"exec": 4000, "sweep": 2000, "replay": 3000,
           "serve_trace": 2000, "serve_budgets": (2000, 3000, 5000),
           "probe": 2000, "probe_serve_trace": 1000,
           "probe_serve_budgets": (1000, 2000),
           "setup_reps": {"exec": 1, "sweep": 1, "replay": 1,
                          "serve": 1}},
}
SERVE_OUTSTANDING = 6


class BenchError(Exception):
    """The benchmark could not measure (build or child failure)."""


def log(msg):
    print(msg, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- build ---------------------------------------------------------------

def build(logf):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no simulator sources beside benchmark/; run from "
                         "a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD, "--target", "ubrc-bench",
                  "ubrcsim-server", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.call(cmd, cwd=ROOT, stdout=logf,
                           stderr=subprocess.STDOUT) != 0:
            raise BenchError("build failed: %s (log: %s)"
                             % (" ".join(cmd), logf.name))


# --- children ------------------------------------------------------------

def run_bench(mode, args, logf):
    """Run one ubrc-bench mode: (its JSON document, peak RSS MB)."""
    out = os.path.join(OUT, "%s-raw.json" % mode)
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.Popen([BENCH, mode] + [str(a) for a in args]
                            + ["--out", out], cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=logf)
    rss = serve.wait_rss(proc, CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError("ubrc-bench %s failed (exit %s; log: %s)"
                         % (mode, proc.returncode, logf.name))
    with open(out) as f:
        return json.load(f), rss


def jobs():
    """Worker threads for parallel phases: up to 3, one CPU left for
    this script and the host. On a shared 4-CPU host, 4 workers gave
    sweep twice the run-to-run spread of 3."""
    return max(1, min(3, (os.cpu_count() or 1) - 1))


# --- correctness ---------------------------------------------------------

def pins_path(workload, seed):
    return os.path.join(EXPECTED, "%s-seed%d.json" % (workload, seed))


def load_pins(workload, seed, smoke):
    """Pinned outcomes by key, or None for an unpinned seed. Smoke runs
    use other budgets than the pins and are never checked against
    them."""
    path = pins_path(workload, seed)
    if smoke or not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)["pins"]


class Tally:
    """Operations attempted and failed, with the first few failures.

    With pins, the gate runs both ways: an operation of the workload
    itself whose key has no pin fails, and so does a pin that no
    operation matched (see unmatched), so a change of budget or key
    cannot turn the pinned check into a determinism-only one."""

    def __init__(self, pins):
        self.pins = pins
        self.matched = set()
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(note)

    def expected(self, key, got, seen, own):
        """The outcome `key` must have: its pin, else (probe operations
        only, or an unpinned seed) its first-seen outcome. None when an
        operation of the workload has no pin."""
        if self.pins is not None and key in self.pins:
            self.matched.add(key)
            return self.pins[key]
        if self.pins is not None and own:
            return None
        return seen.setdefault(key, got)

    def ops(self, ops, seen, own=True):
        """Digest gate over ubrc-bench operations; `own` is False for
        probe operations outside the workload's pinned set."""
        for op in ops:
            key = op["key"]
            if not op["ok"]:
                self.add(False, "%s: %s" % (key, op["error"]))
                continue
            want = self.expected(key, op["digest"], seen, own)
            self.add(op["digest"] == want, "%s: digest %s, expected %s"
                     % (key, op["digest"], want or "a pin"))

    def unmatched(self):
        """Fail every pin that no operation matched."""
        for key in sorted(set(self.pins or ()) - self.matched):
            self.add(False, "%s: pinned but never run" % key)

    def checks(self, checks):
        for c in checks:
            self.add(c["ok"], "%s: %s" % (c["name"], c["detail"]))


# --- workloads -----------------------------------------------------------

def phase_metrics(rounds):
    """End-to-end throughput and latency of a timed phase. `rounds`
    holds (wall seconds, [(op key, insts, latency ms), ...]) per round.
    Every number covers the whole phase: throughput is its work over
    the rounds' total wall time, and p50/p90 are percentiles of every
    operation's latency."""
    wall = sum(w for w, _ in rounds)
    ops = [op for _, round_ops in rounds for op in round_ops]
    latencies = [lat for _, _, lat in ops]
    return {"sim_ips": sum(insts for _, insts, _ in ops) / wall,
            "ops_per_s": len(ops) / wall,
            "op_p50_ms": serve.percentile(latencies, 0.50),
            "op_p90_ms": serve.percentile(latencies, 0.90)}


class Result:
    def __init__(self, workload, pins):
        self.workload = workload
        self.metrics = {}
        self.tally = Tally(pins)
        self.build = {}
        self.trace_doc = None
        self.info = []
        self.rounds = []


def cpp_setups(workload, seed, reps, sizes, trace_dir, logf):
    """Set-up seconds of `reps` fresh ubrc-bench processes that stop
    after set-up (the measured run adds one more)."""
    return [run_bench(workload, [
        "--seed", seed, "--setup-only", 1, "--insts", sizes[workload],
        "--jobs", jobs(), "--dir", trace_dir], logf)[0]["setup_s"]
        for _ in range(reps)]


def run_cpp(workload, seed, seconds, traced, sizes, smoke, logf):
    """exec, sweep, replay: ubrc-bench processes."""
    res = Result(workload, load_pins(workload, seed, smoke))
    trace_dir = os.path.join(OUT, "traces-" + workload)
    setup = cpp_setups(workload, seed, sizes["setup_reps"][workload] - 1,
                       sizes, trace_dir, logf)
    doc, rss = run_bench(workload, [
        "--seed", seed, "--seconds", seconds, "--trace", int(traced),
        "--insts", sizes[workload], "--probe-insts", sizes["probe"],
        "--jobs", jobs(), "--dir", trace_dir], logf)
    res.build = doc["build"]
    seen = {}
    res.tally.ops(doc["ops"], seen)
    res.tally.ops(doc["extra_ops"], seen, own=False)
    res.tally.checks(doc["checks"])

    if traced:
        layers = dict(doc["layers"])
        probe = server_probe(seed, sizes, logf, res.tally)
        layers.update(probe["layers"])
        res.metrics = layers
        res.trace_doc = {"layers": layers, "detail": doc["detail"],
                         "spans": doc["spans"],
                         "client_spans": probe["spans"]}
        return res

    # Round 0 is the untimed warm-up.
    res.rounds = [(wall, [(op["key"], op["insts"] if op["ok"] else 0,
                           op["wall_s"] * 1e3)
                          for op in doc["ops"] if op["round"] == r])
                  for r, wall in enumerate(doc["round_s"]) if r > 0]
    res.metrics = phase_metrics(res.rounds)
    res.metrics["setup_s"] = statistics.median(setup + [doc["setup_s"]])
    res.metrics["peak_rss_mb"] = rss
    if workload == "exec":
        # Per scheme, comparable with bench_throughput's table.
        per = {}
        for _, ops in res.rounds:
            for key, insts, ms in ops:
                scheme = key.split("/")[1]
                total, wall = per.get(scheme, (0, 0.0))
                per[scheme] = (total + insts, wall + ms / 1e3)
        res.info.append("per scheme: " + ", ".join(
            "%s %.6g insts/s" % (k, i / w) for k, (i, w) in per.items()))
    return res


def serve_session(seed, trace_insts, setup_reps, trace_dir, logf, tally,
                  seen, own):
    """Set up (record traces, start the server, warm its trace cache)
    `setup_reps` times and keep the last server: (server, set-up
    seconds of each repetition, build provenance). `own` says whether
    the warm-up requests belong to the workload's pinned set."""
    server = None
    setup = []
    try:
        for _ in range(setup_reps):
            if server is not None:
                server.close()
                server = None
            t0 = time.perf_counter()
            rec, _ = run_bench("record", [
                "--seed", seed, "--insts", trace_insts, "--dir", trace_dir,
                "--jobs", jobs()], logf)
            server = serve.Server(SERVER, ROOT, logf, workers=jobs())
            # One replay per trace fills the decoded-trace cache.
            warm = [(serve.replay_key(k, 64, 2, trace_insts),
                     {"schema_version": 1, "kind": "sweep-request",
                      "id": "w-" + k, "workload": k,
                      "trace_replay": trace_dir,
                      "config": {"entries": 64, "assoc": 2}})
                    for k in serve.KERNELS]
            outcomes, dups, _ = serve.drive(server, warm, len(warm))
            setup.append(time.perf_counter() - t0)
        tally.ops(rec["ops"], {}, own=False)
        count_serve_failures(tally, outcomes, dups, seen, own)
        return server, setup, rec["build"]
    except BaseException:
        if server is not None:
            server.kill()
        raise


def client_spans(outcomes, t0, parent):
    return [{"id": parent + 1 + i, "parent": parent,
             "name": "serve.request", "key": o.key,
             "start_s": o.sent - t0,
             "end_s": (o.sent - t0) + (o.latency_ms or 0) / 1e3}
            for i, o in enumerate(outcomes)]


def server_probe(seed, sizes, logf, tally):
    """A short server session for runs whose workload has no server."""
    trace_dir = os.path.join(OUT, "probe-serve-traces")
    seen = {}
    server, _, _ = serve_session(seed, sizes["probe_serve_trace"], 1,
                                 trace_dir, logf, tally, seen, own=False)
    t0 = time.perf_counter()
    try:
        outcomes, dups, _ = serve.drive(
            server, serve.request_mix(seed, trace_dir,
                                      sizes["probe_serve_trace"],
                                      sizes["probe_serve_budgets"]),
            SERVE_OUTSTANDING)
    finally:
        drain, _ = server.close()
    lifetime = time.perf_counter() - server.started
    count_serve_failures(tally, outcomes, dups, seen, own=False)
    return {"layers": serve.server_layers(outcomes, drain, lifetime),
            "spans": client_spans(outcomes, t0, 0)}


def count_serve_failures(tally, outcomes, dups, seen, own=True):
    failed = serve.check(
        outcomes, dups, lambda key, got: tally.expected(key, got, seen, own))
    tally.attempted += len(outcomes)
    tally.failed += failed
    if failed and len(tally.notes) < 8:
        tally.notes.append("%d of %d request(s) failed their check"
                           % (failed, len(outcomes)))


def outcome_insts(o):
    got = serve.outcome_of(o)
    return got[0] if isinstance(got, list) else 0


def run_serve(seed, seconds, traced, sizes, smoke, logf):
    res = Result("serve", load_pins("serve", seed, smoke))
    trace_dir = os.path.join(OUT, "serve-traces")
    seen = {}
    server, setup, res.build = serve_session(
        seed, sizes["serve_trace"], sizes["setup_reps"]["serve"], trace_dir,
        logf, res.tally, seen, own=True)
    rounds = serve.request_rounds(seed, trace_dir, sizes["serve_trace"],
                                  sizes["serve_budgets"])
    t0 = time.perf_counter()

    def timed_requests():
        # Whole rounds, so every run weighs the same mix. One closed
        # loop runs through them all, with no drain between rounds.
        yield from next(rounds)
        while time.perf_counter() - t0 < seconds:
            yield from next(rounds)

    try:
        outcomes, dups, wall = serve.drive(server, timed_requests(),
                                           SERVE_OUTSTANDING)
    finally:
        drain, rss = server.close()
    lifetime = time.perf_counter() - server.started
    count_serve_failures(res.tally, outcomes, dups, seen)
    # One loop, so one round; set-up has warmed the trace cache.
    res.rounds = [(wall, [(o.key, outcome_insts(o), o.latency_ms)
                          for o in outcomes if o.doc is not None])]
    res.metrics = phase_metrics(res.rounds)
    res.metrics["setup_s"] = statistics.median(setup)
    res.metrics["peak_rss_mb"] = rss
    if traced:
        doc, _ = run_bench("probe", [
            "--seed", seed, "--probe-insts", sizes["probe"],
            "--jobs", jobs(), "--trace", 1,
            "--dir", os.path.join(OUT, "traces-probe")], logf)
        res.tally.ops(doc["extra_ops"], {}, own=False)
        res.tally.checks(doc["checks"])
        layers = dict(doc["layers"])
        layers.update(serve.server_layers(outcomes, drain, lifetime))
        res.metrics = layers
        res.trace_doc = {"layers": layers, "detail": doc["detail"],
                         "spans": doc["spans"],
                         "client_spans": client_spans(outcomes, t0, 0)}
    return res


def run_workload(workload, seed, seconds, traced, sizes, smoke, logf):
    if workload == "serve":
        return run_serve(seed, seconds, traced, sizes, smoke, logf)
    return run_cpp(workload, seed, seconds, traced, sizes, smoke, logf)


# --- provenance and output -----------------------------------------------

def git_state():
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown", None
    if commit.returncode != 0:
        return "unknown", None
    return commit.stdout.strip(), bool(status.stdout.strip())


def provenance(seed, build_info, load_at_start):
    commit, dirty = git_state()
    return {"commit": commit, "dirty": dirty,
            "compiler": build_info.get("compiler"),
            "build_type": build_info.get("build_type"),
            "lto": build_info.get("lto"),
            "nproc": os.cpu_count(), "loadavg_1m": load_at_start,
            "seed": seed}


def select_metrics(spec, res, traced):
    """The metrics BENCHMARK.json names for this mode, with units."""
    out = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        if m["name"] not in res.metrics:
            raise BenchError("%s reported no %s" % (res.workload, m["name"]))
        out[m["name"]] = {"value": res.metrics[m["name"]],
                          "unit": m["unit"]}
    return out


def report(res, metrics, prov, seed, traced):
    t = res.tally
    log("== %s (seed %d%s) ==" % (res.workload, seed,
                                  ", traced" if traced else ""))
    log("provenance: commit %s%s | %s %s%s | nproc %s | load %.2f"
        % (prov["commit"][:12], " (dirty)" if prov["dirty"] else "",
           prov["compiler"], prov["build_type"],
           " LTO" if prov["lto"] else "", prov["nproc"],
           prov["loadavg_1m"]))
    log("digest: %s" % ("unpinned" if t.pins is None
                        else "pinned (%d of %d matched)"
                        % (len(t.matched), len(t.pins))))
    for name, m in metrics.items():
        log("  %-38s %14.6g %s" % (name, m["value"], m["unit"]))
    log("  %-38s %14.6g fraction (%d of %d failed)"
        % ("error_rate", t.failed / max(1, t.attempted), t.failed,
           t.attempted))
    for line in res.info:
        log("  " + line)
    if traced and res.trace_doc:
        log("  tracing overhead: %.3fx (traced / untraced wall)"
            % res.metrics.get("bench.trace_overhead", 0))
    for note in t.notes:
        log("  FAILED %s" % note)


def write_run_files(res, metrics, prov, traced):
    record = {"workload": res.workload, "provenance": prov,
              "attempted": res.tally.attempted, "failed": res.tally.failed,
              "failures": res.tally.notes, "metrics": metrics}
    with open(os.path.join(OUT, "result-%s.json" % res.workload), "w") as f:
        json.dump(record, f, indent=1)
    if traced and res.trace_doc:
        doc = dict(res.trace_doc, workload=res.workload, provenance=prov)
        with open(os.path.join(OUT, "trace-%s.json" % res.workload),
                  "w") as f:
            json.dump(doc, f)


def measure(spec, workload, seed, seconds, traced, sizes, smoke, logf):
    load = os.getloadavg()[0]
    res = run_workload(workload, seed, seconds, traced, sizes, smoke, logf)
    res.tally.unmatched()
    prov = provenance(seed, res.build, load)
    metrics = select_metrics(spec, res, traced)
    report(res, metrics, prov, seed, traced)
    write_run_files(res, metrics, prov, traced)
    return res, metrics


# --- stability mode --------------------------------------------------------

def quartiles(values):
    """(q1, median, q3, spread) with spread = (q3 - q1) / median, the
    quartiles as statistics.quantiles(values, n=4) gives them."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def repeat(spec, workloads, seed, n, seconds, traced, sizes, smoke, logf):
    """--repeat: each workload n times at `seed` ("host" set: the same
    work every time, so its spread is host noise alone) and n times at
    seeds seed+1 .. seed+n ("seeded" set: host noise plus the seed's
    effect on the work). The two sets' runs alternate, so a slow
    stretch of the host falls on both."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    correct, attempted, failed = True, 0, 0
    for w in workloads:
        values = {"host": {}, "seeded": {}}
        runs = []
        for i in range(n):
            for label, s in (("host", seed), ("seeded", seed + 1 + i)):
                res, metrics = measure(spec, w, s, seconds, traced, sizes,
                                       smoke, logf)
                correct &= res.tally.failed == 0
                attempted += res.tally.attempted
                failed += res.tally.failed
                runs.append({"set": label, "seed": s, "metrics": metrics,
                             "rounds": res.rounds})
                for name, m in metrics.items():
                    values[label].setdefault(name, []).append(m["value"])
        with open(os.path.join(OUT, "repeat-%s.json" % w), "w") as f:
            json.dump(runs, f, indent=1)
        log("== %s: %d runs at seed %d (host) and %d at seeds %d..%d "
            "(seeded) ==" % (w, n, seed, n, seed + 1, seed + n))
        log("  %-38s %12s %12s %12s %7s %7s %6s"
            % ("metric (seeded set)", "q1", "median", "q3", "host",
               "seeded", "bound"))
        for name, v in values["seeded"].items():
            q1, med, q3, spread = quartiles(v)
            host = quartiles(values["host"][name])[3]
            bound = bounds.get(name)
            flag = ""
            if bound is not None and max(spread, host) > bound:
                flag = "  EXCEEDS BOUND"
            elif bound is not None and max(spread, host) > bound / 3:
                flag = "  over a third of bound"
            log("  %-38s %12.6g %12.6g %12.6g %7.4f %7.4f %6s%s"
                % (name, q1, med, q3, host, spread,
                   "-" if bound is None else "%.3f" % bound, flag))
            summary["%s.%s" % (w, name)] = {
                "value": med, "unit": metrics[name]["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": summary}


# --- pinning -----------------------------------------------------------------

def write_expected(workloads, sizes, logf):
    """Regenerate benchmark/expected/ for the pinned seeds."""
    os.makedirs(EXPECTED, exist_ok=True)
    for w in workloads:
        for seed in PINNED_SEEDS:
            if w == "serve":
                pins = serve_pins(seed, sizes, logf)
            else:
                doc, _ = run_bench(w, [
                    "--seed", seed, "--seconds", 0, "--trace", 0,
                    "--insts", sizes[w], "--jobs", jobs(),
                    "--dir", os.path.join(OUT, "traces-" + w)], logf)
                pins = {}
                for op in doc["ops"] + doc["extra_ops"]:
                    if not op["ok"] or pins.setdefault(
                            op["key"], op["digest"]) != op["digest"]:
                        raise BenchError("cannot pin %s: %s"
                                         % (op["key"], op["error"]))
            with open(pins_path(w, seed), "w") as f:
                json.dump({"workload": w, "seed": seed, "pins": pins}, f,
                          indent=1, sort_keys=True)
                f.write("\n")
            log("pinned %d outcome(s) in %s" % (len(pins),
                                                 pins_path(w, seed)))


def serve_pins(seed, sizes, logf):
    """Expected outcome of every serve request, computed through the
    request parser and runOneChecked rather than the server."""
    trace_dir = os.path.join(OUT, "serve-traces")
    run_bench("record", ["--seed", seed, "--insts", sizes["serve_trace"],
                         "--dir", trace_dir, "--jobs", jobs()], logf)
    requests = os.path.join(OUT, "serve-requests.ndjson")
    with open(requests, "w") as f:
        for key, req in serve.request_mix(seed, trace_dir,
                                          sizes["serve_trace"],
                                          sizes["serve_budgets"]):
            if key != "bad":
                f.write(json.dumps({"key": key, "request": req}) + "\n")
    doc, _ = run_bench("expect", ["--requests", requests], logf)
    pins = {"bad": "bad request"}
    for op in doc["ops"]:
        if not op["ok"]:
            raise BenchError("cannot pin %s: %s" % (op["key"], op["error"]))
        pins[op["key"]] = [op["insts"], op["cycles"]]
    return pins


# --- main ----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="must equal run_seconds of BENCHMARK.json, "
                         "which fixes the timed phase's length")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--repeat", type=int, default=0, metavar="N")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets: all workloads in under 30 s")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate the pinned digests (seeds 1, 2)")
    args = ap.parse_args()

    spec = load_spec()
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        ap.error("--seconds must be run_seconds of BENCHMARK.json (%s)"
                 % spec["run_seconds"])
    if args.smoke and args.write_expected:
        ap.error("--write-expected pins full-size runs, not --smoke ones")
    sizes = SIZES[args.smoke]
    seconds = 0.5 if args.smoke else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = bool(args.trace)

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "log.txt"), "w") as logf:
        try:
            build(logf)
            if args.write_expected:
                write_expected(workloads, sizes, logf)
                return 0
            if args.repeat:
                line = repeat(spec, workloads, args.seed, args.repeat,
                              seconds, traced, sizes, args.smoke, logf)
            else:
                line = {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
                for w in workloads:
                    res, metrics = measure(spec, w, args.seed, seconds,
                                           traced, sizes, args.smoke, logf)
                    line["correct"] &= res.tally.failed == 0
                    line["attempted"] += res.tally.attempted
                    line["failed"] += res.tally.failed
                    if len(workloads) == 1:
                        line["metrics"] = metrics
                    else:
                        for name, m in metrics.items():
                            line["metrics"]["%s.%s" % (w, name)] = m
        except BenchError as e:
            print("run.py: %s" % e, file=sys.stderr)
            return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
