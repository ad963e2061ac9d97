"""The serve workload: ubrcsim-server driven over its stdin/stdout.

One client thread keeps a fixed number of requests outstanding (a
closed loop: like sweep clients, it sends the next request only when
a reply frees a slot). The loop runs through rounds without pausing
between them; a round sends every request of the mix once, each round
in its own order drawn from the seed:

  62%  execute: every kernel x scheme x budget (20k / 50k / 100k
       instructions), design-point geometry
  28%  trace_replay: every kernel x one of four cache geometries,
       against traces recorded in set-up
  10%  malformed: an unknown request key, rejected at admission

Every request's outcome is checked: executed requests must succeed
with pinned (or, for unpinned seeds, self-consistent) instruction and
cycle counts, malformed ones must come back as "bad request", and no
request may be unanswered, answered twice, or shed.

The server runs with a 16-deep admission queue and a decoded-trace
cache of 12 traces, one per kernel.
"""

import itertools
import json
import math
import os
import random
import select
import subprocess
import time

KERNELS = ("gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon",
           "perlbmk", "gap", "vortex", "bzip2", "twolf")
SCHEMES = ("cached", "monolithic", "two-level")
REPLAY_GEOMETRIES = ((64, 2), (32, 2), (128, 4), (16, 1))
QUEUE = 16
TRACE_CACHE = len(KERNELS)


def replay_key(kernel, entries, assoc, trace_insts):
    return "replay/%s/e%da%d/%d" % (kernel, entries, assoc, trace_insts)


def request_rounds(seed, trace_dir, trace_insts, budgets):
    """Endless rounds of requests, each a list of (key, document)
    pairs. A round holds every combination once, so its work is the
    same for every seed: each kernel x scheme x budget as an execute
    request, each kernel x geometry as a trace replay, and malformed
    requests for a tenth of the round. Each round has its own order,
    drawn from the seed, so the queueing a request meets varies within
    a run instead of being fixed by the seed."""
    mix = []
    for kernel in KERNELS:
        for scheme in SCHEMES:
            for budget in budgets:
                mix.append(("exec/%s/%s/%d" % (kernel, scheme, budget),
                            {"workload": kernel, "seed": seed,
                             "max_insts": budget,
                             "config": {"scheme": scheme}}))
        for entries, assoc in REPLAY_GEOMETRIES:
            mix.append((replay_key(kernel, entries, assoc, trace_insts),
                        {"workload": kernel, "trace_replay": trace_dir,
                         "config": {"entries": entries,
                                    "assoc": assoc}}))
    for i in range(-(-len(mix) // 9)):
        mix.append(("bad", {"workload": KERNELS[i % len(KERNELS)],
                            "warp_factor": 9}))
    rng = random.Random(seed)
    for r in itertools.count():
        order = list(mix)
        rng.shuffle(order)
        yield [(key, dict(doc, schema_version=1, kind="sweep-request",
                          id="%d-%d" % (r, i)))
               for i, (key, doc) in enumerate(order)]


def request_mix(seed, trace_dir, trace_insts, budgets):
    """The first round of request_rounds."""
    return next(request_rounds(seed, trace_dir, trace_insts, budgets))


class Server:
    """One ubrcsim-server child over pipes."""

    def __init__(self, binary, cwd, stderr, workers):
        self.proc = subprocess.Popen(
            [binary, "--workers", str(workers), "--queue", str(QUEUE),
             "--trace-cache", str(TRACE_CACHE)],
            cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=stderr)
        self.started = time.perf_counter()
        self.fd = self.proc.stdout.fileno()
        self.buf = b""
        hello = self.read_line(30)
        if hello is None or json.loads(hello).get("kind") != "server-hello":
            raise RuntimeError("ubrcsim-server did not say hello")

    def send(self, doc):
        self.proc.stdin.write((json.dumps(doc) + "\n").encode())
        self.proc.stdin.flush()

    def read_line(self, timeout):
        """Next response line, or None on EOF or timeout."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            ready, _, _ = select.select([self.fd], [], [], left)
            if not ready:
                return None
            chunk = os.read(self.fd, 1 << 20)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def close(self, timeout=60):
        """EOF the server and reap it: (drain document, peak RSS MB)."""
        self.proc.stdin.close()
        drain = None
        while True:
            line = self.read_line(timeout)
            if line is None:
                break
            doc = json.loads(line)
            if doc.get("kind") == "server-drain":
                drain = doc
        return drain, wait_rss(self.proc, timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def wait_rss(proc, timeout):
    """Reap `proc` (killing it after `timeout` s) and return its peak
    RSS in MB, read with os.wait4."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


class Outcome:
    """Client-side record of one request."""

    __slots__ = ("key", "sent", "latency_ms", "doc", "nbytes")

    def __init__(self, key, sent):
        self.key = key
        self.sent = sent
        self.latency_ms = None
        self.doc = None
        self.nbytes = 0


def drive(server, requests, outstanding, reply_timeout=120):
    """Closed loop over `requests`, an iterable of (key, document):
    keep `outstanding` in flight and wait for every reply. Returns
    (outcomes, duplicate replies, wall seconds)."""
    pending = iter(requests)
    outcomes = {}
    inflight = 0
    duplicates = 0
    t0 = time.perf_counter()
    while True:
        while inflight < outstanding:
            nxt = next(pending, None)
            if nxt is None:
                break
            key, doc = nxt
            outcomes[doc["id"]] = Outcome(key, time.perf_counter())
            server.send(doc)
            inflight += 1
        if inflight == 0:
            break
        line = server.read_line(reply_timeout)
        if line is None:
            break
        now = time.perf_counter()
        doc = json.loads(line)
        o = outcomes.get(doc.get("id"))
        if o is None or o.doc is not None:
            duplicates += 1
            continue
        o.latency_ms = (now - o.sent) * 1e3
        o.doc = doc
        o.nbytes = len(line) + 1
        inflight -= 1
    return list(outcomes.values()), duplicates, time.perf_counter() - t0


def outcome_of(o):
    """(insts, cycles) of an executed reply, the reject kind of a
    rejected one, or None when unanswered or failed."""
    doc = o.doc
    if doc is None:
        return None
    if doc.get("kind") == "sweep-reject":
        return doc["error"]["kind"]
    if doc.get("kind") == "sweep-response" and doc.get("ok"):
        result = doc["outcome"]["result"]
        return [result["insts_retired"], result["cycles"]]
    return None


def check(outcomes, duplicates, expected):
    """Count failed requests. `expected(key, got)` is the outcome a
    request must have: its pin, or its first-seen outcome when
    unpinned; None when it should have had a pin."""
    failed = duplicates
    for o in outcomes:
        got = outcome_of(o)
        if got is None:
            failed += 1
            continue
        want = expected(o.key, got)
        if o.key == "bad":
            want = "bad request"
        elif not isinstance(got, list):
            want = None  # a shed or rejected executable request
        failed += got != want
    return failed


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1]); 0 when empty."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = max(1, math.ceil(q * len(v)))
    return v[min(rank, len(v)) - 1]


def server_layers(outcomes, drain, lifetime_s):
    """server.* per-layer metrics of one session."""
    run, wait, reject, sizes = [], [], [], []
    for o in outcomes:
        if o.doc is None:
            continue
        sizes.append(o.nbytes)
        if o.doc.get("kind") == "sweep-reject":
            reject.append(o.latency_ms)
        else:
            run.append(o.doc["wall_ms"])
            wait.append(o.latency_ms - o.doc["wall_ms"])
    c = drain["counters"] if drain else {}
    hits = c.get("trace_cache_hits", 0)
    lookups = hits + c.get("trace_cache_misses", 0)
    busy_us = 0
    workers = 1
    if drain:
        scalars = drain["sched"]["scalars"]
        workers = max(1, scalars.get("workers", 1))
        busy_us = sum(v for k, v in scalars.items()
                      if k.startswith("busy_us_w"))
    return {
        "server.run_ms_p50": percentile(run, 0.50),
        "server.run_ms_p99": percentile(run, 0.99),
        "server.wait_ms_p50": percentile(wait, 0.50),
        "server.wait_ms_p99": percentile(wait, 0.99),
        "server.reject_ms_p50": percentile(reject, 0.50),
        "server.reject_ms_p99": percentile(reject, 0.99),
        "server.trace_cache_hit_rate": hits / lookups if lookups else 0.0,
        "server.response_bytes_mean":
            sum(sizes) / len(sizes) if sizes else 0.0,
        "server.busy_frac":
            busy_us * 1e-6 / (workers * lifetime_s) if lifetime_s else 0.0,
    }
