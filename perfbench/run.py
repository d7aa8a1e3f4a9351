"""Serving benchmark for `uxsm serve`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 20 --trace 0

It builds the server and the in-process tracer from the checkout's sources
(release profile, in .bench_build/perfbench), then:

1. set-up: the tracer sets up in-process first; then, with nothing else
   running, `uxsm serve --jobs 1` starts on a Unix socket, registers the
   workload's corpora and answers every distinct request once (timed as
   setup_s, the median over the workload's set-up repetitions);
2. window: `stats_reset`, then the seeded, pre-rendered request sequence
   over one connection, closed loop, each request timed from send to reply,
   in chunks; after each chunk the tracer replays the same requests on the
   server's core, with a span around each layer call; then `stats`.
   Without --trace, a read-only window (query_hot) is not interleaved: the
   tracer answers each of its distinct lines once, after it;
3. checks every server reply against the replay's for the same request
   index, and the server's window counters against the replay's (and
   against an earlier run of the same seed and sources, when there is one).

After every window chunk, a fixed CPython loop is timed on the server's
core while neither the server nor the replay has work. The end-to-end
timings are divided by the host factor (the loop's median time over its
nominal time) measured around them, so that they do not move with the
host's speed; the run record keeps them as measured too.

The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is the full run record (fingerprint, per-op counts and
percentiles, checks).
"""

import argparse
import collections
import gc
import hashlib
import json
import os
import socket
import subprocess
import sys
import time

import perfstats
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".bench_build", "perfbench")
MIRROR = os.path.join(WORK, "src")
TRACER_DIR = "perfbench_trace"
PROFILE = "release"
SCRUBBED_ENV = ("UXSM_JOBS", "UXSM_PAR_THRESHOLD", "UXSM_LOCK_WITNESS", "OCAMLRUNPARAM")
# The counter families whose window totals must repeat exactly across runs
# of one seed and equal the in-process replay's.
DETERMINISTIC = ("server.cache.", "ptq.", "partition.", "murty.", "blocktree.update",
                 "catalog.update")
SERVER_START_TIMEOUT = 60.0
REPLY_TIMEOUT = 60.0


T0 = time.monotonic()


def log(msg):
    print(f"perfbench: [{time.monotonic() - T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def program_files():
    """Every file of the checkout that dune would see, except this
    benchmark's own directory: the program is built from a mirror of
    these, so the repository's own build tree is never touched."""
    bench_top = os.path.relpath(BENCH_DIR, ".").split(os.sep)[0]
    out = []
    for top in sorted(os.listdir(".")):
        if top.startswith((".", "_")) or top == bench_top:
            continue
        if os.path.isfile(top):
            out.append(top)
            continue
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
            out += [os.path.join(root, f) for f in sorted(files)]
    return out


def sync_file(src, dst):
    with open(src, "rb") as f:
        data = f.read()
    if os.path.exists(dst):
        with open(dst, "rb") as f:
            if f.read() == data:
                return data
    os.makedirs(os.path.dirname(dst) or ".", exist_ok=True)
    with open(dst, "wb") as f:
        f.write(data)
    return data


def bench_digest():
    """SHA-256 of the benchmark's own files: a change to the workloads or
    the replay may change the window counters of a seed."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(BENCH_DIR):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            with open(os.path.join(root, f), "rb") as fh:
                digest.update(f.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def build():
    """Mirror the sources (plus the tracer) and build both executables.
    Returns (server, tracer, source digest)."""
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            raise BenchError(f"no {needed} here: run from the root of a uxsm source checkout")
    digest = hashlib.sha256()
    wanted = set()
    for rel in program_files():
        data = sync_file(rel, os.path.join(MIRROR, rel))
        # The digest names the program: documents and records at the top
        # level (README, BENCHMARK.json, BENCH_*.json) do not change it.
        if os.sep in rel or rel in ("dune", "dune-project"):
            digest.update(rel.encode() + b"\0" + data + b"\0")
        wanted.add(os.path.normpath(rel))
    tracer_src = os.path.join(BENCH_DIR, "_tracer")
    for f in sorted(os.listdir(tracer_src)):
        rel = os.path.join(TRACER_DIR, f)
        sync_file(os.path.join(tracer_src, f), os.path.join(MIRROR, rel))
        wanted.add(rel)
    for root, dirs, files in os.walk(MIRROR):
        dirs[:] = [d for d in dirs if d != "_build"]
        for f in files:
            rel = os.path.relpath(os.path.join(root, f), MIRROR)
            if rel not in wanted:
                os.remove(os.path.join(root, f))
    targets = ["bin/uxsm_cli.exe", f"{TRACER_DIR}/perf_trace.exe"]
    cmd = ["dune", "build", "--root", ".", "--profile", PROFILE, "--cache=disabled"] + targets
    try:
        proc = subprocess.run(cmd, cwd=MIRROR, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    except OSError as e:
        raise BenchError(f"cannot run dune: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("build failed")
    exe = [os.path.abspath(os.path.join(MIRROR, "_build", "default", t)) for t in targets]
    return exe[0], exe[1], digest.hexdigest()


# ------------------------------------------------------------ fingerprint

def git_rev():
    """The checkout's commit. GIT_DIR=.git keeps git from searching parent
    directories, so a plain source tree has none."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=dict(os.environ, GIT_DIR=".git"),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(source_digest):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for ln in f:
                if ln.startswith("model name"):
                    cpu = ln.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        ocaml = subprocess.run(["ocamlopt", "-version"], stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    return {"git_rev": git_rev(), "source_sha256": source_digest, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "ocaml_version": ocaml, "build_profile": PROFILE,
            "python": sys.version.split()[0]}


# ----------------------------------------------------------------- server

def cpus():
    """One core for the client, one for the server (and the replay)."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return allowed[0], allowed[-1]


class Server:
    def __init__(self, exe, rundir, cpu):
        sock_path = os.path.join(rundir, "uxsm.sock")
        if os.path.exists(sock_path):
            os.remove(sock_path)
        self.log = open(os.path.join(rundir, "server.log"), "w")
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        preexec = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
        self.proc = subprocess.Popen([exe, "serve", "--socket", "uxsm.sock", "--jobs", "1"],
                                     cwd=rundir, env=env, stdin=subprocess.DEVNULL,
                                     stdout=self.log, stderr=self.log, preexec_fn=preexec)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while True:
            try:
                # Relative to the checkout root: a Unix socket path is
                # limited to ~107 bytes, and the checkout may live deep in
                # the file system.
                self.sock.connect(os.path.relpath(sock_path))
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise BenchError(f"server did not start; see {self.log.name}")
                time.sleep(0.001)
        self.sock.settimeout(REPLY_TIMEOUT)
        self.rfile = self.sock.makefile("rb", buffering=1 << 16)

    def send(self, data):
        """One closed-loop request: returns (reply bytes, send-to-reply ns).
        An empty reply means the connection was lost."""
        t0 = time.perf_counter_ns()
        self.sock.sendall(data)
        reply = self.rfile.readline()
        return reply, time.perf_counter_ns() - t0

    def request(self, obj_line):
        reply, _ = self.send(obj_line.encode() + b"\n")
        if not reply:
            raise BenchError("server closed the connection")
        return json.loads(reply)

    def cpu_seconds(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        tick = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / tick  # utime + stime

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for ln in f:
                if ln.startswith("VmHWM:"):
                    return int(ln.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self):
        """Ask for a drain, then make sure the process is gone."""
        if self.sock is not None:
            if hasattr(self, "rfile"):
                try:
                    self.request(workloads.line({"op": "shutdown"}))
                except (OSError, ValueError, BenchError):
                    pass
                self.rfile.close()
            self.sock.close()
            self.sock = None
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


# The host's speed drifts by 10-30% in phases of tens of seconds, so runs
# of identical code differ by as much. A fixed CPython loop, independent of
# the program and its build, measures that drift on the server's core.
REF_LOOPS = 60_000
# The loop's median time on the 2-vCPU Xeon VM the benchmark was tuned on:
# a host factor of 1 leaves the timings as measured there.
REF_NOMINAL_NS = 5_000_000
# A chunk's host factor comes from the bursts of the chunks within this
# many of it: one 5 ms burst alone is too noisy, and the host's speed and
# its share of stalls change within seconds.
HOST_NEIGHBOURS = 5


class Reference:
    """Bursts of the reference loop on the server's core, each taken while
    the server and the replay wait. The server's CPU time during the bursts
    is kept: a server that works while idle would slow the loop and so make
    its own timings look faster."""

    def __init__(self, client_cpu, server_cpu):
        self.client_cpu = client_cpu
        self.server_cpu = server_cpu
        self.ns = []
        self.server_cpu_s = 0.0

    def burst(self, server=None):
        if self.server_cpu is not None:
            os.sched_setaffinity(0, {self.server_cpu})
        c0 = server.cpu_seconds() if server is not None else 0.0
        t0 = time.perf_counter_ns()
        x = 0
        for k in range(REF_LOOPS):
            x += k * k
        self.ns.append(time.perf_counter_ns() - t0)
        if server is not None:
            self.server_cpu_s += server.cpu_seconds() - c0
        if self.client_cpu is not None:
            os.sched_setaffinity(0, {self.client_cpu})


class Replay:
    """The tracer as a coprocess: one command per stdin line, each
    acknowledged with "done", output written when stdin closes."""

    def __init__(self, exe, rundir, cpu):
        self.out = os.path.join(rundir, "replay_out.jsonl")
        self.log = open(os.path.join(rundir, "replay.log"), "w")
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        preexec = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
        self.proc = subprocess.Popen([exe, self.out],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True, preexec_fn=preexec)

    def start(self, phase, lines):
        self.proc.stdin.write(json.dumps({"phase": phase, "lines": lines}) + "\n")
        self.proc.stdin.flush()

    def wait(self):
        if self.proc.stdout.readline().strip() != "done":
            self.close()
            raise BenchError(f"in-process replay failed; see {self.log.name}")

    def pin(self, cpu):
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})

    def close(self):
        """Close stdin (the tracer then writes its output) and reap it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        return self.proc.returncode

    def finish(self):
        if self.close() != 0:
            raise BenchError(f"in-process replay failed; see {self.log.name}")
        with open(self.out) as f:
            records = [json.loads(ln) for ln in f]
        return {"requests": records[:-1], "spans": records[-1]["spans"]}


def run_setup(server, plan):
    """The workload's set-up requests; every reply must be ok."""
    replies = []
    for ln in plan.setup:
        reply = server.request(ln)
        if reply.get("ok") is not True:
            raise BenchError(f"set-up request failed: {ln[:120]} -> {reply.get('error')}")
        replies.append(reply)
        if json.loads(ln)["op"] == "match":
            plan.resolve_updates(reply)
    return replies


# Window requests go to the server in chunks of this many. After each
# chunk the reference loop takes one burst, and then, unless the window is
# replayed by line, the replay answers the same chunk on the server's core
# while the server idles.
CHUNK = 25


def measure(server_exe, replay, plan, rundir, ref, by_line):
    """The replay sets up first; then the server sets up (plan.setups
    times; the last server stays up) with no other work on the host; then
    the window, chunk by chunk, interleaved with the replay of each chunk
    and a reference burst after each. With by_line (a read-only window,
    untraced) no replay is interleaved: it answers each distinct line once
    after the window."""
    server_cpu = ref.server_cpu
    replay.start("setup", plan.setup)
    replay.wait()
    replay.pin(server_cpu)
    setup_times = []
    server = None
    try:
        for rep in range(plan.setups):
            t0 = time.perf_counter()
            server = Server(server_exe, rundir, server_cpu)
            setup_replies = run_setup(server, plan)
            setup_times.append(time.perf_counter() - t0)
            if rep + 1 < plan.setups:
                server.stop()
                server = None
        log(f"set up in {setup_times[-1]:.2f}s; window of {len(plan.window)} requests")
        if server.request(workloads.line({"op": "stats_reset"})).get("reset") is not True:
            raise BenchError("stats_reset was refused")
        lines = [ln.encode() + b"\n" for ln in plan.window]
        replies = [b""] * len(lines)
        lat_ns = [0] * len(lines)
        chunk_ns = []
        lost = False
        cpu0 = server.cpu_seconds()
        for c0 in range(0, len(lines), CHUNK):
            c1 = min(len(lines), c0 + CHUNK)
            t_start = time.perf_counter_ns()
            if not lost:
                gc.disable()
                try:
                    for i in range(c0, c1):
                        replies[i], lat_ns[i] = server.send(lines[i])
                        if not replies[i]:
                            lost = True  # the rest count as failed
                            break
                except OSError as e:
                    log(f"window aborted: {e}")
                    lost = True
                gc.enable()
            chunk_ns.append(time.perf_counter_ns() - t_start)
            ref.burst(server)
            if not by_line:
                replay.start("window", plan.window[c0:c1])
                replay.wait()
        while len(ref.ns) < perfstats.MIN_BURSTS:  # a very short window
            ref.burst(server)
        cpu1 = server.cpu_seconds()
        log(f"window done: {sum(chunk_ns) / 1e9:.2f}s of requests")
        stats = server.request(workloads.line({"op": "stats"}))
        rss = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
    if by_line:
        replay.start("window", workloads.distinct(plan.window))
        replay.wait()
    return {"setup_s": setup_times, "setup_replies": setup_replies, "replies": replies,
            "lat_ns": lat_ns, "chunk_ns": chunk_ns, "server_cpu_s": cpu1 - cpu0,
            "stats": stats, "rss_mib": rss}


# ----------------------------------------------------------------- checks

def expand_by_line(trace, plan, first_window):
    """The replay answered each distinct line of a read-only window once:
    give every window index the record of its line. Returns the indices of
    the window queries that compiled a plan (the first of their line)."""
    reqs = trace["requests"]
    lines = workloads.distinct(plan.window)
    record = dict(zip(lines, reqs[first_window:]))
    compiled_lines = {lines[req - first_window] for _, req, name, *_ in trace["spans"]
                      if name == "ptq.compile" and req >= first_window}
    trace["requests"] = reqs[:first_window] + [
        dict(record[ln], i=first_window + j) for j, ln in enumerate(plan.window)]
    first = {ln: first_window + j for j, ln in reversed(list(enumerate(plan.window)))}
    return {first[ln] for ln in compiled_lines}


def reply_matches(server_reply, replay_fields):
    """The server's reply must carry exactly the replay's fields: for a
    query, `relevant` and the consolidated answers (probabilities and match
    counts); for an update, the patch counts; for a register, the element
    counts and capacity; for mappings, the ranked mapping list."""
    fields = {k: v for k, v in server_reply.items() if k != "ok"}
    return server_reply.get("ok") is True and fields == replay_fields


def window_counts(counters):
    return {k: v for k, v in counters.items() if k.startswith(DETERMINISTIC) and v != 0}


def replay_window_counts(trace, first_window):
    total = {}
    extra_hits = 0
    for r in trace["requests"][first_window:]:
        for k, v in r["counters"].items():
            total[k] = total.get(k, 0) + v
        extra_hits += r["extra_hits"]
    # The replay calls mapping_set and prepared ahead of plan, and each such
    # call adds one cache hit the server's single plan call does not make.
    total["server.cache.hits"] = total.get("server.cache.hits", 0) - extra_hits
    return window_counts(total)


def check_repeat(key, counts):
    """Counts must repeat exactly across runs of one seed on one source
    tree; the first run of a key records them."""
    path = os.path.join(WORK, "window_counts.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        return seen[key] == counts
    seen[key] = counts
    with open(path, "w") as f:
        json.dump(seen, f, sort_keys=True)
    return True


# ---------------------------------------------------------------- metrics

def op_of(ln):
    return json.loads(ln)["op"]


def per_op(plan, run, ok, factors):
    """Per op: attempted and failed counts, and the latencies of the
    requests that passed, as measured (raw_ms) and divided by their chunk's
    host factor (lat_ms). The summary's percentiles are of lat_ms."""
    ops = {}
    for i, ln in enumerate(plan.window):
        op = op_of(ln)
        d = ops.setdefault(op, {"attempted": 0, "failed": 0, "lat_ms": [], "raw_ms": []})
        d["attempted"] += 1
        if ok[i]:
            d["raw_ms"].append(run["lat_ns"][i] / 1e6)
            d["lat_ms"].append(run["lat_ns"][i] / 1e6 / factors[i // CHUNK])
        else:
            d["failed"] += 1
    summary = {}
    for op, d in sorted(ops.items()):
        s = {"attempted": d["attempted"], "failed": d["failed"], "samples": len(d["lat_ms"])}
        for p in (50, 90, 99):
            try:
                s[f"p{p}_ms"] = perfstats.nearest_rank(d["lat_ms"], p)
            except perfstats.TooFewSamples:
                s[f"p{p}_ms"] = None
        summary[op] = s
    return ops, summary


def query_class(workload, ln, plan_miss):
    """A query's cost class: on D7, Table III's light (Q1-Q3) or heavy
    (Q4-Q10) pattern, marked +compile when the query missed the plan cache
    (after an update). Every onboard query is the first after its register,
    so onboard has one class by construction."""
    if workload == "onboard":
        return "cold"
    qid = workloads.QUERY_OF_PATTERN[json.loads(ln)["query"]]
    return ("light" if qid in workloads.LIGHT else "heavy") + ("+compile" if plan_miss else "")


def e2e_metrics(plan, run, ops, factors, run_factor, key="lat_ms"):
    """The end-to-end metrics. Window latencies and chunk times are divided
    by their chunk's host factor; the set-up, during which no burst can
    run, by the run's. With key="raw_ms" and factors of 1, the metrics as
    measured."""
    def pct(op, p):
        return perfstats.nearest_rank(ops[op][key], p)
    completed = sum(len(d[key]) for d in ops.values())
    window_s = sum(ns / f for ns, f in zip(run["chunk_ns"], factors)) / 1e9
    return {
        "setup_s": (perfstats.median_or_zero(run["setup_s"]) / run_factor, "s"),
        "req_per_s": (completed / window_s, "req/s"),
        "query_p50_ms": (pct("query", 50), "ms"),
        "query_p90_ms": (pct("query", 90), "ms"),
        "second_op_p50_ms": (pct(plan.second_op, 50), "ms"),
        "second_op_p90_ms": (pct(plan.second_op, 90), "ms"),
        "server_rss_mb": (run["rss_mib"], "MiB"),
    }


Span = collections.namedtuple("Span", "name parent dur_ns self_ns words")


def layer_metrics(run, trace, first_window):
    """Per-layer metrics from the traced replay (spans around each layer
    call, Obs and GC deltas at the same boundaries) plus the untraced run's
    server CPU. A layer that does no work on a workload reports 0."""
    reqs = trace["requests"]
    window = reqs[first_window:]
    n_window = len(window)
    # A span's self time is its duration minus the union of its children.
    children = {}
    for _, _, _, parent, start, end, _ in trace["spans"]:
        children.setdefault(parent, []).append((start, end))
    by_req = {}
    for sid, req, name, parent, start, end, words in trace["spans"]:
        by_req.setdefault(req, []).append(Span(
            name, parent, end - start, perfstats.self_time((start, end), children.get(sid, [])),
            words))

    def spans_named(name, phase="window"):
        out = []
        for r in reqs:
            if phase == "window" and r["phase"] != "window":
                continue
            for s in by_req.get(r["i"], []):
                if s.name == name:
                    out.append((r, s))
        return out

    def med_ms(name, scale=1e6, phase="window"):
        return perfstats.median_or_zero([s.self_ns / scale for _, s in spans_named(name, phase)])

    m = {}
    # server: client latency minus the traced layer calls of the same index,
    # i.e. minus the part of the request's root span its children cover
    residual = {}
    for j, r in enumerate(window):
        root = next(s for s in by_req[r["i"]] if s.parent == -1)
        layer_ns = root.dur_ns - root.self_ns
        residual.setdefault(r["op"], []).append((run["lat_ns"][j] - layer_ns) / 1e6)
    for op in ("query", "query_topk", "mappings", "update", "register"):
        m[f"server.residual_ms.{op}"] = (perfstats.median_or_zero(residual.get(op, [])), "ms")
    m["server.cpu_ms_per_req"] = (run["server_cpu_s"] * 1e3 / n_window, "ms")
    m["protocol.parse_us"] = (med_ms("protocol.parse", 1e3), "us")
    m["catalog.lookup_us"] = (med_ms("catalog.lookup", 1e3), "us")
    hits = len(spans_named("catalog.lookup"))
    misses = len(spans_named("ptq.compile"))
    m["catalog.plan_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["catalog.update_ms"] = (med_ms("catalog.update"), "ms")
    m["catalog.register_ms"] = (med_ms("catalog.register", phase="all"), "ms")
    # matcher: every register of the run, set-up included (on the D7
    # workloads the matcher runs only in set-up)
    match_ms, ns_pair, mwords = [], [], []
    for r, s in spans_named("matcher.match", phase="all"):
        dur = s.self_ns
        pairs = r["reply"]["source_elements"] * r["reply"]["target_elements"]
        match_ms.append(dur / 1e6)
        ns_pair.append(dur / pairs)
        mwords.append(s.words / 1e6)
    m["matcher.match_ms"] = (perfstats.median_or_zero(match_ms), "ms")
    m["matcher.ns_per_pair"] = (perfstats.median_or_zero(ns_pair), "ns")
    m["matcher.alloc_mwords"] = (perfstats.median_or_zero(mwords), "Mwords")
    m["mapping.o_ratio_ms"] = (med_ms("mapping.o_ratio"), "ms")
    m["assignment.top_h_ms"] = (med_ms("assignment.top_h"), "ms")
    m["blocktree.build_ms"] = (med_ms("blocktree.build"), "ms")
    m["ptq.compile_ms"] = (med_ms("ptq.compile"), "ms")

    updates = [r for r in window if r["op"] == "update"]
    builds = [r for r in window if any(s.name == "assignment.top_h" for s in by_req[r["i"]])]

    def prog_span_ms(rs, name):
        return perfstats.median_or_zero([r["spans"][name][1] * 1e3 for r in rs if name in r["spans"]])

    def per(rs, counter):
        return sum(r["counters"].get(counter, 0) for r in rs) / len(rs) if rs else 0.0

    def total(rs, counter):
        return sum(r["counters"].get(counter, 0) for r in rs)

    m["assignment.apply_delta_ms"] = (prog_span_ms(updates, "partition.apply_delta"), "ms")
    m["blocktree.update_ms"] = (prog_span_ms(updates, "blocktree.update"), "ms")
    for counter in ("murty.solves", "murty.expansions", "partition.merges"):
        m[f"{counter}.per_build"] = (per(builds, counter), "count")
        m[f"{counter}.per_update"] = (per(updates, counter), "count")
    rer, reu = total(updates, "partition.components_reranked"), total(updates, "partition.components_reused")
    m["partition.rerank_ratio"] = (rer / (rer + reu) if rer + reu else 0.0, "ratio")
    nreb, nreu = total(window, "blocktree.update.nodes_rebuilt"), total(window, "blocktree.update.nodes_reused")
    m["blocktree.reuse_ratio"] = (nreu / (nreu + nreb) if nreu + nreb else 0.0, "ratio")

    # plan/ptq: execute time and allocation per Table III query (query op)
    # and for query_topk, from the replay's own execute spans
    exec_ms, exec_kw = {}, {}
    executes = []
    for r in window:
        if r["op"] not in ("query", "query_topk"):
            continue
        executes.append(r)
        key = "topk" if r["op"] == "query_topk" else workloads.QUERY_OF_PATTERN[r["reply"]["query"]]
        for s in by_req[r["i"]]:
            if s.name == "ptq.execute":
                exec_ms.setdefault(key, []).append(s.self_ns / 1e6)
                exec_kw.setdefault(key, []).append(s.words / 1e3)
    for key in [q for q, _ in workloads.TABLE3] + ["topk"]:
        m[f"ptq.execute_ms.{key}"] = (perfstats.median_or_zero(exec_ms.get(key, [])), "ms")
        m[f"ptq.alloc_kwords.{key}"] = (perfstats.median_or_zero(exec_kw.get(key, [])), "kwords")
    per_block = sum(1 for r in executes if r["reply"]["evaluator"] == "tree")
    m["plan.per_block_share"] = (per_block / len(executes) if executes else 0.0, "ratio")
    for counter in ("ptq.matcher_invocations", "ptq.join_pairs", "ptq.shared_evaluations",
                    "ptq.direct_evaluations"):
        m[f"{counter}_per_exec"] = (per(executes, counter), "count")
    minor = sum(r["gc"]["minor_collections"] for r in window)
    major = sum(r["gc"]["major_collections"] for r in window)
    m["gc.minor_per_kreq"] = (minor * 1e3 / n_window, "count")
    m["gc.major_per_kreq"] = (major * 1e3 / n_window, "count")
    return m


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be within 1..60")

    server_exe, tracer_exe, digest = build()
    log("built")
    fp = fingerprint(digest)
    plan = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    client_cpu, server_cpu = cpus()
    if client_cpu is not None:
        os.sched_setaffinity(0, {client_cpu})
    rundir = os.path.abspath(os.path.join(WORK, "run"))
    os.makedirs(rundir, exist_ok=True)

    # Per-layer metrics need the replay's spans of every request index.
    by_line = plan.read_only and not args.trace
    ref = Reference(client_cpu, server_cpu)
    replay = Replay(tracer_exe, rundir, cpu=client_cpu)
    try:
        run = measure(server_exe, replay, plan, rundir, ref, by_line)
    except BaseException:
        replay.close()
        raise
    trace = replay.finish()
    log("replay read")
    first_window = len(plan.setup)
    answered = len(workloads.distinct(plan.window)) if by_line else len(plan.window)
    if len(trace["requests"]) != first_window + answered:
        raise BenchError("replay answered a different number of requests")
    if by_line:
        compiled = expand_by_line(trace, plan, first_window)
    else:
        compiled = {req for _, req, name, *_ in trace["spans"] if name == "ptq.compile"}
    replayed = trace["requests"]

    problems = []
    for j, reply in enumerate(run["setup_replies"]):
        if not reply_matches(reply, replayed[j]["reply"]):
            problems.append(f"set-up reply {j} differs from the replay")
    ok = []
    for j, raw in enumerate(run["replies"]):
        try:
            good = bool(raw) and reply_matches(json.loads(raw), replayed[first_window + j]["reply"])
        except ValueError:
            good = False
        ok.append(good)
    mismatches = ok.count(False)
    if mismatches:
        problems.append(f"{mismatches} window replies failed or differ from the replay")

    server_counts = window_counts(run["stats"].get("counters", {}))
    replay_counts = replay_window_counts(trace, first_window)
    if server_counts != replay_counts:
        diff = {k: (server_counts.get(k), replay_counts.get(k))
                for k in sorted(set(server_counts) | set(replay_counts))
                if server_counts.get(k) != replay_counts.get(k)}
        problems.append(f"window counters differ from the replay (server, replay): {diff}")
    repeat_key = f"{args.workload}/{args.seed}/{args.seconds}/{digest}/{bench_digest()}"
    if not check_repeat(repeat_key, server_counts):
        problems.append("window counters differ from an earlier run of this seed")

    factors = perfstats.host_factors(ref.ns, REF_NOMINAL_NS, HOST_NEIGHBOURS)
    run_factor = perfstats.host_factor(ref.ns, REF_NOMINAL_NS)
    burst_s = sum(ref.ns) / 1e9
    # Tick accounting charges an idle server nothing; one tick of slack.
    if ref.server_cpu_s > 0.1 * burst_s + 1.0 / os.sysconf("SC_CLK_TCK"):
        problems.append(f"the server used {ref.server_cpu_s:.3f}s of CPU while idle, during "
                        f"{burst_s:.3f}s of reference bursts")
    ops, op_summary = per_op(plan, run, ok, factors)
    classes = perfstats.cost_classes([
        (run["lat_ns"][j], query_class(args.workload, ln, first_window + j in compiled))
        for j, ln in enumerate(plan.window) if op_of(ln) == "query" and ok[j]])
    try:
        e2e_m = e2e_metrics(plan, run, ops, factors, run_factor)
        e2e_raw = e2e_metrics(plan, run, ops, [1.0] * len(factors), 1.0, key="raw_ms")
    except perfstats.TooFewSamples as e:
        problems.append(f"too few samples: {e}")
        e2e_m, e2e_raw = {}, {}
    layer_m = layer_metrics(run, trace, first_window) if args.trace else {}

    # The same latencies under the names each workload's purpose gives them.
    named = {"query_hot": [("query", "query_p{}_ms", 1.0)],
             "update_mix": [("query", "query_p{}_ms", 1.0), ("update", "update_p{}_ms", 1.0)],
             "onboard": [("register", "register_p{}_s", 1e-3), ("query", "first_query_p{}_ms", 1.0)]}
    op_latencies = {}
    for op, name, scale in named[args.workload]:
        for p in (50, 90):
            v = op_summary.get(op, {}).get(f"p{p}_ms")
            if v is not None:
                op_latencies[name.format(p)] = v * scale

    attempted = len(plan.window)
    failed = mismatches
    record = {
        "kind": "perfbench_run", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fp,
        "requests": attempted, "window_s": sum(run["chunk_ns"]) / 1e9,
        "failure_share": perfstats.failure_share(failed, attempted),
        "host": {"factor": run_factor, "chunk_factor_min": min(factors),
                 "chunk_factor_max": max(factors), "bursts": len(ref.ns),
                 "server_cpu_in_bursts_s": ref.server_cpu_s},
        "setup_s_each": run["setup_s"], "second_op": plan.second_op, "per_op": op_summary,
        "op_latencies": op_latencies, "query_cost_classes": classes,
        "window_counters": server_counts, "problems": problems,
        "metrics": {k: v for k, (v, _) in e2e_m.items()},
        "metrics_as_measured": {k: v for k, (v, _) in e2e_raw.items()},
        "layer_metrics": {k: v for k, (v, _) in layer_m.items()},
    }
    with open(os.path.join(WORK, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    for p in problems:
        log(p)
    chosen = layer_m if args.trace else e2e_m
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(2)
