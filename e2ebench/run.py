#!/usr/bin/env python3
"""End-to-end benchmark of the design-kit server, with a per-layer replay.

Each workload starts the real `cnfet_dk serve --socket --journal` binary
and drives it from this one process over exactly two connections: a
submitter (closed loop, or open loop for control_plane) and an open-loop
prober that sends health/metrics probes (and, where the workload has no
duplicate submits of its own, warm cache reads) on a fixed period.  Every
latency of an open-loop request is timed from when it was due.

After the served phase, replay.exe re-runs served jobs in-process through
Service.Runner.run and compares each served result with the replayed one
byte for byte: all of them with --trace 1, where the replay also records
spans around each layer and reports the per-layer metrics, and a seeded
quarter of them with --trace 0.

Usage, from the repository root:

    python3 e2ebench/run.py --workload mc_cold --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --smoke        # short traced run of every workload

BENCHMARK.json lists mc_cold and flow_workers.  control_plane runs the same
way but is not listed: its millisecond, fsync-bound latencies did not
repeat within the bounds on a shared 2-core VM.  e2ebench/seeds.json holds
the baseline and the held-out seed.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it list
every metric with its unit and sample count.
"""

import argparse
import atexit
import gc
import itertools
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
RUN_ROOT = "_e2ebench"
EXE = os.path.join("_build", "default", "bin", "cnfet_dk.exe")
REPLAY = os.path.join("_build", "default", BENCH_DIR, "replay.exe")

SETUP_LAUNCHES = 15  # setup_s is the median of this many server starts
PROBE_PERIOD_S = 0.01  # prober: one health or metrics probe per period
METRICS_EVERY = 20  # every 20th probe is a metrics scrape (5 Hz), the rest health
HIT_PERIOD_S = 0.01  # prober warm reads, offset half a period from probes
# closed loop: warm reads are planned for this share of --seconds, which
# ends before the submitter does (at 0.7-1.0 of --seconds), so every warm
# read meets a busy server
HIT_FILL = 0.6
PROBE_PHASE_S = 0.0025  # keeps probes off the open-loop submitter's 5 ms grid
SPIN_S = 0.0005  # open-loop sends: poll instead of sleeping this close to due
CP_RATE = 200.0  # control_plane open-loop submitter, requests per second
CP_WARMUP_JOBS = 2000  # settled jobs the control_plane restart recovers
CHECK_SHARE = 0.25  # untraced runs replay this seeded share of the served jobs
LATE_LIMIT_MS = 5.0  # open-loop lateness p99 above this marks a run invalid
CONNECTIONS = 2  # submitter + prober
CAPACITY = 1024  # queue bound: generous, so no planned request is refused


# select(2) takes its timeout in microseconds; epoll and poll round it up
# to whole milliseconds, which would make the open-loop sends up to 1 ms
# late and put that timer noise into every latency timed from when due
Selector = selectors.SelectSelector

# every server this process starts; killed and reaped at exit, so a run
# that fails half way leaves nothing behind
CHILDREN = []
# a run must end within 180 s of its start (its build excepted)
RUN_DEADLINE = [float("inf")]


def reap_children():
    for proc in CHILDREN:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


atexit.register(reap_children)
# a terminated run exits through atexit too, so its servers are reaped
signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("e2ebench: " + msg)
    sys.exit(code)


def pct(xs, q):
    """q-th percentile (0..100) with linear interpolation."""
    if not xs:
        return float("nan")
    s = sorted(xs)
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


# ---------------------------------------------------------------------------
# Workload generation.  Every workload has a fixed composition: the seed
# picks Monte-Carlo seeds, designs, aspects and the order, never how many
# jobs of each kind run, so kind and cache-hit shares repeat exactly.


class Plan:
    def __init__(self):
        self.jobs = {}  # key -> job document
        self.submits = []  # closed/open loop: (key, trace_id, cold, due_s)
        self.misc = []  # control_plane status/stats slots: (op, due_s)
        self.warm = []  # keys settled before measuring (cache-hit sources)
        self.hit_reads = 0  # closed loop: prober warm reads, one per HIT_PERIOD_S

    def add_job(self, job):
        key = "j%05d" % len(self.jobs)
        self.jobs[key] = job
        return key


def distinct_seeds(rng, n):
    seen = set()
    while len(seen) < n:
        seen.add(rng.randrange(1, 1 << 30))
    out = sorted(seen)
    rng.shuffle(out)
    return out


def exact_shares(rng, n, shares):
    """A shuffled list of n labels with exactly round(share * n) of each
    (the first label takes the remainder)."""
    counts = {k: int(round(v * n)) for k, v in shares[1:]}
    counts[shares[0][0]] = n - sum(counts.values())
    labels = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(labels)
    return labels


# Fault and testgen jobs are sized by trials to a target duration, from
# per-trial costs measured at --domains 2 on a 2-core box; the server runs
# them at --domains 1, where they take about 1.5 times MC_MS (80-190 ms).
# Durations are spread evenly over MC_MS, the same multiset every run: the
# slowest jobs, which set the hit and probe tails here, are then many and
# alike.
MC_MS = (60.0, 120.0)
MC_FAULT = [("NAND3", "new", 24.0), ("NOR3", "new", 24.0),
            ("AOI21", "vulnerable", 22.4), ("AOI22", "vulnerable", 41.0),
            ("NAND3", "old", 22.0), ("NOR3", "old", 21.3)]  # us per trial
MC_TESTGEN = [("NAND2", "s1", 16.4), ("AOI21", "s1", 54.7), ("NOR2", "s2", 20.9)]
# two knob points at one pitch: the per-pitch library build dominates a
# dse job, so this stays near 100 ms
MC_DSE = {"cell": "NAND2", "pitches": [5], "p_metallic": [0.01, 0.1],
          "removal": [0.99], "drives": [1], "schemes": ["s1"],
          "max_trials": 200, "adaptive": False}


def tiny_fault(rng, seed):
    return {"kind": "fault", "cell": rng.choice(["NAND2", "NOR2", "INV", "NAND3", "AOI21"]),
            "trials": rng.randrange(20, 51), "seed": seed}


def sized_trials(k, m, us_per_trial):
    """Trials for the k-th of m jobs, whose target durations spread evenly
    over MC_MS."""
    lo, hi = MC_MS
    return int(round((lo + (hi - lo) * (k + 0.5) / m) * 1000.0 / us_per_trial))


def gen_mc_cold(rng, seconds):
    p = Plan()
    # 6 jobs a second of --seconds end at 0.75-1.0 of it at --domains 1
    n = max(4, int(round(6 * seconds)))
    seeds = distinct_seeds(rng, n + 4)
    labels = exact_shares(rng, n, [("fault", 0), ("testgen", 0.15), ("dse", 0.05)])
    count = {k: labels.count(k) for k in ("fault", "testgen")}
    used = {"fault": 0, "testgen": 0}
    for i, kind in enumerate(labels):
        if kind == "fault":
            k = used["fault"]
            cell, style, cost = MC_FAULT[k % len(MC_FAULT)]
            job = {"kind": "fault", "cell": cell, "style": style,
                   "trials": sized_trials(k, count["fault"], cost), "seed": seeds[i]}
        elif kind == "testgen":
            k = used["testgen"]
            cell, scheme, cost = MC_TESTGEN[k % len(MC_TESTGEN)]
            job = {"kind": "testgen", "cell": cell, "scheme": scheme,
                   "trials": sized_trials(k, count["testgen"], cost), "seed": seeds[i]}
        else:
            job = dict(MC_DSE, kind="dse", seed=seeds[i])
        if kind in used:
            used[kind] += 1
        key = p.add_job(job)
        p.submits.append((key, key, True, None))
    p.warm = [p.add_job(tiny_fault(rng, s)) for s in seeds[n:]]
    p.hit_reads = int(round(HIT_FILL * seconds / HIT_PERIOD_S))
    return p


FLOW_DESIGNS = ["mult8", "mult9", "mult10", "mult11", "lfsr24x60",
                "lfsr32x50", "rand400s%d", "rand600s%d", "rand800s%d"]
# characterize jobs: a fixed prefix of this list every run (a job's digest
# is its cell, drive and loads, so the list is what keeps them distinct);
# cell and drive vary fastest, so every prefix mixes them; 20-120 ms each
CHAR_JOBS = [(c, d, list(loads))
             for k in (1, 2, 3) for loads in itertools.combinations((1, 2, 3, 4, 5), k)
             for c in ("INV", "NAND2") for d in (1, 2, 4)]


def gen_flow_workers(rng, seconds):
    p = Plan()
    # 15 jobs a second of --seconds end at 0.7-1.0 of it
    n = max(5, int(round(15 * seconds)))
    labels = exact_shares(rng, n, [("flow", 0), ("characterize", 0.2)])
    n_char = labels.count("characterize")
    chars = [CHAR_JOBS[i % len(CHAR_JOBS)] for i in range(n_char)]
    if n_char > len(CHAR_JOBS):
        fail("flow_workers: more characterize jobs than distinct templates")
    aspects = set()
    flows = 0
    for kind in labels:
        if kind == "flow":
            spec = FLOW_DESIGNS[flows % len(FLOW_DESIGNS)]
            if "%d" in spec:
                spec = spec % rng.randrange(1, 1000)
            aspect = None
            while aspect is None or aspect in aspects:
                aspect = round(0.75 + 0.5 * rng.random(), 4)
            aspects.add(aspect)
            job = {"kind": "flow", "design": "generated", "spec": spec,
                   "scheme": "s1" if flows % 2 else "s2", "aspect": aspect}
            flows += 1
        else:
            cell, drive, loads = chars.pop()
            job = {"kind": "characterize", "cell": cell, "drive": drive, "loads": loads}
        key = p.add_job(job)
        p.submits.append((key, key, True, None))
    p.warm = [p.add_job(tiny_fault(rng, s)) for s in distinct_seeds(rng, 4)]
    p.hit_reads = int(round(HIT_FILL * seconds / HIT_PERIOD_S))
    return p


def gen_control_plane(rng, seconds, warmup):
    p = Plan()
    n = max(20, int(round(CP_RATE * seconds)))
    labels = exact_shares(rng, n, [("hit", 0), ("cold", 0.25), ("misc", 0.15)])
    cold_n = labels.count("cold")
    seeds = distinct_seeds(rng, warmup + cold_n)
    # job digests print the aspect with %g (six significant digits), so
    # distinct flows need aspects that differ within four decimals
    aspects = rng.sample(range(10000), warmup + cold_n)

    def tiny(i):
        # a fifth of the tiny writes are full_adder flows, the rest
        # fault campaigns of at most 50 trials
        if i % 5 == 0:
            return {"kind": "flow", "design": "full_adder",
                    "aspect": 0.5 + aspects[i] / 1e4}
        return tiny_fault(rng, seeds[i])

    p.warm = [p.add_job(tiny(i)) for i in range(warmup)]
    uses = {}
    cold_i = warmup
    for slot, label in enumerate(labels):
        due = slot / CP_RATE
        if label == "hit":
            key = rng.choice(p.warm)
            uses[key] = uses.get(key, 0) + 1
            p.submits.append((key, "%s/%d" % (key, uses[key]), False, due))
        elif label == "cold":
            key = p.add_job(tiny(cold_i))
            cold_i += 1
            p.submits.append((key, key, True, due))
        else:
            p.misc.append(("status" if slot % 2 else "stats", due))
    return p


# On the closed-loop workloads the prober also submits plan.hit_reads
# duplicates of settled jobs (cache hits), one every HIT_PERIOD_S, so the
# hit count is fixed; control_plane's reads come from its own open loop.
# The closed-loop submitter keeps one job in flight, so one core computes
# and the other is left to the loop and this client.  flow_workers has one
# worker: a cache hit waits for an idle worker, so its latency is set by the
# flow in flight, as mc_cold's is by the job that holds the loop.
WORKLOADS = {
    "mc_cold": {"domains": 1, "workers": 0, "open_loop": False},
    "flow_workers": {"domains": 1, "workers": 1, "open_loop": False},
    "control_plane": {"domains": 1, "workers": 0, "open_loop": True},
}


def generate(name, seed, seconds, smoke):
    rng = random.Random("%s:%d" % (name, seed))
    if name == "mc_cold":
        return gen_mc_cold(rng, seconds)
    if name == "flow_workers":
        return gen_flow_workers(rng, seconds)
    return gen_control_plane(rng, seconds, 200 if smoke else CP_WARMUP_JOBS)


def submit_line(job, trace_id):
    return json.dumps({"op": "submit", "trace_id": trace_id, "job": job},
                      separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Client side of the protocol


class Conn:
    """A non-blocking NDJSON connection.  Every request line gets exactly
    one synchronous reply, in order (accepted/rejected, health, metrics,
    stats, status or error); done events arrive on their own, matched by
    trace_id."""

    def __init__(self, path, server):
        deadline = time.perf_counter() + 120
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if server.poll() is not None:
                    fail("server exited with %s before accepting" % server.returncode)
                if time.perf_counter() > deadline:
                    fail("server did not accept within 120 s")
                time.sleep(0.0005)
        s.setblocking(False)
        self.sock = s
        self.inb = bytearray()
        self.outb = bytearray()
        self.sync = []  # FIFO of (op, trace_id, t_ref) awaiting a sync reply
        self.sync_head = 0
        self.eof = False

    def send(self, op, line, trace_id=None, t_ref=None):
        self.sync.append((op, trace_id, t_ref))
        self.outb += line + b"\n"
        self.flush()

    def flush(self):
        while self.outb:
            try:
                n = self.sock.send(self.outb)
            except BlockingIOError:
                return
            del self.outb[:n]

    def lines(self):
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            self.eof = True
            return []
        self.inb += data
        out = []
        while True:
            i = self.inb.find(b"\n")
            if i < 0:
                return out
            out.append(bytes(self.inb[:i]))
            del self.inb[:i + 1]

    def pop_sync(self):
        if self.sync_head >= len(self.sync):
            return None
        self.sync_head += 1
        return self.sync[self.sync_head - 1]

    def pending_sync(self):
        return len(self.sync) - self.sync_head

    def close(self):
        """Half-close, read to EOF (the server finishes this connection's
        jobs first), then close."""
        self.flush()
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self.sock.setblocking(True)
        self.sock.settimeout(120)
        try:
            while self.sock.recv(1 << 20):
                pass
        except OSError:
            pass
        self.sock.close()


class Run:
    """One served session: the state both connections report into."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # one-line reasons
        self.outstanding = {}  # trace_id -> (key, cold, t_ref)
        self.cold_ms = []  # (key, t_ref, latency_ms) of cold jobs
        self.hit_ms = []  # (t_ref, latency_ms)
        self.probe_ms = []  # (t_ref, latency_ms)
        self.lateness_ms = []
        self.queue_wait_ms = []
        self.done_lines = []  # (key, raw done line)
        self.kinds = {}  # kind -> served done count (cold)
        self.hits = 0
        self.colds = 0
        self.last_metrics = None
        self.last_stats = None
        self.ids = []
        self.t_last_cold = None

    def failed(self, why):
        self.failures.append(why)

    def on_line(self, conn, raw, now):
        try:
            ev = json.loads(raw)
        except ValueError:
            self.failed("unparseable reply: %r" % raw[:120])
            return
        event = ev.get("event")
        if event == "done":
            tid = ev.get("trace_id")
            if tid not in self.outstanding:
                self.failed("done for unknown trace_id %r" % tid)
                return
            key, cold, t_ref = self.outstanding.pop(tid)
            if ev.get("state") != "done":
                self.failed("job %s ended %s" % (tid, ev.get("state")))
                return
            if bool(ev.get("cached")) == cold:
                self.failed("job %s: cached=%s, planned %s" %
                            (tid, ev.get("cached"), "cold" if cold else "hit"))
            self.done_lines.append((key, raw))
            self.queue_wait_ms.append(ev.get("queue_wait_ms", 0.0))
            lat = (now - t_ref) * 1000.0
            if cold:
                self.colds += 1
                self.cold_ms.append((key, t_ref, lat))
                self.kinds[ev.get("kind")] = self.kinds.get(ev.get("kind"), 0) + 1
                self.t_last_cold = now
            else:
                self.hits += 1
                self.hit_ms.append((t_ref, lat))
            return
        head = conn.pop_sync()
        if head is None:
            self.failed("unsolicited reply %r" % raw[:120])
            return
        op, tid, t_ref = head
        if not ev.get("ok"):
            self.failed("%s refused: %s" % (op, raw[:200].decode(errors="replace")))
            if op == "submit":
                self.outstanding.pop(tid, None)
            return
        expect = "accepted" if op == "submit" else op
        if event != expect:
            self.failed("%s answered with %s" % (op, event))
            return
        if op == "submit":
            self.ids.append(ev.get("id"))
        elif op in ("health", "metrics"):
            if t_ref is not None:
                self.probe_ms.append((t_ref, (now - t_ref) * 1000.0))
            if op == "metrics":
                self.last_metrics = ev.get("body", "")
        elif op == "stats":
            self.last_stats = ev


def pump(sel, run, timeout):
    for skey, _ in sel.select(timeout):
        conn = skey.data
        now = time.perf_counter()
        for raw in conn.lines():
            run.on_line(conn, raw, now)
        if conn.eof:
            sel.unregister(conn.sock)
            run.failed("server closed a connection early")
    # a request the socket could not take yet goes out on the next round
    for skey in list(sel.get_map().values()):
        skey.data.flush()


def wait_sync(sel, run, conn, limit_s=60):
    """Block until every request sent on conn has its sync reply."""
    deadline = time.perf_counter() + limit_s
    while conn.pending_sync() and time.perf_counter() < deadline:
        pump(sel, run, 0.05)
        if conn.eof:
            break


# ---------------------------------------------------------------------------
# Server lifecycle


class RunDir:
    """Where one workload's server keeps its socket, journal, cache and log."""

    def __init__(self, workload):
        self.dir = os.path.join(RUN_ROOT, workload)
        self.sock = os.path.join(self.dir, "serve.sock")
        self.journal = os.path.join(self.dir, "serve.journal")
        self.cache = os.path.join(self.dir, "cache")
        self.warm_journal = os.path.join(self.dir, "warm.journal")
        self.log = os.path.join(self.dir, "serve.log")

    def reset_state(self, warm):
        for path in (self.sock, self.journal):
            if os.path.exists(path):
                os.unlink(path)
        if warm:
            shutil.copyfile(self.warm_journal, self.journal)
        elif os.path.isdir(self.cache):
            shutil.rmtree(self.cache)


def start_server(lay, cfg, connections):
    argv = [EXE, "serve", "--socket", lay.sock, "--journal", lay.journal,
            "--cache-dir", lay.cache, "--domains", str(cfg["domains"]),
            "--capacity", str(CAPACITY), "--connections", str(connections)]
    if cfg["workers"]:
        argv += ["--workers", str(cfg["workers"])]
    logf = open(lay.log, "ab")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=logf)
    logf.close()
    CHILDREN.append(proc)
    return proc, t0


def stop_server(proc):
    try:
        return proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("server did not exit after its connections closed")


def health_once(proc, lay, t0):
    """Connect, probe health, return (conn, seconds from exec to reply)."""
    sel = Selector()
    run = Run()
    conn = Conn(lay.sock, proc)
    sel.register(conn.sock, selectors.EVENT_READ, conn)
    conn.send("health", b'{"op":"health"}')
    wait_sync(sel, run, conn)
    sel.close()
    if run.failures or conn.pending_sync():
        fail("setup probe failed: %s" % (run.failures or "no reply"))
    return conn, time.perf_counter() - t0


def measure_setup(lay, cfg, warm):
    samples = []
    for _ in range(SETUP_LAUNCHES):
        lay.reset_state(warm)
        proc, t0 = start_server(lay, cfg, 1)
        conn, secs = health_once(proc, lay, t0)
        samples.append(secs)
        conn.close()
        stop_server(proc)
    return samples


def vm_hwm_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def warm_up(lay, cfg, plan, run):
    """control_plane: settle the warm jobs on a server of their own and keep
    its journal, so every later start recovers thousands of settled jobs."""
    lay.reset_state(False)
    proc, t0 = start_server(lay, cfg, 1)
    conn, _ = health_once(proc, lay, t0)
    sel = Selector()
    sel.register(conn.sock, selectors.EVENT_READ, conn)
    pending = list(plan.warm)
    deadline = time.perf_counter() + 150
    while (pending or run.outstanding) and time.perf_counter() < deadline:
        while pending and len(run.outstanding) < 32:
            key = pending.pop()
            run.outstanding[key] = (key, True, time.perf_counter())
            conn.send("submit", submit_line(plan.jobs[key], key), key)
        pump(sel, run, 0.05)
    sel.close()
    conn.close()
    stop_server(proc)
    if pending or run.outstanding or run.failures:
        fail("warm-up did not settle: %s" % run.failures[:3])
    shutil.copyfile(lay.journal, lay.warm_journal)


def serve_phase(lay, cfg, plan, seconds):
    """The measured session.  Returns the Run and the peak RSS in MB."""
    warm_journal = cfg["open_loop"]
    lay.reset_state(warm_journal)
    run = Run()
    proc, t0 = start_server(lay, cfg, CONNECTIONS)
    prober, _ = health_once(proc, lay, t0)
    submitter = Conn(lay.sock, proc)
    sel = Selector()
    sel.register(prober.sock, selectors.EVENT_READ, prober)
    sel.register(submitter.sock, selectors.EVENT_READ, submitter)

    # warm reads need settled jobs; control_plane's came from its warm-up
    if not cfg["open_loop"]:
        for key in plan.warm:
            run.outstanding[key] = (key, True, time.perf_counter())
            prober.send("submit", submit_line(plan.jobs[key], key), key)
        while run.outstanding and not run.failures:
            pump(sel, run, 0.05)
        run.colds = 0
        run.cold_ms = []
        run.kinds = {}
    uses = {}

    start = time.perf_counter()
    hard_stop = start + 3 * seconds + 30
    next_probe = start + PROBE_PHASE_S
    next_hit = start + PROBE_PHASE_S + HIT_PERIOD_S / 2
    probe_i = hit_i = 0
    subs = list(plan.submits)
    misc = list(plan.misc)
    si = mi = 0
    first_send = None
    submitter_done = False
    while True:
        now = time.perf_counter()
        if now > hard_stop or prober.eof or submitter.eof:
            break
        if cfg["open_loop"]:
            while si < len(subs) and start + subs[si][3] <= now:
                key, tid, cold, due = subs[si]
                run.lateness_ms.append((now - start - due) * 1000.0)
                run.outstanding[tid] = (key, cold, start + due)
                submitter.send("submit", submit_line(plan.jobs[key], tid), tid)
                run.attempted += 1
                si += 1
            while mi < len(misc) and start + misc[mi][1] <= now:
                op, due = misc[mi]
                run.lateness_ms.append((now - start - due) * 1000.0)
                if op == "status" and run.ids:
                    line = json.dumps({"op": "status", "id": run.ids[-1]}).encode()
                else:
                    op, line = "stats", b'{"op":"stats"}'
                submitter.send(op, line)
                run.attempted += 1
                mi += 1
            submitter_done = si >= len(subs) and mi >= len(misc)
        else:
            in_flight = any(v[1] for v in run.outstanding.values())
            if not in_flight and si < len(subs):
                key, tid, cold, _ = subs[si]
                t = time.perf_counter()
                first_send = first_send or t
                run.outstanding[tid] = (key, cold, t)
                submitter.send("submit", submit_line(plan.jobs[key], tid), tid)
                run.attempted += 1
                si += 1
                in_flight = True
            submitter_done = si >= len(subs) and not in_flight
        # the prober runs until the submitter is done and its warm reads
        # are all sent
        if not submitter_done or hit_i < plan.hit_reads:
            while next_probe <= now:
                op = "metrics" if probe_i % METRICS_EVERY == METRICS_EVERY - 1 else "health"
                run.lateness_ms.append((now - next_probe) * 1000.0)
                prober.send(op, b'{"op":"%s"}' % op.encode(), None, next_probe)
                run.attempted += 1
                probe_i += 1
                next_probe = start + PROBE_PHASE_S + probe_i * PROBE_PERIOD_S
            while hit_i < plan.hit_reads and next_hit <= now:
                key = plan.warm[hit_i % len(plan.warm)]
                uses[key] = uses.get(key, 0) + 1
                tid = "%s/%d" % (key, uses[key])
                run.lateness_ms.append((now - next_hit) * 1000.0)
                run.outstanding[tid] = (key, False, next_hit)
                prober.send("submit", submit_line(plan.jobs[key], tid), tid)
                run.attempted += 1
                hit_i += 1
                next_hit = start + PROBE_PHASE_S + (hit_i + 0.5) * HIT_PERIOD_S
        elif not run.outstanding and not prober.pending_sync() and not submitter.pending_sync():
            break
        wake = [next_probe] + ([next_hit] if hit_i < plan.hit_reads else [])
        if cfg["open_loop"]:
            if si < len(subs):
                wake.append(start + subs[si][3])
            if mi < len(misc):
                wake.append(start + misc[mi][1])
        prober_done = submitter_done and hit_i >= plan.hit_reads
        timeout = 0.05 if prober_done else max(0.0, min(wake) - time.perf_counter())
        # sleep until SPIN_S before the next send is due, then poll, so a
        # send leaves on time rather than when a timer wakes this process
        pump(sel, run, 0.0 if timeout <= SPIN_S else min(timeout - SPIN_S, 0.05))
    end = time.perf_counter()
    for tid in list(run.outstanding):
        run.failed("no done event for %s" % tid)
    for conn in (prober, submitter):
        if conn.pending_sync():
            run.failed("%d requests unanswered" % conn.pending_sync())
    # one stats scrape for the counters, then peak RSS while still alive
    submitter.send("stats", b'{"op":"stats"}')
    wait_sync(sel, run, submitter)
    sel.close()
    stats = run.last_stats or {}
    pids = [proc.pid] + [w.get("pid") for w in stats.get("workers", []) if w.get("pid")]
    rss_mb = sum(vm_hwm_kb(p) for p in pids) / 1024.0
    prober.close()
    submitter.close()
    stop_server(proc)
    if cfg["open_loop"]:
        span = (run.t_last_cold or end) - start
    else:
        span = (run.t_last_cold or end) - (first_send or start)
    run.span_s = span
    return run, rss_mb


# ---------------------------------------------------------------------------
# Replay


REF_JOBS = {
    "fault": {"kind": "fault", "cell": "NAND3", "trials": 2000, "seed": 5},
    "testgen": {"kind": "testgen", "cell": "NAND2", "trials": 2000, "seed": 5},
    "dse": dict(MC_DSE, kind="dse", seed=5),
    "flow": {"kind": "flow", "design": "generated", "spec": "mult8"},
    "characterize": {"kind": "characterize", "cell": "NAND2", "loads": [1, 2]},
}


def replay(lay, cfg, plan, runs, trace, recover_journal, seed):
    """Replay served jobs in-process and compare results.  The traced run
    replays every job; an untraced run replays a seeded CHECK_SHARE of the
    distinct jobs (each with every served result for it, cache hits
    included), which keeps it short enough for the timed runs."""
    jobs_path = os.path.join(lay.dir, "jobs.ndjson")
    served_path = os.path.join(lay.dir, "served.ndjson")
    out_path = os.path.join(lay.dir, "replay.json")
    served_keys = set()
    with open(served_path, "wb") as f:
        for run in runs:
            for key, raw in run.done_lines:
                served_keys.add(key)
                f.write(b'{"key":"%s","done":%s}\n' % (key.encode(), raw))
    keys = sorted(served_keys)
    if not trace:
        rng = random.Random("check:%d" % seed)
        keys = [k for k in keys if rng.random() < CHECK_SHARE] or keys[:1]
    with open(jobs_path, "wb") as f:
        for key in keys:
            f.write(submit_line(plan.jobs[key], key) + b"\n")
    argv = [REPLAY, "trace" if trace else "check", "--jobs", jobs_path,
            "--served", served_path, "--out", out_path,
            "--domains", str(cfg["domains"]), "--scratch", lay.dir]
    if trace:
        kinds = {plan.jobs[k]["kind"] for k in served_keys}
        ref_path = os.path.join(lay.dir, "ref.ndjson")
        with open(ref_path, "wb") as f:
            for kind, job in REF_JOBS.items():
                if kind not in kinds:
                    f.write(submit_line(job, "ref." + kind) + b"\n")
        metrics_path = os.path.join(lay.dir, "metrics.prom")
        with open(metrics_path, "w") as f:
            f.write(runs[-1].last_metrics or "")
        argv += ["--ref-jobs", ref_path, "--journal", recover_journal,
                 "--cache-dir", lay.cache, "--metrics-body", metrics_path,
                 "--spans", os.path.join(lay.dir, "spans.json")]
    budget = max(5.0, RUN_DEADLINE[0] - time.perf_counter())
    try:
        r = subprocess.run(argv, stdin=subprocess.DEVNULL, timeout=budget)
    except subprocess.TimeoutExpired:
        fail("replay did not finish within the run's 170 s budget")
    if r.returncode != 0:
        fail("replay failed with exit code %d" % r.returncode)
    with open(out_path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# One workload


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def run_workload(name, seed, seconds, trace, smoke):
    RUN_DEADLINE[0] = time.perf_counter() + 170
    cfg = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # validity: the server's compute parallelism plus this client (one
    # process, both connections) may not exceed the cores
    if max(cfg["domains"], cfg["workers"]) + 1 > nproc:
        fail("refusing %s: --domains %d / --workers %d plus the client exceed nproc %d"
             % (name, cfg["domains"], cfg["workers"], nproc))
    lay = RunDir(name)
    if os.path.isdir(lay.dir):
        shutil.rmtree(lay.dir)
    os.makedirs(lay.dir)
    plan = generate(name, seed, seconds, smoke)

    # the warm-up's done events are served results too, so they are checked
    warm = Run()
    if cfg["open_loop"]:
        warm_up(lay, cfg, plan, warm)
    setup = measure_setup(lay, cfg, cfg["open_loop"])
    # flush what set-up and warm-up wrote, so their write-back does not
    # land on the journal fsyncs of the measured session
    os.sync()
    # no collector pauses in this client while it times the server; the
    # session's garbage is freed by reference counts
    gc.disable()
    run, rss_mb = serve_phase(lay, cfg, plan, seconds)
    gc.enable()
    recover_journal = lay.warm_journal if cfg["open_loop"] else lay.journal
    rep = replay(lay, cfg, plan, [warm, run], trace, recover_journal, seed)

    # correctness: every served result equals the replay's, and the
    # planned shares came back exactly
    for key in rep["mismatches"]:
        run.failed("served result of %s differs from Runner.run" % key)
    planned_cold = sum(1 for s in plan.submits if s[2])
    planned_hits = len(plan.submits) - planned_cold + plan.hit_reads
    planned_kinds = {}
    for key, _, cold, _ in plan.submits:
        if cold:
            k = plan.jobs[key]["kind"]
            planned_kinds[k] = planned_kinds.get(k, 0) + 1
    stats = run.last_stats or {}
    exact = {
        "cold_jobs": run.colds,
        "cache_hits": run.hits,
        "kinds": run.kinds,
        "journal_appends": stats.get("journal_appends"),
        "accepted_submits": len(run.ids),
    }
    if run.colds != planned_cold or run.kinds != planned_kinds:
        run.failed("served job kinds %s, planned %s" % (run.kinds, planned_kinds))
    if run.hits != planned_hits:
        run.failed("served %d cache hits, planned %d" % (run.hits, planned_hits))
    if stats.get("cache_hits") != run.hits:
        run.failed("stats cache_hits %s, observed %d" % (stats.get("cache_hits"), run.hits))
    # every accepted submission is journaled once and settled once
    if stats.get("journal_appends") != 2 * len(run.ids):
        run.failed("journal appends %s for %d submissions"
                   % (stats.get("journal_appends"), len(run.ids)))

    layers = {}
    if trace:
        exec_ms = {j["key"]: j["exec_ms"] for j in rep["jobs"]}
        overhead = [ms - exec_ms[k] for k, _, ms in run.cold_ms if k in exec_ms]
        layers["service.overhead_ms"] = metric(
            statistics.median(overhead) if overhead else float("nan"), "ms", len(overhead))
        layers.update(rep["metrics"])
        # the layer spans must cover each replayed request's wall time, up
        # to what tracing itself costs
        unattributed = layers["bench.unattributed_frac"]["value"]
        overhead_frac = layers["bench.trace_overhead_frac"]["value"]
        if unattributed > max(abs(overhead_frac), 0.01):
            run.failed("%.1f%% of replayed request time is in no layer span "
                       "(trace overhead %.1f%%)" % (100 * unattributed, 100 * overhead_frac))

    cold = [ms for _, _, ms in run.cold_ms]
    hits = [ms for _, ms in run.hit_ms]
    probes = [ms for _, ms in run.probe_ms]
    failed = len(run.failures)
    attempted = max(1, run.attempted)
    e2e = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "jobs_per_s": metric(len(cold) / run.span_s if run.span_s > 0 else 0.0, "1/s", len(cold)),
        "job_p50_ms": metric(pct(cold, 50), "ms", len(cold)),
        "job_p90_ms": metric(pct(cold, 90), "ms", len(cold)),
        "hit_p50_ms": metric(pct(hits, 50), "ms", len(hits)),
        "probe_p50_ms": metric(pct(probes, 50), "ms", len(probes)),
        "failed_frac": metric(failed / attempted, "ratio", attempted),
        "peak_rss_mb": metric(rss_mb, "MB", 1 + cfg["workers"]),
    }
    lateness = pct(run.lateness_ms, 99)
    # hit and probe tails are reported here, without a bound.  p99 sits at
    # the knee where journal-fsync stalls begin (1-2% of requests on a
    # shared 2-core VM); on flow_workers, where hits and probes take under
    # 2 ms, p90 is where the loop's settle work (two journal fsyncs per job)
    # and host stalls start.  Both swing with the host from run to run, so
    # the end-to-end rows stop at p50
    layers.update({
        "hit_p90_ms": metric(pct(hits, 90), "ms", len(hits)),
        "hit_p99_ms": metric(pct(hits, 99), "ms", len(hits)),
        "probe_p90_ms": metric(pct(probes, 90), "ms", len(probes)),
        "probe_p99_ms": metric(pct(probes, 99), "ms", len(probes)),
        "bench.lateness_p99_ms": metric(lateness, "ms", len(run.lateness_ms)),
        "failed_frac": e2e["failed_frac"],
        "service.scheduler.queue_wait_ms": metric(
            statistics.median(run.queue_wait_ms) if run.queue_wait_ms else float("nan"),
            "ms", len(run.queue_wait_ms)),
        "service.scheduler.cache_hit_ratio": metric(
            stats.get("cache_hits", 0) / max(1, stats.get("cache_hits", 0) + stats.get("executed", 0)),
            "ratio", stats.get("cache_hits", 0) + stats.get("executed", 0)),
        "service.journal.appends_per_job": metric(
            (stats.get("journal_appends") or 0) / max(1, len(run.ids)), "count", len(run.ids)),
    })
    valid = lateness <= LATE_LIMIT_MS
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": nproc, "domains": cfg["domains"], "workers": cfg["workers"],
        "connections": CONNECTIONS, "valid": valid, "exact_counts": exact,
        "replay_checked": rep["checked"], "failures": run.failures[:20],
    }
    with open(os.path.join(lay.dir, "result.json"), "w") as f:
        json.dump({"info": info, "end_to_end": e2e, "per_layer": layers}, f, indent=1)
    return info, e2e, layers, attempted, failed


def print_table(title, metrics):
    print(title)
    for k in sorted(metrics):
        m = metrics[k]
        print("  %-40s %14.6g %-6s n=%d" % (k, m["value"], m["unit"], m["samples"]))


def check_sources():
    for path in ("dune-project", os.path.join("bin", "cnfet_dk.ml"),
                 os.path.join("lib", "service", "runner.ml")):
        if not os.path.exists(path):
            fail("run from the repository root: %s is missing" % path)


def build():
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                            "./bin/cnfet_dk.exe", "./%s/replay.exe" % BENCH_DIR],
                           stdin=subprocess.DEVNULL, stdout=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def load_names():
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    return [m["name"] for m in b["end_to_end"]], [m["name"] for m in b["per_layer"]]


def smoke():
    """A short traced run of every workload: every named metric must come
    out with a unit and a sample count, and nothing may fail."""
    e2e_names, layer_names = load_names()
    ok = True
    for name in WORKLOADS:
        info, e2e, layers, attempted, failed = run_workload(name, 1, 1, True, True)
        got = dict(e2e, **layers)
        missing = [n for n in e2e_names + layer_names
                   if n not in got or not got[n].get("unit") or got[n].get("samples", 0) < 1]
        status = "ok"
        if missing or failed or got["failed_frac"]["value"] != 0:
            ok = False
            status = "FAILED missing=%s failures=%s" % (missing, info["failures"][:5])
        print("smoke %-14s attempted=%d %s" % (name, attempted, status))
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    check_sources()
    build()
    if args.smoke:
        sys.exit(smoke())
    if not args.workload:
        fail("--workload is required")
    info, e2e, layers, attempted, failed = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), False)
    for why in info["failures"]:
        log("failure: " + why)
    if not info["valid"]:
        log("INVALID RUN: open-loop lateness p99 above %.1f ms" % LATE_LIMIT_MS)
    print(json.dumps({k: info[k] for k in ("workload", "seed", "nproc", "domains",
                                           "workers", "connections", "valid")}))
    e2e_names, layer_names = load_names()
    shown = layers if args.trace else e2e
    print_table("per-layer metrics" if args.trace else "end-to-end metrics", shown)
    # the result line carries exactly the metrics BENCHMARK.json names
    names = layer_names if args.trace else e2e_names
    shown = {k: shown[k] for k in names}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in shown.items()},
    }))
    # any failure, a served result that differs from Runner.run included,
    # fails the run
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
