#!/usr/bin/env python3
"""emmver benchmark: four workloads from the paper, verdicts checked against
known answers, end-to-end metrics untraced and per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qsort-proof --seed 1 --seconds 20 --trace 0

The script builds the CLI and the measurement helper (perfbench/helper) with
dune, runs the workload for about --seconds seconds, prints one line per
metric and, as the last line of standard output, a JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 runs the workload once untraced and once traced and
reports the per-layer metrics.  A wrong verdict, an inconclusive result, a
refused submission or a killed worker counts as failed and makes the exit
code 1.  Metric names and units come from BENCHMARK.json; see
perfbench/NOTES.md for the workloads and the metrics.
"""

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

EMMVER = os.path.join("_build", "default", "bin", "main.exe")
HELPER = os.path.join("_build", "default", "perfbench", "helper", "perfhelper.exe")
WORK = ".perfbench_run"

# Known answers, none of them produced by the verifier.  Table 1 of the
# paper and EXPERIMENTS.md: quicksort-n3 P1 and P2 hold, proved at forward
# diameter 32.  Case study II: the lookup engine's write path never delivers
# data, so no hitN witness exists at any depth.  Case study I: Pv is
# falsified with a genuine trace exactly when the filter can output v
# (Designs.Image_filter.reachable_values, printed by the helper's setup).
QSORT_DIAMETER = 32
LOOKUP_DEPTH = 80

# The host's speed drifts by a quarter and more over minutes (other
# tenants share its cores and caches), far beyond any bound worth gating
# on, so times are reported at nominal speed: divided by the host's
# slowdown, measured with two fixed reference computations that use no
# emmver code (perfhelper's compute: sorting, hashing, allocation; chase:
# a walk through a 16 MB ring) and never run beside the workload.  While a
# verification or a round runs, every PAUSE_EVERY seconds its processes
# are stopped, the probe times both once and they are resumed; the pauses
# are taken off the measured time.  The probe's slowdown is the geometric
# mean of the computations' median times over REF, their times at nominal
# speed, and the workloads' times move with about its ELASTICITY-th power:
# over 35 runs of the four workloads on the reference host, log wall time
# against log slowdown gave slopes of 1.46 to 2.00 (r >= 0.96).
# A netlist build is scaled by the compute times measured between the
# builds, in the same process.
REF = {"compute_s": 0.010, "chase_s": 0.007}
ELASTICITY = 1.5
PAUSE_EVERY = 0.5

# Set-ups per run, each a few milliseconds, so no single one is enough:
# SETUP_SAMPLES helper processes building the netlists and on filter-serve
# DAEMON_STARTS daemon starts; setup_s adds their medians.
SETUP_SAMPLES = 7
DAEMON_STARTS = 21
SERVE_WORKERS = 2
STRATA = 24
REPEATS_PER_TENANT = 36
TENANTS = 2

# The lookup-deep property is drawn from the seed (property None).
SINGLE = {
    "qsort-proof": dict(design="quicksort-n3", property="P1", method="emm", depth=100,
                        certify=False),
    "qsort-pba-cert": dict(design="quicksort-n3", property="P2", method="emm-pba", depth=100,
                           certify=True),
    "lookup-deep": dict(design="multiport", property=None, method="emm-falsify",
                        depth=LOOKUP_DEPTH, certify=False),
}

# Counts that must repeat exactly for the same workload and seed; a change
# that moves one changed behaviour.  perfbench/steady.py asserts it.
DETERMINISTIC = [
    "satsolver.conflicts",
    "satsolver.propagations",
    "satsolver.decisions",
    "bmc.queries",
    "bmc.depths",
    "bmc.proof_depth",
    "cnf.vars",
    "cnf.clauses",
    "emm.clauses",
    "emm.aux_vars",
    "emm.init_pairs",
    "pba.kept_latches",
    "pba.stable_depth",
    "cert.drat_steps",
    "vcache.hit_ratio",
    "job_samples",
]

# Processes still running, stopped on any exit path.
LIVE = []


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spawn(argv, **kw):
    """Start a process in a process group of its own, so that stop_all
    also reaches the workers a daemon forks."""
    p = subprocess.Popen(argv, start_new_session=True, **kw)
    LIVE.append(p)
    return p


def reap(p):
    """Wait for p; return its peak resident set (and that of its reaped
    children) in MB, as the kernel reports it to wait4."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(p)
    return usage.ru_maxrss / 1024.0


def stop_all():
    """Stop every process group still running: SIGTERM first (a daemon
    drains), SIGKILL after ten seconds."""
    for p in list(LIVE):
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(p.pid, sig)
                os.killpg(p.pid, signal.SIGCONT)  # stopped for a probe sample
            except OSError:
                pass
            try:
                p.wait(timeout=10)
                break
            except subprocess.TimeoutExpired:
                pass
        LIVE.remove(p)


def run_json(argv, host=None):
    """Run argv to its end and return the last line of its output as JSON;
    with a host, pausing it for probe samples."""
    p = spawn(argv, stdout=subprocess.PIPE)
    with host.pausing(p.pid) if host else contextlib.nullcontext():
        out, _ = p.communicate(timeout=170)
    LIVE.remove(p)
    if p.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(argv), p.returncode))
    return json.loads(out.decode().strip().splitlines()[-1])


class Host:
    """A probe process, the samples it took (times over REF) and the
    pauses it caused, as (start, end) pairs of time.time()."""

    def __init__(self):
        self.proc = spawn([HELPER, "probe"], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.samples, self.pauses = [], []
        # The first samples of a fresh process run slow while its heap grows.
        for _ in range(5):
            self.sample()
        self.samples.clear()

    def sample(self):
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        r = json.loads(self.proc.stdout.readline())
        self.samples.append({k: r[k] / REF[k] for k in REF})

    @contextlib.contextmanager
    def pausing(self, pgid):
        """While the block runs, stop process group pgid every PAUSE_EVERY
        seconds for one probe sample."""
        done = threading.Event()

        def loop():
            while not done.wait(PAUSE_EVERY):
                try:
                    os.killpg(pgid, signal.SIGSTOP)
                except OSError:
                    return
                t0 = time.time()
                try:
                    self.sample()
                finally:
                    t1 = time.time()
                    try:
                        os.killpg(pgid, signal.SIGCONT)
                    except OSError:
                        pass
                self.pauses.append((t0, t1))

        th = threading.Thread(target=loop, daemon=True)
        th.start()
        try:
            yield
        finally:
            done.set()
            th.join()

    def paused(self, start, end):
        """Seconds of pauses between start and end."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.pauses)

    def slowdown(self):
        """The workload's slowdown over nominal speed."""
        probe = statistics.geometric_mean([median([x[k] for x in self.samples]) for k in REF])
        return probe ** ELASTICITY

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        LIVE.remove(self.proc)


def host_slowdown(host):
    """The slowdown from 15 probe samples taken back to back, with nothing
    else of the run's running; closes the probe."""
    for _ in range(15):
        host.sample()
    host.close()
    return host.slowdown()


def report(scaled, raw, intervals, host):
    """The end-to-end metrics at nominal speed.  The raw values, the raw
    time of each verification or round and the probe samples go to stderr
    as one JSON line starting with "raw "."""
    log("raw " + json.dumps({"metrics": raw, "intervals": intervals,
                             "samples": host.samples}))
    host.close()
    return scaled


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))] if s else 0.0


class Tally:
    """Operations attempted and the set of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.flag(what)

    def flag(self, what):
        """Fail the operation checked last."""
        self.failed.add(max(self.attempted - 1, 0))
        log("FAILED: " + what)


def set_up(design, directory=None):
    """SETUP_SAMPLES helper processes build the design's netlists; on
    filter-serve (directory given) DAEMON_STARTS fresh daemons are then
    started, back to back, until they answer hello.  Returns the median
    build time scaled by the slowdown each helper measured between its
    builds, the raw median build time, the raw median daemon start and the
    last helper's output."""
    scaled, builds, starts = [], [], []
    for _ in range(SETUP_SAMPLES):
        o = run_json([HELPER, "setup", design])
        builds.append(o["designs.build_s"])
        scaled.append(o["designs.build_s"] * REF["compute_s"] / o["compute_s"])
    for i in range(DAEMON_STARTS if directory else 0):
        d = Daemon(os.path.join(directory, "setup%d" % i), cli_daemon)
        d.stop()
        starts.append(d.start_s)
    return median(scaled), median(builds), median(starts), o


# {1 Single-caller workloads}


def job_argv(name, seed, trace):
    w = SINGLE[name]
    prop = w["property"] or "hit%d" % (seed % 8)
    argv = [HELPER, "job", "--design", w["design"], "--property", prop,
            "--method", w["method"], "--depth", str(w["depth"])]
    if w["certify"]:
        argv.append("--certify")
    if trace:
        argv.append("--trace")
    return argv


def check_single(name, j, tally):
    if name == "lookup-deep":
        ok = j.get("verdict") == "inconclusive" and j.get("reason") == (
            "no counterexample up to depth %d" % LOOKUP_DEPTH)
        want = "no witness up to depth %d" % LOOKUP_DEPTH
    else:
        ok = (j.get("verdict") == "proved" and j.get("depth") == QSORT_DIAMETER
              and j.get("induction") is False)
        want = "proved at forward diameter %d" % QSORT_DIAMETER
        if name == "qsort-pba-cert":
            ok = ok and j.get("certificate") == "drat-checked"
            want += " with a DRAT-checked certificate"
    tally.check(ok, "%s: expected %s, got %s" % (name, want, {
        k: j.get(k) for k in ("verdict", "depth", "induction", "reason", "certificate")}))


def run_single(name, seed, seconds, trace, tally):
    setup, build_s, _, _ = set_up(SINGLE[name]["design"])
    host = Host()
    if trace:
        plain = run_json(job_argv(name, seed, False))
        check_single(name, plain, tally)
        traced = run_json(job_argv(name, seed, True))
        check_single(name, traced, tally)
        for k in DETERMINISTIC:
            if k in plain and plain[k] != traced[k]:
                tally.flag("%s: %s differs traced (%s) vs untraced (%s)"
                           % (name, k, traced[k], plain[k]))
        m = dict(traced)
        m["host.slowdown"] = host_slowdown(host)
        m["designs.build_s"] = build_s
        m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        if m["satsolver.solve_s"] > 0:
            m["satsolver.props_per_s"] = m["satsolver.propagations"] / m["satsolver.solve_s"]
        return m
    peak, walls, spans = 0.0, [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        j = run_json(job_argv(name, seed, False), host)
        spans.append(time.perf_counter() - t0)
        check_single(name, j, tally)
        peak = max(peak, j["peak_rss_mb"])
        walls.append(j["wall_s"] - host.paused(j["started_at"], j["started_at"] + j["wall_s"]))
        if time.perf_counter() - start + median(spans) > seconds:
            break
    slow = host.slowdown()
    return report({
        "setup_s": setup,
        "wall_s": median(walls) / slow,
        "verdicts_per_s": len(walls) / sum(walls) * slow,
        "peak_rss_mb": peak,
    }, {
        "setup_s": build_s,
        "wall_s": median(walls),
        "verdicts_per_s": len(walls) / sum(walls),
    }, walls, host)


# {1 filter-serve}


class Conn:
    def __init__(self, path, tenant, timeout=120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.rfile = self.sock.makefile("rb")
        reply = self.request({"op": "hello", "client": tenant})
        if reply.get("reply") != "hello":
            raise RuntimeError("hello refused: %s" % reply)

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def read(self):
        line = self.rfile.readline()
        if not line:
            raise RuntimeError("daemon closed the connection")
        return json.loads(line)

    def request(self, obj):
        self.send(obj)
        return self.read()

    def close(self):
        self.rfile.close()
        self.sock.close()


class Daemon:
    """One daemon with a private socket, cache directory and journal."""

    def __init__(self, directory, argv_of):
        os.makedirs(directory)
        self.sock = os.path.join(directory, "d.sock")
        self.cache = os.path.join(directory, "cache")
        self.journal = os.path.join(directory, "journal")
        self.log = open(os.path.join(directory, "daemon.log"), "wb")
        t0 = time.perf_counter()
        self.proc = spawn(argv_of(self), stdout=self.log, stderr=self.log)
        while True:
            try:
                Conn(self.sock, "setup").close()
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() - t0 > 60:
                    raise RuntimeError("daemon did not start; see %s" % self.log.name)
                time.sleep(0.0005)
        self.start_s = time.perf_counter() - t0

    def stop(self):
        """Fetch the metrics snapshot, drain the daemon, and return the
        snapshot and the peak resident set of the daemon's process tree."""
        c = Conn(self.sock, "control")
        snapshot = c.request({"op": "metrics"})
        c.request({"op": "shutdown"})
        c.close()
        rss = reap(self.proc)
        self.log.close()
        return snapshot, rss


def cli_daemon(d):
    return [EMMVER, "serve", "--socket", d.sock, "--workers", str(SERVE_WORKERS),
            "--cache-dir", d.cache, "--journal", d.journal, "--quiet"]


def traced_daemon(props, summary):
    def argv(d):
        return [HELPER, "serve", "--socket", d.sock, "--workers", str(SERVE_WORKERS),
                "--cache-dir", d.cache, "--journal", d.journal, "--design", "image-filter",
                "--properties", ",".join(props), "--summary", summary]
    return argv


def make_streams(properties, seed, rnd):
    """Per tenant, a closed-loop stream of (kind, property).  The properties
    are cut into STRATA bands of consecutive values, and the TENANTS middle
    properties of each band, neighbours whose witnesses have the same depth,
    are the round's first-time properties, one to each tenant.  So every
    round of every seed does the same solving work, and each stream mixes
    shallow and deep witnesses and proofs.  The seed decides which tenant
    gets which, the order of each stream and the repeats; a repeat names a
    first-time property the same tenant already submitted, so it is always
    served after the miss has been stored."""
    rng = random.Random("filter-serve:%d:%d" % (seed, rnd))
    n = len(properties)
    fresh = [[] for _ in range(TENANTS)]
    for b in range(STRATA):
        band = properties[b * n // STRATA:(b + 1) * n // STRATA]
        mid = (len(band) - TENANTS) // 2
        for t, p in enumerate(rng.sample(band[mid:mid + TENANTS], TENANTS)):
            fresh[t].append(p)
    streams = []
    for t in range(TENANTS):
        rng.shuffle(fresh[t])
        kinds = ["miss"] * (len(fresh[t]) - 1) + ["hit"] * REPEATS_PER_TENANT
        rng.shuffle(kinds)
        kinds.insert(0, "miss")
        seen, stream, it = [], [], iter(fresh[t])
        for k in kinds:
            if k == "miss":
                seen.append(next(it))
                stream.append(("miss", seen[-1]))
            else:
                stream.append(("hit", rng.choice(seen)))
        streams.append(stream)
    return streams


def tenant_loop(sock, tenant, stream, out, errors):
    try:
        c = Conn(sock, "tenant%d" % tenant)
        for i, (kind, prop) in enumerate(stream):
            t0 = time.time()
            c.send({"op": "submit", "id": "t%d-%d" % (tenant, i), "design": "image-filter",
                    "property": prop, "method": "emm"})
            while True:
                r = c.read()
                if r.get("reply") in ("accepted", "acked"):
                    continue
                break
            t1 = time.time()
            out.append((kind, prop, t0, t1, r))
            if r.get("reply") == "result":
                c.send({"op": "ack", "job": r["job"]})
        c.close()
    except Exception as e:  # reported as failed submissions of this tenant
        errors.append("tenant %d: %r" % (tenant, e))


def run_round(daemon, streams):
    results, errors, threads = [[] for _ in streams], [], []
    for t, stream in enumerate(streams):
        th = threading.Thread(target=tenant_loop,
                              args=(daemon.sock, t, stream, results[t], errors), daemon=True)
        threads.append(th)
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return [r for rs in results for r in rs], errors


def check_round(rows, errors, streams, reachable, tally):
    for e in errors:
        tally.check(False, e)
    submitted = sum(len(s) for s in streams)
    for _ in range(submitted - len(rows)):
        tally.check(False, "filter-serve: submission without a reply")
    first = {}
    for kind, prop, _, _, r in rows:
        if r.get("reply") != "result":
            tally.check(False, "filter-serve: %s for %s got %s" % (kind, prop, r))
            continue
        want = ("falsified", True) if prop in reachable else ("proved", None)
        got = (r.get("verdict"), r.get("genuine"))
        # Every first-time property misses the round's fresh cache and
        # every repeat hits it.
        ok = got == want and r.get("cache") == kind
        if kind == "hit":
            ok = ok and first.get(prop) == (got, r.get("depth"))
        else:
            first[prop] = (got, r.get("depth"))
        tally.check(ok, "filter-serve: %s %s: expected %s from a cache %s, got %s"
                    % (kind, prop, want, kind, r))


def round_metrics(rows, host=None):
    """Wall time (less the host's pauses), verdicts and round trips of a
    round."""
    results = [r for r in rows if r[4].get("reply") == "result"]
    first = min(r[2] for r in rows)
    last = max(r[3] for r in rows)
    return {
        "wall": last - first - (host.paused(first, last) if host else 0.0),
        "verdicts": len(results),
        "rt": [(k, (t1 - t0) * 1e3, r.get("time_s", 0.0), r.get("cache"))
               for k, _, t0, t1, r in results],
    }


def serve_layers(rows, snapshot):
    rts = [x for rnd in rows for x in rnd["rt"]]
    misses = [ms for k, ms, _, _ in rts if k == "miss"]
    hits = [ms for k, ms, _, _ in rts if k == "hit"]
    jobs = snapshot.get("jobs", {})
    return {
        "serve.overhead_ms": median([ms - 1e3 * busy for _, ms, busy, _ in rts]),
        "serve.worker_busy_s": sum(busy for _, _, busy, _ in rts),
        "serve.rejected_busy": jobs.get("rejected_busy", 0),
        "serve.failed": jobs.get("failed", 0),
        "serve.journal_bytes": snapshot.get("durability", {}).get("journal_bytes", 0),
        "vcache.hit_ratio": sum(1 for *_, c in rts if c == "hit") / len(rts) if rts else 0.0,
        "miss_p50_ms": median(misses),
        "hit_p50_ms": median(hits),
        "job_p90_ms": percentile([ms for _, ms, _, _ in rts], 90),
        "job_samples": len(rts),
    }


def run_filter(seed, seconds, trace, tally, directory):
    build, build_s, start_s, answers = set_up("image-filter", directory)
    host = Host()
    props, reachable = answers["properties"], set(answers["reachable"])
    if trace:
        streams = make_streams(props, seed, 0)
        d = Daemon(os.path.join(directory, "plain"), cli_daemon)
        rows, errors = run_round(d, streams)
        snapshot, _ = d.stop()
        check_round(rows, errors, streams, reachable, tally)
        plain = round_metrics(rows)
        summary = os.path.join(directory, "summary.json")
        fresh = sorted({p for s in streams for k, p in s if k == "miss"})
        d = Daemon(os.path.join(directory, "traced"), traced_daemon(fresh, summary))
        rows, errors = run_round(d, streams)
        d.stop()
        check_round(rows, errors, streams, reachable, tally)
        traced = round_metrics(rows)
        with open(summary) as f:
            m = json.load(f)
        m.update(serve_layers([plain], snapshot))
        traced_ratio = serve_layers([traced], {})["vcache.hit_ratio"]
        if traced_ratio != m["vcache.hit_ratio"]:
            tally.flag("filter-serve: hit ratio traced %s vs untraced %s"
                       % (traced_ratio, m["vcache.hit_ratio"]))
        m["host.slowdown"] = host_slowdown(host)
        m["designs.build_s"] = build_s
        m["trace.overhead_s"] = traced["wall"] - plain["wall"]
        if m["satsolver.solve_s"] > 0:
            m["satsolver.props_per_s"] = m["satsolver.propagations"] / m["satsolver.solve_s"]
        return m
    rounds, rss, start = [], [], time.perf_counter()
    while True:
        rnd = len(rounds)
        streams = make_streams(props, seed, rnd)
        t0 = time.perf_counter()
        d = Daemon(os.path.join(directory, "round%d" % rnd), cli_daemon)
        with host.pausing(d.proc.pid):
            rows, errors = run_round(d, streams)
        _, peak = d.stop()
        check_round(rows, errors, streams, reachable, tally)
        rounds.append(round_metrics(rows, host))
        rss.append(peak)
        spent = time.perf_counter() - t0
        if time.perf_counter() - start + spent > seconds:
            break
    walls = [r["wall"] for r in rounds]
    per_s = median([r["verdicts"] / r["wall"] for r in rounds])
    # The daemon starts are scaled by the run's slowdown: a start takes a
    # few milliseconds, too short to pause for a sample.
    slow = host.slowdown()
    return report({
        "setup_s": build + start_s / slow,
        "wall_s": median(walls) / slow,
        "verdicts_per_s": per_s * slow,
        "peak_rss_mb": max(rss),
    }, {
        "setup_s": build_s + start_s,
        "wall_s": median(walls),
        "verdicts_per_s": per_s,
    }, walls, host)


# {1 Main}


def build():
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        log("not the root of an emmver checkout (missing %s)" % ", ".join(missing))
        sys.exit(2)
    # The shared dune cache lives outside the checkout; keep off it.
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                        EMMVER.split(os.sep, 2)[2], HELPER.split(os.sep, 2)[2]],
                       stdout=sys.stderr)
    if r.returncode != 0:
        log("build failed")
        sys.exit(3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(list(SINGLE) + ["filter-serve"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Killed from outside: leave through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    directory = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(directory)
    tally = Tally()
    try:
        if args.workload == "filter-serve":
            m = run_filter(args.seed, args.seconds, args.trace, tally, directory)
        else:
            m = run_single(args.workload, args.seed, args.seconds, args.trace, tally)
    except Exception as e:
        tally.check(False, "%s: %r" % (args.workload, e))
        m = {}
    finally:
        stop_all()
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    failed = len(tally.failed)
    attempted = max(tally.attempted, 1)
    m["failed_share"] = failed / attempted
    with open("BENCHMARK.json") as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for w in wanted:
        metrics[w["name"]] = {"value": m.get(w["name"], 0), "unit": w["unit"]}
        print("%-28s %16.6g %s" % (w["name"], metrics[w["name"]]["value"], w["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
