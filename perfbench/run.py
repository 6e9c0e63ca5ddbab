#!/usr/bin/env python3
"""The hmdiv benchmark: one command over the analyst CLI, the cluster
fan-out, daemon traffic and the reproduction sweep.

    python3 perfbench/run.py --workload analyze|cluster|serve|repro \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
repository and the benchmark programs (Release) under .bench_build/; later
runs only check the build is current.

--trace 0 measures the workload end to end and reports, for every
workload, the same five metrics:

    setup_s           median of three set-ups (inputs, daemons, warm-up)
    op_p50_ms         median latency of the workload's headline operation
    op_tail_ms        its highest percentile up to p99 with at least ten
                      samples beyond it (level and count in the context)
    throughput_per_s  headline operations per second
    rss_mb            memory of the program under test: the largest peak
                      RSS of its runs for the CLIs; for serve, the median
                      over the set-ups of the ready daemon's resident set
                      (model loaded, warm-up traffic served)

    workload     headline operation
    analyze      one hmdiv_analyze --example --profile run (nproc threads)
    cluster      the same run fanned out over 2 loopback workers
    serve        a heavy request (uq/sweep/minimise), timed from its due
                 time in open-loop mixed traffic at a fixed rate
    repro        one sweep of the 16 reproduction binaries

Light serve requests take ~10 us on loopback, where wake-up and placement
noise swings them twofold between runs, so their latencies are per-layer
metrics (serve.light_p50_us, serve.light_p99_us), not end-to-end ones.

For serve, throughput_per_s is the daemon's saturated reply rate: a
closed loop keeping SATURATION_WINDOW requests in flight on each
connection, replies counted after the first tenth of the phase (see
saturated_rate). The fixed-ladder highest rate that meets the light p99
limit is the per-layer serve.max_qps. For the others throughput_per_s is
completed headline operations per second of their wall time.

--trace 1 times each layer's public calls through the adapters in
perfbench/adapters (perfbench_layers), the serve workload's open-loop
phase, the CLI's phase breakdown and each reproduction binary, and
reports every per-layer metric of BENCHMARK.json, including
obs.trace_overhead_pct for the workload given.

Every output is checked (see the check_* functions); failures are counted
in `failed` and make `correct` false. The last line of stdout is the
result object; the line before it is a context block (hardware, build,
sources, seed, why the workload was chosen).
"""

import argparse
import array
import glob
import hashlib
import json
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import stats  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "cmake")
NPROC = len(os.sched_getaffinity(0))

REPRO = ["table1_parameters", "table2_trial_vs_field", "table3_improvement",
         "fig4_importance_line", "covariance_decomposition",
         "aggregation_bias", "reader_variability", "diversity_ablation",
         "dual_mode_whatif", "procedure_validity", "trial_design",
         "fig2_parallel_rbd", "fig3_sequential_pipeline", "tradeoff_roc",
         "programme_comparison", "complacency_dynamics"]

# Profile sizes (hmdiv_analyze defaults) and the cluster workload's flags.
PROFILE_GRID = 20000
CLUSTER_GRID = 1000000
CLUSTER_SAMPLES = 100
CLUSTER_THREADS = 2
CLUSTER_WORKERS = 2

# Serve traffic: two analysts (connections), all from one generator thread
# in one process. The daemon serves each connection on its own thread, so
# connections plus the generator leave a core free; fewer on small hosts.
SERVE_CONNS = min(2, max(1, NPROC - 2))
# Fixed offered rate, requests/s: the lowest round rate at which the ~16k
# what-ifs between two reloads (perfbench_load's kReloadEveryUs) touch more
# than the cache's 4096 distinct keys; ~5x below serve.max_qps on a 4-vCPU
# host, so latency is service plus FIFO wait, not a growing queue. It also
# gives ~440 heavy requests per open-loop phase: a p97-p98 tail, ten beyond.
SERVE_RATE = 8000
OPEN_LOOP_SHARE = 0.55       # of --seconds, for the fixed-rate phase
CLOSED_LOOP_SHARE = 0.25     # of --seconds, for the saturation phase
LADDER = stats.geometric_ladder(2000, 400000, 1.04)
LIGHT_P99_LIMIT_US = 50000.0
SATURATION_WINDOW = 4        # requests in flight per connection
SATURATION_SCHEDULE_RATE = 200000  # schedule size bound, requests/s
LAG_LIMIT_US = 1000.0        # generator lateness that fails a run or rung


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------


def build():
    """Configure once, then bring the Release build up to date. Exits 2
    without a result when the sources are not there or do not build."""
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit(2)
    targets = ["perfbench_layers", "perfbench_load", "hmdiv_analyze",
               "hmdiv_serve_bin"] + REPRO
    cmd = ["cmake", "--build", BUILD, "-j", str(NPROC), "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit(2)


# --- cli adapter: every program invocation is spelled here -------------


class Programs:
    analyze = os.path.join(BUILD, "hmdiv", "src", "cli", "hmdiv_analyze")
    serve = os.path.join(BUILD, "hmdiv", "src", "cli", "hmdiv_serve")
    layers = os.path.join(BUILD, "perfbench_layers")
    load = os.path.join(BUILD, "perfbench_load")

    @staticmethod
    def repro(name):
        return os.path.join(BUILD, "hmdiv", "bench", name)

    @classmethod
    def report(cls, improve):
        argv = [cls.analyze, "--example"]
        for name, factor in improve.items():
            argv += ["--improve", "%s=%s" % (name, factor)]
        return argv

    @classmethod
    def profile(cls, improve, threads, workers=None, samples=None,
                grid=None, csv=None):
        argv = cls.report(improve) + ["--profile", "--threads", str(threads)]
        if workers:
            argv += ["--workers", ",".join(workers)]
        if samples:
            argv += ["--samples", str(samples)]
        if grid:
            argv += ["--grid-steps", str(grid)]
        if csv:
            argv += ["--profile-csv", csv]
        return argv

    @classmethod
    def daemon(cls, files=None, threads=None):
        argv = [cls.serve, "--port", "0"]
        argv += (["--model", files[0], "--trial", files[1], "--field", files[2]]
                 if files else ["--example"])
        if threads:
            argv += ["--threads", str(threads)]
        return argv


# --- processes ---------------------------------------------------------


class Ran:
    def __init__(self, rc, out, wall_ms, rss_mb):
        self.rc, self.out, self.wall_ms, self.rss_mb = rc, out, wall_ms, rss_mb


def run(argv, work, timeout=120):
    """Runs argv to completion: exit code, stdout, wall time and the
    child's own peak RSS (from wait4). stderr goes to a file in `work` and
    is shown on failure; a child still running after `timeout` seconds is
    killed."""
    with tempfile.TemporaryFile(dir=work) as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                             cwd=work)
        watchdog = threading.Timer(timeout, p.kill)
        watchdog.start()
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
            p.stdout.close()
        wall = (time.perf_counter() - t0) * 1000.0
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0:
            err.seek(0)
            log("FAILED (%d): %s\n%s" % (p.returncode, " ".join(argv),
                                         err.read().decode()[-2000:]))
    return Ran(p.returncode, out.decode(), wall, usage.ru_maxrss / 1024.0)


class Daemon:
    """A spawned hmdiv_serve; knows its port, its resident set and how to
    stop it (SIGTERM, expecting a clean drain and exit 0)."""

    live = []

    def __init__(self, argv, work):
        self.err = tempfile.TemporaryFile(dir=work)
        self.p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                  stderr=self.err, cwd=work)
        Daemon.live.append(self)
        ready, _, _ = select.select([self.p.stdout], [], [], 10.0)
        line = self.p.stdout.readline().decode() if ready else ""
        m = re.search(r"listening on (\S+):(\d+)", line)
        if not m:
            self.stop()
            raise RuntimeError("daemon did not start: %r" % line)
        self.address = "%s:%s" % (m.group(1), m.group(2))
        self.port = int(m.group(2))
        self.idle_threads = self.status("Threads")

    def status(self, field):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise RuntimeError("no %s in the daemon's status" % field)

    def retained_rss_mb(self):
        """Resident set once every client connection's thread has
        exited: what the daemon keeps (model, caches, allocator pools)."""
        deadline = time.monotonic() + 5.0
        while self.status("Threads") > self.idle_threads:
            if time.monotonic() > deadline:
                raise RuntimeError("daemon connection threads did not exit")
            time.sleep(0.01)
        return self.status("VmRSS") / 1024.0

    def stop(self):
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
            try:
                self.p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        self.p.stdout.close()
        self.err.close()
        if self in Daemon.live:
            Daemon.live.remove(self)
        return self.p.returncode


def stop_all():
    for d in list(Daemon.live):
        d.stop()


# --- output checks -----------------------------------------------------

# The paper's Section-5 example: (trial p, field p, PMf, PHf|Mf, PHf|Ms).
PAPER = {"easy": (0.8, 0.9, 0.07, 0.18, 0.14),
         "difficult": (0.2, 0.1, 0.41, 0.9, 0.4)}


def phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def eq8(which, improve=None):
    """Eq. (8) on the paper example under the trial (0) or field (1)
    profile, with PMf of class `improve[0]` scaled by `improve[1]`."""
    total = 0.0
    for name, (pt, pf, pmf, hf, hs) in PAPER.items():
        if improve and improve[0] == name:
            pmf *= improve[1]
        total += (pt, pf)[which] * (hs * (1 - pmf) + hf * pmf)
    return total


def analytic_threshold():
    """The cost-minimising operating threshold of the profile workload's
    binormal machine (field profile, prevalence 0.007, costs 500/20),
    found by a dense scan refined by golden section."""
    from statistics import NormalDist
    nd = NormalDist()
    cls = [(pf, -nd.inv_cdf(pmf), hf, hs)
           for (_, pf, pmf, hf, hs) in PAPER.values()]

    def cost(t):
        fn = sum(p * (hs * (1 - phi(t - mu)) + hf * phi(t - mu))
                 for p, mu, hf, hs in cls)
        fp = sum(p * (0.1 * phi(-2 - t) + 0.02 * (1 - phi(-2 - t)))
                 for p, _, _, _ in cls)
        return 0.007 * 500 * fn + 0.993 * 20 * fp

    grid = [-4 + 8 * i / 8000 for i in range(8001)]
    t0 = min(grid, key=cost)
    a, b = t0 - 0.002, t0 + 0.002
    g = (math.sqrt(5) - 1) / 2
    for _ in range(60):
        c, d = b - g * (b - a), a + g * (b - a)
        if cost(c) < cost(d):
            b = d
        else:
            a = c
    return (a + b) / 2


ANALYTIC_THRESHOLD = None


def table_value(out, row):
    m = re.search(r"^\| %s \| ([^|]+) \|$" % re.escape(row), out, re.M)
    if not m:
        raise ValueError("no '%s' row" % row)
    return m.group(1).strip()


def check_report(out, improve):
    """The paper's trial/field PHf, and each --improve line against Eq. 8."""
    problems = []
    if "| all cases (Trial) | 0.235 |" not in out:
        problems.append("trial PHf is not the paper's 0.235")
    if "| all cases (Field) | 0.189 |" not in out:
        problems.append("field PHf is not the paper's 0.189")
    for name, factor in improve.items():
        m = re.search(r"- improve '%s' by factor [0-9.]+: field PHf "
                      r"([0-9.]+) -> ([0-9.]+)" % name, out)
        want = eq8(1, (name, factor))
        if not m or abs(float(m.group(2)) - want) > 0.0005 + 1e-12:
            problems.append("what-if for %s does not match Eq. 8 (%.4f)"
                            % (name, want))
    return problems


def check_profile(out, grid_steps):
    """Monte-Carlo validation table: observed rate within 4 binomial SEs of
    Eq. (8), bootstrap interval contains it, cost-minimising threshold at
    the analytical one to grid resolution."""
    global ANALYTIC_THRESHOLD
    if ANALYTIC_THRESHOLD is None:
        ANALYTIC_THRESHOLD = analytic_threshold()
    problems = []
    try:
        observed = float(table_value(out, "observed failure rate"))
        predicted = float(table_value(out, "Eq.-(8) prediction"))
        boot = table_value(out, "bootstrap 95% interval")
        threshold = float(table_value(out, "cost-minimising threshold"))
    except ValueError as e:
        return [str(e)]
    if abs(predicted - eq8(0)) > 1e-4:
        problems.append("Eq.-(8) prediction %.4f is not %.4f"
                        % (predicted, eq8(0)))
    se = math.sqrt(predicted * (1 - predicted) / 200000)
    if abs(observed - predicted) > 4 * se + 1e-4:
        problems.append("observed rate %.4f is %.1f SEs from Eq. 8"
                        % (observed, abs(observed - predicted) / se))
    m = re.match(r"[0-9.]+ \[([0-9.]+), ([0-9.]+)\]", boot)
    if not m or not float(m.group(1)) <= observed <= float(m.group(2)):
        problems.append("bootstrap interval %s misses the observed rate" % boot)
    tolerance = 8.0 / (grid_steps - 1) + 0.0005 + 1e-9
    if abs(threshold - ANALYTIC_THRESHOLD) > tolerance:
        problems.append("threshold %.3f is not the analytical %.4f"
                        % (threshold, ANALYTIC_THRESHOLD))
    return problems


def deterministic_part(out):
    """Everything the CLI prints before the obs registry dump (which holds
    timings)."""
    return re.split(r"^(## |== )Profile \(obs registry\)", out, maxsplit=1,
                    flags=re.M)[0]


# --- measurement helpers -----------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.problems) < 20:
                self.problems.append(what)


def timed_setups(setup, count=3):
    """Runs `setup` `count` times; every result but the last is torn down
    (setup returns (value, teardown)). Returns (median seconds, value)."""
    times, kept = [], None
    for i in range(count):
        t0 = time.perf_counter()
        value, teardown = setup()
        times.append(time.perf_counter() - t0)
        if i + 1 < count:
            teardown()
        else:
            kept = (value, teardown)
    return stats.median(times), kept


def e2e(setup_s, op, throughput, rss):
    """The end-to-end metrics, plus the sample count and the tail level
    used (for the context block)."""
    level, tail = stats.tail(op, 0.99)
    return {"setup_s": setup_s,
            "op_p50_ms": stats.median(op),
            "op_tail_ms": tail,
            "throughput_per_s": throughput,
            "rss_mb": rss,
            "samples": len(op), "tail_level": level,
            "op_mad_ms": stats.mad(op)}


# --- workloads (--trace 0) ---------------------------------------------


def workload_analyze(seed, seconds, work, tally):
    improve = inputs.improvements(seed)
    profile_argv = Programs.profile(improve, NPROC)

    def setup():
        r = run(Programs.report(improve), work)
        p = run(profile_argv, work)
        tally.add(r.rc == 0 and p.rc == 0, "warm-up run failed")
        return None, lambda: None

    setup_s, _ = timed_setups(setup)
    op, rss = [], 0.0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not op:
        r = run(Programs.report(improve), work)
        problems = check_report(r.out, improve)
        tally.add(r.rc == 0 and not problems, "; ".join(problems))
        p = run(profile_argv, work)
        problems = check_report(p.out, improve) + check_profile(
            p.out, PROFILE_GRID)
        tally.add(p.rc == 0 and not problems, "; ".join(problems))
        op.append(p.wall_ms)
        rss = max(rss, p.rss_mb)
    return e2e(setup_s, op, 1000.0 * len(op) / sum(op), rss)


def spawn_workers(work, count=CLUSTER_WORKERS):
    return [Daemon(Programs.daemon(threads=1), work) for _ in range(count)]


def stop_checked(daemons, tally):
    for d in daemons:
        rc = d.stop()
        tally.add(rc == 0, "daemon exited with %s" % rc)


def workload_cluster(seed, seconds, work, tally):
    improve = inputs.improvements(seed)

    def argv(workers):
        return Programs.profile(improve, CLUSTER_THREADS, workers=workers,
                                samples=CLUSTER_SAMPLES, grid=CLUSTER_GRID)

    def setup():
        daemons = spawn_workers(work)
        r = run(argv([d.address for d in daemons]), work)
        tally.add(r.rc == 0, "warm-up run failed")
        return daemons, lambda: stop_checked(daemons, tally)

    setup_s, (daemons, teardown) = timed_setups(setup)
    addresses = [d.address for d in daemons]
    op, rss = [], 0.0
    try:
        # The in-process run with the same flags is the reference every
        # clustered run must reproduce byte for byte.
        local = run(argv(None), work)
        tally.add(local.rc == 0, "in-process run failed")
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or not op:
            c = run(argv(addresses), work)
            problems = check_report(c.out, improve) + check_profile(
                c.out, CLUSTER_GRID)
            if deterministic_part(c.out) != deterministic_part(local.out):
                problems.append("clustered stdout differs from in-process")
            tally.add(c.rc == 0 and not problems, "; ".join(problems))
            op.append(c.wall_ms)
            rss = max(rss, c.rss_mb)
    finally:
        teardown()
    return e2e(setup_s, op, 1000.0 * len(op) / sum(op), rss)


def write_wide_inputs(seed, work):
    files = []
    for name, text in zip(("model.txt", "trial.txt", "field.txt"),
                          inputs.wide_model(seed)):
        path = os.path.join(work, name)
        with open(path, "w") as f:
            f.write(text)
        files.append(path)
    return files


class Traffic:
    """One perfbench_load run: the summary and per-request rows."""

    def __init__(self, summary, rows):
        self.summary, self.rows = summary, rows

    def latencies(self, kind, part=None):
        rows = [r for r in self.rows if r[0] == kind]
        if part is not None:
            lo, hi = part
            n = len(rows)
            rows = rows[int(lo * n):int(hi * n)]
        return [r[2] for r in rows if r[2] >= 0]

    def lag_p99(self):
        return stats.quantile([r[3] for r in self.rows], 0.99)

    def failures(self):
        s = self.summary
        return (s["failed"] + s["transport_errors"] + s["id_mismatch"] +
                s["body_mismatch"] + s["reference_mismatch"])


def traffic(daemon, files, seed, rate, seconds, salt, work, window=0):
    """Open-loop traffic at `rate` for `seconds`, or with window > 0 a
    closed loop keeping `window` requests in flight per connection."""
    out = os.path.join(work, "latency.bin")
    argv = [Programs.load, "--port", str(daemon.port), "--model", files[0],
            "--trial", files[1], "--field", files[2], "--seed", str(seed),
            "--rate", str(rate), "--seconds", str(seconds), "--conns",
            str(SERVE_CONNS), "--out", out, "--salt", str(salt),
            "--window", str(window)]
    r = run(argv, work, timeout=seconds + 60)
    if r.rc != 0:
        raise RuntimeError("load generator failed")
    data = array.array("d")
    with open(out, "rb") as f:
        data.frombytes(f.read())
    rows = [tuple(data[i:i + 4]) for i in range(0, len(data), 4)]
    return Traffic(json.loads(r.out.strip().splitlines()[-1]), rows)


def check_traffic(t, tally):
    s = t.summary
    tally.attempted += s["attempted"]
    tally.failed += t.failures()
    for key in ("failed", "transport_errors", "id_mismatch", "body_mismatch",
                "reference_mismatch"):
        if s[key]:
            tally.problems.append("%d %s" % (s[key], key))


def max_qps_ladder(daemon, files, seed, rung_s, salt, work, tally):
    """Bisects the fixed LADDER for the highest rate whose rung passes
    stats.rung_passes; None when even the lowest fails."""

    def probe(rate):
        salt[0] += 1
        t = traffic(daemon, files, seed, rate, rung_s, 1000 + salt[0], work)
        check_traffic(t, tally)
        _, p99 = stats.tail(t.latencies(0), 0.99)
        ok = stats.rung_passes(
            p99, LIGHT_P99_LIMIT_US,
            stats.median(t.latencies(0, (0, 1 / 3))),
            stats.median(t.latencies(0, (2 / 3, 1))),
            t.lag_p99(), LAG_LIMIT_US, t.failures() > 0)
        log("rung %d/s: light p99 %.0f us, lag p99 %.0f us -> %s"
            % (rate, p99, t.lag_p99(), "pass" if ok else "fail"))
        return ok

    return stats.max_rate(LADDER, probe)[0]


def saturated_rate(daemon, files, seed, seconds, salt, work, tally):
    """Replies per second with every connection kept busy: a closed loop
    with SATURATION_WINDOW requests in flight per connection, counted after
    the first tenth of the run."""
    salt[0] += 1
    t = traffic(daemon, files, seed, SATURATION_SCHEDULE_RATE, seconds,
                5000 + salt[0], work, window=SATURATION_WINDOW)
    check_traffic(t, tally)
    if t.summary["schedule_exhausted"]:
        tally.add(False, "closed loop ran out of scheduled requests")
    lo, hi = 0.1 * seconds * 1e6, seconds * 1e6
    done = sum(1 for r in t.rows if r[2] >= 0 and lo <= r[1] + r[2] < hi)
    return done / (hi - lo) * 1e6


def workload_serve(seed, seconds, work, tally):
    files = write_wide_inputs(seed, work)
    salt = [0]

    # Memory is the ready daemon's: model loaded, warm-up served. After
    # the measured traffic the resident set is allocator history rather
    # than the program (thread arenas kept 2-4 MB each, 10-12 MB in all
    # after the same traffic) and its peak depends on which large requests
    # of the seeded schedule overlap (11.6-15.9 MB over three seeds).
    footprint = []

    def setup():
        d = Daemon(Programs.daemon(files), work)
        salt[0] += 1
        warm = traffic(d, files, seed, SERVE_RATE, 0.2, salt[0], work)
        check_traffic(warm, tally)
        footprint.append(d.retained_rss_mb())
        return d, lambda: stop_checked([d], tally)

    setup_s, (daemon, teardown) = timed_setups(setup)
    try:
        fixed = traffic(daemon, files, seed, SERVE_RATE,
                        OPEN_LOOP_SHARE * seconds, 100, work)
        throughput = saturated_rate(daemon, files, seed,
                                    CLOSED_LOOP_SHARE * seconds,
                                    salt, work, tally)
        check_traffic(fixed, tally)
        s = fixed.summary
        if s["reloads"] == 0 or s["keys_cached_and_fresh"] == 0:
            tally.add(False, "no key was seen both cached and fresh "
                             "across a reload")
        if fixed.lag_p99() > LAG_LIMIT_US:
            tally.add(False, "generator fell behind (lag p99 %.0f us)"
                      % fixed.lag_p99())
        heavy = [v / 1000.0 for v in fixed.latencies(1)]
    finally:
        teardown()
    return e2e(setup_s, heavy, throughput, stats.median(footprint))


def repro_sweep(work, tally):
    """Runs every reproduction binary once; (sweep wall, per-binary walls,
    peak RSS)."""
    walls, rss = {}, 0.0
    t0 = time.perf_counter()
    for name in REPRO:
        r = run([Programs.repro(name)], work)
        tally.add(r.rc == 0, "%s exited %d" % (name, r.rc))
        walls[name] = r.wall_ms
        rss = max(rss, r.rss_mb)
    return (time.perf_counter() - t0) * 1000.0, walls, rss


def workload_repro(seed, seconds, work, tally):
    del seed  # the reproduction binaries take no inputs

    def setup():
        missing = [n for n in REPRO if not os.access(Programs.repro(n),
                                                     os.X_OK)]
        tally.add(not missing, "missing binaries: %s" % missing)
        repro_sweep(work, tally)
        return None, lambda: None

    setup_s, _ = timed_setups(setup)
    op, rss = [], 0.0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not op:
        wall, _, peak = repro_sweep(work, tally)
        op.append(wall)
        rss = max(rss, peak)
    return e2e(setup_s, op, 1000.0 * len(op) / sum(op), rss)


# --- the traced run (--trace 1) ----------------------------------------


def csv_phases(path):
    """Phase spans (ms) from a --profile-csv dump."""
    names = {"sim.trial.run_ns": "trial", "stats.bootstrap.run_ns": "bootstrap",
             "core.uq.predict_ns": "uq", "core.tradeoff.sweep_ns": "sweep",
             "core.tradeoff.minimise_ns": "minimise"}
    out = {}
    with open(path) as f:
        for line in f:
            cols = line.strip().split(",")
            if len(cols) > 3 and cols[1] in names:
                out[names[cols[1]]] = int(cols[3]) / 1e6
    return out


def traced(workload, seed, seconds, work, tally):
    m = {}
    files = write_wide_inputs(seed, work)
    workers = spawn_workers(work)
    server = Daemon(Programs.daemon(files), work)
    try:
        # In-process layer calls through the adapters.
        traces = os.path.join(BUILD, "..", "traces")
        os.makedirs(traces, exist_ok=True)
        r = run([Programs.layers, "--model", files[0], "--trial", files[1],
                 "--field", files[2], "--threads", str(NPROC), "--workload",
                 workload, "--workers", ",".join(d.address for d in workers),
                 "--serve", server.address, "--spans",
                 os.path.join(traces, "%s-%d.jsonl" % (workload, seed))],
                work, timeout=150)
        tally.add(r.rc == 0, "perfbench_layers failed")
        m.update(json.loads(r.out.strip().splitlines()[-1]) if r.rc == 0
                 else {})

        # Traffic-side serve metrics from the serve workload's open-loop
        # phase, reloads included.
        t = traffic(server, files, seed, SERVE_RATE, OPEN_LOOP_SHARE * seconds,
                    7, work)
        check_traffic(t, tally)
        s = t.summary
        for ep in ("whatif", "uq", "sweep", "minimise"):
            m["serve.cache_lookups." + ep] = s["lookups"][ep]
            m["serve.cache_hit_ratio." + ep] = (
                s["hits"][ep] / s["lookups"][ep] if s["lookups"][ep] else 0.0)
        m["serve.light_p50_us"] = stats.median(t.latencies(0))
        m["serve.light_p99_us"] = stats.tail(t.latencies(0), 0.99)[1]
        m["serve.heavy_p50_us"] = stats.median(t.latencies(1))
        m["serve.heavy_p99_us"] = stats.tail(t.latencies(1), 0.99)[1]
        m["serve.gen_lag_us"] = t.lag_p99()
        m["serve.max_qps"] = max_qps_ladder(server, files, seed, 0.4, [0],
                                            work, tally)
        m["serve.shed"] = s["shed"]
        m["serve.deadline_exceeded"] = s["deadline_exceeded"]
    finally:
        stop_checked(workers + [server], tally)

    # CLI phase breakdown: the profile wall against its phase spans. The
    # report run is process start plus the report the layers run timed.
    report = [run(Programs.report({}), work).wall_ms for _ in range(7)]
    csv = os.path.join(work, "profile.csv")
    walls, phases = [], {}
    for _ in range(7):
        p = run(Programs.profile({}, NPROC, csv=csv), work)
        tally.add(p.rc == 0 and not check_profile(p.out, PROFILE_GRID),
                  "profile run failed its checks")
        walls.append(p.wall_ms)
        for k, v in csv_phases(csv).items():
            phases.setdefault(k, []).append(v)
    m["cli.phase.report_ms"] = m.get("core.report_ms", 0.0)
    m["cli.phase.process_start_ms"] = (stats.median(report) -
                                       m["cli.phase.report_ms"])
    for k in ("trial", "bootstrap", "uq", "sweep", "minimise"):
        m["cli.phase.%s_ms" % k] = stats.median(phases.get(k, [0.0]))
    # The residual holds what has no span: argument parsing, the record ->
    # counts rebuild, the bootstrap's input vector and the output tables.
    m["cli.residual_ms"] = stats.median(walls) - sum(
        m["cli.phase.%s_ms" % k] for k in ("process_start", "report", "trial",
                                           "bootstrap", "uq", "sweep",
                                           "minimise"))

    # Reproduction binaries one by one; for repro, the overhead of timing
    # each binary against timing only the whole sweep.
    per, untraced, traced_walls = {}, [], []
    for _ in range(3):
        wall, walls_, _ = repro_sweep(work, tally)
        traced_walls.append(wall)
        for k, v in walls_.items():
            per.setdefault(k, []).append(v)
        t0 = time.perf_counter()
        for name in REPRO:
            subprocess.run([Programs.repro(name)], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, cwd=work)
        untraced.append((time.perf_counter() - t0) * 1000.0)
    for name in REPRO:
        m["repro.%s_ms" % name] = stats.median(per[name])
    if workload == "repro":
        m["obs.trace_overhead_pct"] = 100.0 * (
            stats.median(traced_walls) / stats.median(untraced) - 1.0)
    return m


# --- main --------------------------------------------------------------


def source_id():
    """git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path):
            h.update(path[len(ROOT):].encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "source-sha256:" + h.hexdigest()[:16]


def context(spec, workload, seed):
    compiler = "unknown"
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()
    m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$", cache, re.M)
    if m:
        v = subprocess.run([m.group(1), "--version"], capture_output=True,
                           text=True)
        compiler = v.stdout.splitlines()[0] if v.stdout else m.group(1)
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {"nproc": NPROC, "compiler": compiler,
            "build_type": build_type.group(1) if build_type else "",
            "git_sha": source_id(), "seed": seed, "workload": workload,
            "why": why[workload], "serve_conns": SERVE_CONNS,
            "serve_rate": SERVE_RATE}


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


WORKLOADS = {"analyze": workload_analyze, "cluster": workload_cluster,
             "serve": workload_serve, "repro": workload_repro}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its daemons (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    # The programs' environment knobs (HMDIV_THREADS, HMDIV_SHARDS, fault
    # injection) are never inherited: every setting is a flag given here.
    for key in [k for k in os.environ if k.startswith("HMDIV_")]:
        del os.environ[key]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not self_test():
        log("benchmark statistics self-test failed")
        sys.exit(2)
    build()
    work = os.path.join(BUILD, "..", "work", "%s-%d" % (args.workload,
                                                        os.getpid()))
    os.makedirs(work, exist_ok=True)

    tally = Tally()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    try:
        if args.trace:
            values = traced(args.workload, args.seed, args.seconds, work,
                            tally)
        else:
            values = WORKLOADS[args.workload](args.seed, args.seconds, work,
                                              tally)
    except Exception as e:  # noqa: BLE001 - a crash is a failed run
        tally.add(False, "run aborted: %r" % e)
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for d in declared:
        v = values.get(d["name"])
        if v is None or not math.isfinite(v):
            tally.add(False, "metric %s was not measured" % d["name"])
            v = -1.0
        metrics[d["name"]] = {"value": v, "unit": d["unit"]}
    for p in tally.problems:
        log("check failed:", p)
    info = {k: values[k] for k in ("samples", "tail_level", "op_mad_ms")
            if k in values}
    print(json.dumps({"context": dict(context(spec, args.workload, args.seed),
                                      **info)}))
    print(json.dumps({"correct": tally.failed == 0 and not tally.problems,
                      "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
