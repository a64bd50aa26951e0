#!/usr/bin/env python3
"""perfbench — the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point-queries --seed 1 \
        --seconds 10 --trace 0

It builds slfe_server and perfbench_layers from the checkout's sources,
starts the real `slfe_server --listen` daemon, and drives the named
workload over loopback TCP from this one process: a closed loop in which
every client connection keeps exactly one request outstanding. Every
answer is checked (reference tables computed in-process with RR off,
mutation versions, the daemon's own telemetry counts).

--trace 0 prints the end-to-end metrics. --trace 1 additionally replays
the same seeded request sequence in-process (perfbench_layers replay),
timing the public entry point of each layer, and prints the per-layer
metrics. The last stdout line is the result object; the line before it
carries the run's provenance.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402
from benchlib import FailureTally, Workload, median, percentile  # noqa: E402

BENCH_DIR = "perfbench"
SETUP_REPEATS = 7
REQUEST_TIMEOUT_S = 30.0
SPAWN_TIMEOUT_S = 30.0
STEAL_LIMIT = 0.01
MAX_ATTEMPTS = 2
BUILD_TARGETS = ("slfe_server", "perfbench_layers")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program failing)."""


# ---------------------------------------------------------------- build


def check_checkout(root):
    for rel in ("CMakeLists.txt", "src/slfe", "examples/slfe_server.cpp",
                f"{BENCH_DIR}/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, rel)):
            raise BenchError(f"not a full slfe checkout: {rel} is missing")


def build(root):
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", os.path.join(root, BENCH_DIR), "-B",
                        cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                    *BUILD_TARGETS])
    bins = {t: os.path.join(cmake_dir, "slfe" if t == "slfe_server" else "", t)
            for t in BUILD_TARGETS}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError(f"build produced no {path}")
    return out, bins


def run_build_step(cmd):
    # Build chatter goes to stderr: stdout carries only the result lines.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=840)
    if proc.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


# --------------------------------------------------------------- daemon


class Daemon:
    """One slfe_server --listen process; always reaped by close()."""

    def __init__(self, binary, workdir):
        self.started = time.perf_counter()
        shape = benchlib.SHAPE
        self._log = open(os.path.join(workdir, "daemon.log"), "ab")
        self.proc = subprocess.Popen(
            [binary, "--listen=0", f"--workers={shape['workers']}",
             f"--nodes={shape['nodes']}", f"--scale={shape['scale']}"],
            stdout=subprocess.PIPE, stderr=self._log, cwd=workdir)
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        ready = sel.select(SPAWN_TIMEOUT_S)
        sel.close()
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("listening on "):
            self.close()
            raise BenchError(f"daemon did not announce its port: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class LineClient:
    """Blocking request/response client for set-up and scrapes."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, line):
        self.sock.sendall((line + "\n").encode())

    def readline(self):
        line = self.rfile.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return line.decode().rstrip("\n")

    def request(self, line):
        """Sends one submit; returns its `job` line or its `reject:`."""
        self.send(line)
        first = self.readline()
        return first if first.startswith("reject:") else self.readline()

    def close(self):
        try:
            self.send("quit")
        except OSError:
            pass
        self.rfile.close()
        self.sock.close()


def parse_job_line(line):
    """`job <id> k=v ... req=K` -> dict of the k=v fields."""
    fields = {}
    for tok in line.split()[2:]:
        key, sep, value = tok.partition("=")
        if sep:
            fields[key] = value
    return fields


def classify(line):
    """'app root' key of a submit line, or None for a mutate."""
    tok = line.split()
    if tok[0] != "submit":
        return None
    return (tok[2], int(tok[4]) if len(tok) > 4 else -1)


# ---------------------------------------------------------- closed loop


class ClosedLoop:
    """N connections, one outstanding request each, multiplexed here."""

    def __init__(self, port, workload, seed, tally):
        self.tally = tally
        self.records = []  # completed requests, in completion order
        self.job_lines = 0  # `job` lines read, whatever their status
        self.conns = []
        for c in range(workload.clients):
            sock = socket.create_connection(("127.0.0.1", port), timeout=60)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.conns.append({
                "id": c, "sock": sock, "buf": b"",
                "stream": benchlib.client_stream(workload, seed, c),
                "cur": None, "done": False})

    def _issue(self, conn, now):
        line = next(conn["stream"])
        conn["cur"] = {"line": line, "t_sent": now, "t_ack": None}
        self.tally.attempt()
        conn["sock"].sendall((line + "\n").encode())

    def run(self, seconds):
        sel = selectors.DefaultSelector()
        start = self.start = time.perf_counter()
        deadline = start + seconds
        for conn in self.conns:
            sel.register(conn["sock"], selectors.EVENT_READ, conn)
            self._issue(conn, time.perf_counter())
        live = len(self.conns)
        while live:
            for key, _ in sel.select(1.0):
                conn = key.data
                data = conn["sock"].recv(65536)
                if not data:
                    raise BenchError("daemon closed a client connection")
                conn["buf"] += data
                while b"\n" in conn["buf"]:
                    raw, conn["buf"] = conn["buf"].split(b"\n", 1)
                    now = time.perf_counter()
                    if not self._on_line(conn, raw.decode(), now):
                        continue
                    if now < deadline:
                        self._issue(conn, now)
                    else:
                        conn["done"] = True
                        sel.unregister(conn["sock"])
                        live -= 1
            now = time.perf_counter()
            for conn in self.conns:
                cur = conn["cur"]
                if (not conn["done"] and cur is not None
                        and now - cur["t_sent"] > REQUEST_TIMEOUT_S):
                    self.tally.fail("timeout", cur["line"][:60])
                    raise BenchError("request timed out; daemon stalled")
        wall = time.perf_counter() - start
        sel.close()
        return wall

    def _on_line(self, conn, line, now):
        """True when the outstanding request is finished with."""
        cur = conn["cur"]
        if line.startswith("queued req="):
            cur["t_ack"] = now
            cur["req"] = line.split()[1].split("=", 1)[1]
            return False
        if line.startswith("reject:"):
            self.tally.fail("reject", line[:80])
            return True
        if not line.startswith("job "):
            return False
        self.job_lines += 1
        fields = parse_job_line(line)
        if fields.get("req") != cur.get("req"):
            raise BenchError(f"completion for req={fields.get('req')} while "
                             f"req={cur.get('req')} was outstanding")
        if fields.get("status") != "ok":
            self.tally.fail("job_error", line[:100])
        else:
            self.records.append({
                "client": conn["id"], "line": cur["line"],
                "key": classify(cur["line"]),
                "latency": now - cur["t_sent"],
                "done_at": now - self.start,
                "ack": cur["t_ack"] - cur["t_sent"],
                "summary": int(fields["summary"])})
        return True

    def close(self):
        for conn in self.conns:
            try:
                conn["sock"].sendall(b"quit\n")
            except OSError:
                pass
            conn["sock"].close()


# ------------------------------------------------------------ e2e phase


def set_up(bins, workdir, workload, tally):
    """SETUP_REPEATS cold starts; every one but the last is torn down.

    Returns (daemon, control client, setup seconds of each start,
    warm-up records of the kept daemon)."""
    times = []
    for i in range(SETUP_REPEATS):
        daemon = Daemon(bins["slfe_server"], workdir)
        try:
            ctl = LineClient(daemon.port)
            warm = []
            for line in benchlib.warmup_lines(workload):
                reply = ctl.request(line)
                warm.append((line, reply))
            times.append(time.perf_counter() - daemon.started)
        except BaseException:
            daemon.close()
            raise
        if i + 1 < SETUP_REPEATS:
            ctl.close()
            daemon.close()
    for line, reply in warm:
        tally.attempt()
        fields = parse_job_line(reply) if reply.startswith("job ") else {}
        if fields.get("status") != "ok":
            tally.fail("job_error" if fields else "reject", reply[:100])
    return daemon, ctl, times, warm


def daemon_fingerprints(ctl):
    """Graph name -> fingerprint as the daemon's `hot` listing reports it.

    `hot` prints a header plus one line per tracked graph; the one-line
    `metrics json` reply after it marks where the listing ends."""
    ctl.send("hot 64")
    ctl.send("metrics json")
    fps = {}
    while True:
        line = ctl.readline()
        if line.startswith("{"):
            return fps
        if line.startswith("hot ") and not line.startswith("hot:"):
            fields = parse_job_line("x " + line)
            if fields.get("graph", "?") != "?":
                fps.setdefault(fields["graph"], fields["fp"])


def reference(bins, workload, pairs):
    """Expected summaries for (app, root) pairs from perfbench_layers."""
    shape = benchlib.SHAPE
    proc = subprocess.run(
        [bins["perfbench_layers"], "reference", "--graph", workload.graph,
         "--scale", str(shape["scale"]), "--nodes", str(shape["nodes"])],
        input="".join(f"{a} {r}\n" for a, r in pairs), capture_output=True,
        text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"reference failed: {proc.stderr.strip()[-400:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def check_answers(bins, workload, records, warm, fps, tally, prov):
    """Immutable-graph answers against the in-process reference; mutation
    versions strictly increasing per client and never repeated."""
    checked = []  # (key, summary) pairs with a fixed expected answer
    for line, reply in warm:
        if reply.startswith("job "):
            checked.append((classify(line), int(parse_job_line(reply)
                                                ["summary"])))
    if not workload.mutate_every:
        checked += [(r["key"], r["summary"]) for r in records
                    if r.get("key") is not None]
    pairs = sorted({k for k, _ in checked})
    ref = reference(bins, workload, pairs)
    expect = {(a, r): s for (a, r), s in zip(pairs, ref["summaries"])}
    for key, got in checked:
        if got != expect[key]:
            tally.fail("mismatch", f"{key} summary {got} != {expect[key]}")
    if ref["vertices"] != workload.vertices:
        raise BenchError(f"{workload.graph} has {ref['vertices']} vertices, "
                         f"table says {workload.vertices}")
    if fps.get(workload.graph) != ref["fingerprint"]:
        tally.fail("mismatch", f"daemon fp {fps.get(workload.graph)} != "
                   f"in-process {ref['fingerprint']}")
    prov["answers_checked"] = len(checked)
    prov["reference_pairs"] = len(pairs)
    if workload.mutate_every:
        seen, last = set(), {}
        for r in records:
            if r["key"] is not None:
                continue
            v, c = r["summary"], r["client"]
            if v in seen or v <= last.get(c, 0):
                tally.fail("mismatch", f"client {c} saw version {v} after "
                           f"{last.get(c)}")
            seen.add(v)
            last[c] = v
        prov["versions_checked"] = len(seen)


def scrape_metrics(ctl):
    ctl.send("metrics json")
    return json.loads(ctl.readline())


def cpu_jiffies():
    """(steal, total) jiffies of the host view in /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def window_rates(done_at, seconds):
    """Completions in each whole second of the measured phase.

    The cumulative completion count is interpolated linearly between
    completion instants, so a window's rate is a real number, not a
    count. The median window is the reported throughput: a burst of host
    CPU steal moves a few windows, not the median."""
    done = sorted(done_at)

    def completed_by(t):
        k = bisect.bisect_right(done, t)
        if k == 0 or k == len(done):
            return float(k)
        return k - 1 + (t - done[k - 1]) / (done[k] - done[k - 1])

    return [completed_by(i + 1) - completed_by(i) for i in range(seconds)]


def measure_phase(bins, workdir, workload, seed, seconds, tally, prov):
    """Set-up, one measured phase and every answer check on one daemon."""
    daemon, ctl, setup_times, warm = set_up(bins, workdir, workload, tally)
    loop = None
    try:
        fps = daemon_fingerprints(ctl)
        loop = ClosedLoop(daemon.port, workload, seed, tally)
        steal0, total0 = cpu_jiffies()
        wall = loop.run(seconds)
        steal1, total1 = cpu_jiffies()
        rss_mb = daemon.vm_hwm_mb()
        metrics = scrape_metrics(ctl)
    finally:
        if loop is not None:
            loop.close()
        ctl.close()
        daemon.close()

    check_answers(bins, workload, loop.records, warm, fps, tally, prov)
    # Telemetry agreement: every job line this client read (warm-up
    # included, failed jobs too) is one observation in the daemon's
    # end-to-end latency histogram.
    hist = metrics["histograms"]["slfe_job_latency_seconds"]
    jobs_read = sum(r.startswith("job ") for _, r in warm) + loop.job_lines
    if hist["count"] != jobs_read:
        tally.fail("mismatch", f"daemon counted {hist['count']} jobs, "
                   f"client read {jobs_read}")
    return {"records": loop.records, "wall": wall, "rss_mb": rss_mb,
            "setup_times": setup_times, "hist": hist, "fps": fps,
            "steal": (steal1 - steal0) / max(1, total1 - total0)}


def run_e2e(bins, workdir, workload, seed, seconds, tally, prov,
            max_attempts):
    # Host CPU steal above STEAL_LIMIT means another guest held this VM's
    # CPUs during the phase; such a phase is run once more on a fresh
    # daemon and the metrics come from the attempt with the least steal.
    # Every attempt's answers are checked and counted.
    attempts = []
    for _ in range(max_attempts):
        attempts.append(measure_phase(bins, workdir, workload, seed, seconds,
                                      tally, prov))
        if attempts[-1]["steal"] <= STEAL_LIMIT:
            break
    phase = min(attempts, key=lambda p: p["steal"])
    records, wall, hist = phase["records"], phase["wall"], phase["hist"]
    setup_times, rss_mb, fps = (phase["setup_times"], phase["rss_mb"],
                                phase["fps"])

    queries = [r for r in records if r["key"] is not None]
    mutates = [r for r in records if r["key"] is None]
    q_lat_ms = [r["latency"] * 1e3 for r in queries]
    if not q_lat_ms:
        raise BenchError("no query completed in the measured phase")
    rates = window_rates([r["done_at"] for r in records], seconds)
    e2e = {
        "jobs_per_s": median(rates),
        "job_p50_ms": median(q_lat_ms),
        "job_tail_ms": percentile(q_lat_ms, workload.tail_pct),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    net = {
        "net.ack_ms": median([r["ack"] * 1e3 for r in queries]),
        "net.stream_gap_ms": e2e["job_p50_ms"] - hist["p50"] * 1e3,
    }
    # Issue metrics the result object cannot gate: failed_frac is 0 on a
    # healthy run, and mutate_p50_ms exists only where the mix mutates.
    extra = {"failed_frac": {"value": None, "unit": "ratio"}}
    if mutates:
        extra["mutate_p50_ms"] = {
            "value": median([r["latency"] * 1e3 for r in mutates]),
            "unit": "ms"}
    prov.update({
        "extra_metrics": extra,
        "measured_wall_s": wall,
        "jobs_per_s_overall": len(records) / wall,
        "window_rates": [round(x, 2) for x in rates],
        "cpu_steal_frac": phase["steal"],
        "attempts_steal_frac": [p["steal"] for p in attempts],
        "completed": len(records),
        "queries": len(queries),
        "mutations": len(mutates),
        "tail_percentile": workload.tail_pct,
        "tail_samples": len(q_lat_ms),
        "tail_samples_beyond": sum(1 for x in q_lat_ms
                                   if x > e2e["job_tail_ms"]),
        "tail_rule_pick_at_this_count": benchlib.tail_percentile(
            len(q_lat_ms)),
        "setup_runs_s": setup_times,
        "daemon_job_count": hist["count"],
        "daemon_p50_ms": hist["p50"] * 1e3,
        "fingerprint": fps.get(workload.graph),
    })
    return e2e, net, fps


# ---------------------------------------------------------- trace phase


# Session-phase size: the head of the interleaved request sequence, and
# runs per app for apps outside the workload's mix.
SESSION_REQUESTS = 48
SESSION_PROBES = 4
# Upper bound on the in-process service's rate, to size the replayed
# streams; the replay reports it if a client still ran out.
REPLAY_MAX_JOBS_PER_S = 800
# The replay's service phase is capped: its layer metrics are medians and
# ratios that settle well within this, and the cap keeps a traced run
# (daemon phase + replay) near 45 s.
REPLAY_MAX_SECONDS = 10


def replay_spec(workload, seed, seconds, fps):
    """The input of `perfbench_layers replay`: shape, graph and expected
    fingerprint, warm-up, each client's stream, the post-phase mutation
    probe, and the session-phase lines."""
    shape = benchlib.SHAPE
    lines = [f"shape {shape['workers']} {shape['nodes']} {shape['scale']}",
             f"seconds {min(seconds, REPLAY_MAX_SECONDS)}",
             f"graph {workload.graph} {fps.get(workload.graph, 'none')}"]
    lines += [f"warmup {l}" for l in benchlib.warmup_lines(workload)]
    per_client = REPLAY_MAX_JOBS_PER_S * seconds // workload.clients
    for c in range(workload.clients):
        stream = benchlib.client_stream(workload, seed, c)
        lines += [f"client {c} {next(stream)}" for _ in range(per_client)]
    probe = benchlib.probe_lines(workload, seed)
    lines += [f"probe {l}" for l in probe]

    streams = [benchlib.client_stream(workload, seed, c)
               for c in range(workload.clients)]
    session = []
    while len(session) < SESSION_REQUESTS:
        session += [next(s) for s in streams]
    roots = benchlib.root_pool(workload.graph, workload.vertices)
    for app in benchlib.LAYER_APPS:
        if app in workload.apps:
            continue
        for k in range(SESSION_PROBES):
            root = f" {roots[k]}" if app in benchlib.SINGLE_SOURCE else ""
            session.append(f"submit probe {app} {workload.graph}{root}")
    session += probe
    lines += [f"session {l}" for l in session]
    return "\n".join(lines) + "\n"


def run_replay(bins, workload, seed, seconds, fps, tally):
    spec = replay_spec(workload, seed, seconds, fps)
    proc = subprocess.run([bins["perfbench_layers"], "replay"], input=spec,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"replay failed: {proc.stderr.strip()[-400:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.attempt(out["attempted"])
    for kind, n in out["failures"].items():
        for _ in range(n):
            tally.fail(kind, "replay")
    for msg in out.get("examples", []):
        log(f"replay: {msg}")
    return out


# ----------------------------------------------------------------- main


def source_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=root, capture_output=True, text=True,
                              timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest(root):
    """Short sha256 over the daemon's sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for base in ("src", "examples", BENCH_DIR):
        for dirpath, dirnames, files in os.walk(os.path.join(root, base)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(benchlib.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    # A stopped run still reaps its daemon: SystemExit unwinds through
    # the finally blocks that close it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    workload: Workload = benchlib.WORKLOADS[args.workload]
    try:
        check_checkout(root)
        out_dir, bins = build(root)
        workdir = os.path.join(out_dir, "run")
        os.makedirs(workdir, exist_ok=True)

        tally = FailureTally()
        prov = {
            "workload": workload.name, "why": workload.why,
            "seed": args.seed, "seconds": args.seconds,
            "host_cores": os.cpu_count(), "host": platform.machine(),
            "commit": source_commit(root),
            "source_sha256": source_digest(root),
            "daemon_shape": dict(benchlib.SHAPE), "clients": workload.clients,
            "loop": "closed, one outstanding request per connection",
            "graph": workload.graph, "apps": list(workload.apps),
            "mutate_every": workload.mutate_every,
        }
        # A traced run reports only per-layer metrics, which have no
        # bound, so its daemon phase is not retried.
        e2e, net, fps = run_e2e(bins, workdir, workload, args.seed,
                                args.seconds, tally, prov,
                                1 if args.trace else MAX_ATTEMPTS)
        if args.trace:
            replay = run_replay(bins, workload, args.seed, args.seconds, fps,
                                tally)
            values = dict(replay["metrics"])
            values.update(net)
            units = benchlib.layer_metric_units()
            missing = set(units) - set(values)
            if missing:
                raise BenchError(f"replay did not report {sorted(missing)}")
            prov["replay"] = replay.get("provenance", {})
        else:
            values = e2e
            units = benchlib.E2E_UNITS
    except BenchError as e:
        log(f"error: {e}")
        return 2

    prov["failures"] = dict(tally.counts)
    prov["extra_metrics"]["failed_frac"]["value"] = tally.failed_frac
    for msg in tally.examples:
        log(msg)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
