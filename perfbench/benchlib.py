"""Pure pieces of the perfbench harness: the workload table, the seeded
request streams, percentile and tail-percentile rules, and the failure
tally. Nothing here does I/O, so test_benchlib.py can check it alone."""

import bisect
import random
import statistics
from dataclasses import dataclass

# Daemon shape shared by every workload (slfe_server flags).
SHAPE = {"workers": 2, "nodes": 2, "scale": 4}

# Every per-app layer metric carries one of these suffixes. Apps outside a
# workload's own mix are measured by a short probe on that workload's graph
# so that every workload reports the same metric names.
LAYER_APPS = ("sssp", "bfs", "wp", "pr", "tr", "cc")
SINGLE_SOURCE = ("sssp", "bfs", "wp")

# Zipf(s=1) root popularity over this many fixed vertex ids per graph.
ROOT_POOL = 512
# A `mutate` inserts this many edges; weights span the datasets' range.
MUTATE_EDGES = 8
MAX_WEIGHT = 256
# Mutation probe the traced replay runs after its measured phase on
# workloads whose own mix has no mutations: (mutate, then one query) pairs,
# so that the mutation and repair layer metrics exist on every workload.
PROBE_MUTATIONS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    vertices: int  # |V| of the dataset at SHAPE["scale"], checked at run time
    apps: tuple
    clients: int
    mutate_every: int  # 0 = no mutations; k = every k-th request mutates
    tail_pct: float  # tail_percentile() of the query count at run length
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="point-queries",
            graph="LJ",
            vertices=16384,
            apps=("sssp", "bfs", "wp"),
            clients=4,
            mutate_every=0,
            tail_pct=99.0,
            why="4 clients, sssp/bfs/wp on LJ, Zipf roots: per-job fixed costs "
            "(guidance misses, queue, sketch, net) dominate; job_tail_ms = "
            "p99 of ~1300-2900 queries per run",
        ),
        Workload(
            name="whole-graph",
            graph="OK",
            vertices=8192,
            apps=("pr", "tr", "cc"),
            clients=2,
            mutate_every=0,
            tail_pct=90.0,
            why="2 clients, pr/tr/cc on OK: guidance always hits after warm-up, "
            "so engine supersteps and cc's per-seed barriers set job time; "
            "job_tail_ms = p90 of ~340-540 queries",
        ),
        Workload(
            name="mutating-graph",
            graph="PK",
            vertices=4096,
            apps=("sssp", "pr"),
            clients=3,
            mutate_every=8,
            tail_pct=99.0,
            why="3 clients, sssp/pr on PK, every 8th request an 8-edge mutate: "
            "new versions repair or regenerate guidance and hold lineage "
            "memory; job_tail_ms = p99 of ~1000-1800 queries",
        ),
    )
}


def root_pool(graph, vertices):
    """The fixed vertex ids a graph's Zipf draws index into (seed-free)."""
    return random.Random("perfbench-roots:" + graph).sample(
        range(vertices), ROOT_POOL)


class Zipf:
    """Zipf(s=1): rank k (0-based) drawn with probability ~ 1/(k+1)."""

    def __init__(self, n):
        total, self._cdf = 0.0, []
        for k in range(1, n + 1):
            total += 1.0 / k
            self._cdf.append(total)
        self._total = total

    def draw(self, rng):
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


def client_stream(workload, seed, client):
    """Endless, deterministic protocol lines for one client connection.

    Each client has its own stream derived from (seed, workload, client),
    so the job set does not depend on how the daemon interleaves clients.
    Apps are drawn uniformly in shuffled rounds (each round holds every
    app once), so every seed runs the same app mix and only the order and
    the roots differ; multimodal latencies then keep a seed-free median.
    """
    rng = random.Random(f"perfbench:{seed}:{workload.name}:{client}")
    roots = root_pool(workload.graph, workload.vertices)
    zipf = Zipf(len(roots))
    tenant = f"t{client}"
    deck = []
    i = 0
    while True:
        i += 1
        if workload.mutate_every and i % workload.mutate_every == 0:
            yield mutate_line(tenant, workload, rng)
            continue
        if not deck:
            deck = list(workload.apps)
            rng.shuffle(deck)
        app = deck.pop()
        if app in SINGLE_SOURCE:
            yield f"submit {tenant} {app} {workload.graph} {roots[zipf.draw(rng)]}"
        else:
            yield f"submit {tenant} {app} {workload.graph}"


def mutate_line(tenant, workload, rng):
    parts = [f"mutate {tenant} {workload.graph}"]
    for _ in range(MUTATE_EDGES):
        src = rng.randrange(workload.vertices)
        dst = rng.randrange(workload.vertices - 1)
        dst += dst >= src  # no self loops
        parts.append(f"ins {src} {dst} {rng.randint(1, MAX_WEIGHT)}")
    return " ".join(parts)


def warmup_lines(workload):
    """One request per (graph, app) of the workload, run during set-up."""
    roots = root_pool(workload.graph, workload.vertices)
    out = []
    for app in workload.apps:
        root = f" {roots[0]}" if app in SINGLE_SOURCE else ""
        out.append(f"submit warm {app} {workload.graph}{root}")
    return out


def probe_lines(workload, seed):
    """Post-phase mutation probe for workloads without mutations in their
    mix: PROBE_MUTATIONS x (mutate, then a query of the first app)."""
    if workload.mutate_every:
        return []
    rng = random.Random(f"perfbench-probe:{seed}:{workload.name}")
    roots = root_pool(workload.graph, workload.vertices)
    app = workload.apps[0]
    root = f" {roots[0]}" if app in SINGLE_SOURCE else ""
    out = []
    for _ in range(PROBE_MUTATIONS):
        out.append(mutate_line("probe", workload, rng))
        out.append(f"submit probe {app} {workload.graph}{root}")
    return out


def percentile(values, pct):
    """Nearest-rank percentile (the sample at or above pct% of the data)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)  # ceil(n * pct / 100)
    return ordered[max(0, min(len(ordered), int(rank)) - 1)]


TAIL_CANDIDATES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(count):
    """The highest of p99.9, p99 and p90 that still leaves at least
    TAIL_MIN_BEYOND of `count` samples above it; None when even p90
    does not."""
    for pct in TAIL_CANDIDATES:
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return pct
    return None


def median(values):
    return statistics.median(values) if values else 0.0


class FailureTally:
    """Failed operations against requests attempted.

    Every way a request can go wrong counts once: a non-ok job line, a
    `reject:` line, a request lost or timed out, and an answer mismatch
    (a completed request whose answer is wrong is still a failure)."""

    KINDS = ("job_error", "reject", "timeout", "mismatch")

    def __init__(self):
        self.attempted = 0
        self.counts = {k: 0 for k in self.KINDS}
        self.examples = []

    def attempt(self, n=1):
        self.attempted += n

    def fail(self, kind, detail=""):
        if kind not in self.counts:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.counts[kind] += 1
        if len(self.examples) < 8:
            self.examples.append(f"{kind}: {detail}")

    @property
    def failed(self):
        return sum(self.counts.values())

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


# End-to-end metrics (--trace 0), by name and unit.
E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-app engine metrics (one per LAYER_APPS suffix) and their units.
ENGINE_PER_APP = {
    "engine.compute_ms": "ms",
    "engine.comm_ms": "ms",
    "engine.computations": "count",
    "engine.iterations": "count",
    "engine.messages": "count",
    "engine.rr_work_ratio": "ratio",
    "api.overhead_ms": "ms",
}


def layer_metric_units():
    """Per-layer metrics (--trace 1), by name and unit."""
    units = {
        "graph.build_s": "s",
        "graph.mutate_ms": "ms",
        "guidance.hit_ratio": "ratio",
        "guidance.generate_ms": "ms",
        "guidance.hit_us": "us",
        "guidance.repair_ratio": "ratio",
        "guidance.repair_ms": "ms",
        "engine.computations_per_s": "1/s",
        "service.submit_us": "us",
        "service.queue_wait_ms": "ms",
        "service.busy_frac": "ratio",
        "sketch.record_ns": "ns",
        "net.ack_ms": "ms",
        "net.stream_gap_ms": "ms",
    }
    for base, unit in ENGINE_PER_APP.items():
        for app in LAYER_APPS:
            units[f"{base}.{app}"] = unit
    return units
