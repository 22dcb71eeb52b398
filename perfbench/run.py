"""Fresh-process benchmark of tdmsd's theorem sweeps and CLI queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` as it stands, with nothing to build.  Every measured unit runs in
its own fresh interpreter, because tdmsd's module-level ``lru_cache``s would
otherwise carry work from one unit into the next: each theorem sweep is one
unit, each ``tdmsd compute`` call is one unit, and no two share a process.

Each workload pairs theorem sweeps with a query loop, because every run
reports every end-to-end metric.  A run is

* two or three rounds of the workload's theorems at their default
  ``--n-max``, all at ``jobs=1`` and then all at ``jobs=nproc``, in a
  seed-shuffled order;
* a closed loop of one client that spawns ``tdmsd compute``
  processes one after another over the query mix, in seed-shuffled whole
  passes, with import probes for ``setup_s`` spread among the calls;

then more whole passes until ``--seconds`` have passed since it started.

Times are given at a fixed reference speed.  On a shared host a core runs
the same work up to twice as fast at one moment as at another, which no
number of runs averages out, so every unit samples the speed of its own core
while it works (``unit.Speed``: a fixed piece of pure-Python work timed
every 10 ms).  A unit's wall time, less its sampling, is scaled by
``REF_SAMPLE_S`` over its median sample: the seconds it would have taken had
the sample taken ``REF_SAMPLE_S``.  Traced units' span times are scaled the
same way.  Raw wall times are printed on stderr.

Every sweep verdict and every query value is checked against the expected
tables below; a unit that crashes, exits non-zero, times out, starts with
warm caches or disagrees with the table counts as failed and is named on
stderr.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The traced run repeats the untraced sweeps and the query pass
it needs for its ratios, then traces one ``jobs=1`` sweep per theorem (and,
on cli-queries, one call per distinct query), and derives per-layer self
times from the recorded spans.  For the tracing overhead it times one short
sweep of the workload several times, traced and untraced in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
UNIT = HERE / "unit.py"
NPROC = len(os.sched_getaffinity(0))

SETUP_PROBES = 6
IMPORTTIME_PROBES = 3
OVERHEAD_PAIRS = 6
UNIT_TIMEOUT_S = 60.0
# stop starting query passes past this point so a run always ends in time
QUERY_DEADLINE_S = 120.0
# what one unit.Speed sample takes at the reference speed: about its median
# on a shared 2-vCPU x86_64 VM under Python 3.11
REF_SAMPLE_S = 300e-6

# graphs_checked of each theorem at its default --n-max; failures must be 0
EXPECTED_GRAPHS = {
    "tree-sd-eq-msd": 5445,
    "msd-le-3": 995,
    "universal-vertex": 994,
    "sd1-characterization": 985,
    "lemma14-implies": 985,
    "lemma2-implies": 1979,
    "path-cycle-formulas": 28,
}

K7 = "F~~~w"
K8 = "G~~~~{"
# (input, invariant) -> value printed by `tdmsd compute`
EXPECTED_VALUES = {
    ("p6", "gamma_t"): 4, ("p6", "sd_t"): 3, ("p6", "msd_t"): 3,
    ("k4", "gamma_t"): 2, ("k4", "sd_t"): 3, ("k4", "msd_t"): 2,
    ("gstar", "gamma_t"): 6, ("gstar", "sd_t"): 2, ("gstar", "msd_t"): 3,
    ("c9", "gamma_t"): 5, ("c9", "sd_t"): 1, ("c9", "msd_t"): 1,
    ("wheel5", "gamma_t"): 2, ("wheel5", "sd_t"): 2, ("wheel5", "msd_t"): 2,
    ("star6", "gamma_t"): 2, ("star6", "sd_t"): 2, ("star6", "msd_t"): 2,
    ("p7", "gamma_t"): 4, ("p7", "sd_t"): 2, ("p7", "msd_t"): 2,
    (K7, "sd_t"): 3, (K7, "msd_t"): 2, (K8, "msd_t"): 2,
}

FIXTURE_MIX = tuple(
    (f, inv)
    for f in ("p6", "k4", "gstar", "c9", "wheel5", "star6", "p7")
    for inv in ("gamma_t", "sd_t", "msd_t")
)
# The symmetric literals hit the factorial canonical path.  Their weights put
# the slow calls at 19 % of a pass with K7 sd_t (~0.8 s) spanning ranks
# 84.6-96.2 %, so p90 sits inside one homogeneous band, never on the
# fast/slow boundary.
CLI_MIX = FIXTURE_MIX + ((K7, "msd_t"),) + ((K7, "sd_t"),) * 3 + ((K8, "msd_t"),)


@dataclass(frozen=True)
class Workload:
    theorems: tuple[str, ...]
    passes: int  # seed-shuffled passes over the query mix; more if --seconds has not passed
    rounds: int  # rounds of the sweeps at jobs=1 and at jobs=nproc; medians reported
    trace_queries: bool  # the traced run also traces one call per distinct query
    # (theorem, n_max, graphs_checked) of the short jobs=1 sweep that the
    # traced run times alternately traced and untraced for trace.overhead_frac
    probe: tuple[str, int, int]


# Every workload runs the same query mix; a pass is 26 calls, whose slowest
# five are K8 msd_t, three K7 sd_t and K7 msd_t, so p90 falls among the K7
# sd_t calls at any whole number of passes.  The sweep workloads run one
# pass (p90 has two samples beyond it) and cli-queries two (five beyond it):
# four passes, for ten samples beyond p90, would take the runs of all
# workloads past their time limit on a 2-vCPU machine.  The sweep workloads' traced
# runs trace only the sweeps, so that their per-layer metrics describe the
# sweep; the query loop's layers are traced on cli-queries.  The sd=1
# predicate theorems run with the connected-graph theorems, so that one
# workload covers min-set enumeration and the connected-graph generator.
# Even at the reference speed a sweep unit varies by about 10 % from one unit
# to the next, jobs=nproc units most, so the sweeps run in rounds.
# tree-sweep bypasses connected-graph and min-set enumeration, and
# cli-queries bypasses both generators.
WORKLOADS = {
    "tree-sweep": Workload(("tree-sd-eq-msd",), 1, 2, False, ("tree-sd-eq-msd", 12, 985)),
    "graph-predicate-sweep": Workload(
        ("msd-le-3", "universal-vertex", "sd1-characterization", "lemma14-implies",
         "lemma2-implies"),
        1, 2, False, ("msd-le-3", 7, 995),
    ),
    # path-cycle-formulas is the sweep made of the same single-graph sd_t and
    # msd_t calls the CLI answers, on named families; it runs serially at
    # any jobs
    "cli-queries": Workload(("path-cycle-formulas",), 2, 3, True, ("path-cycle-formulas", 16, 28)),
}


# -- spans ---------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    ``spans`` holds ``[name, start, end, parent_index]`` rows with parent -1
    for a root, as the unit's stack-based tracer records them: children are
    nested in their parent and follow one another.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class LayerTotals:
    """Per-name call counts, self times and durations over many units."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self.cache_size = 0

    def add(self, trace: dict, scale: float = 1.0) -> None:
        """Add one unit's spans, their times multiplied by ``scale``."""
        names = trace["names"]
        spans = [[names[ni], s, e, p] for ni, s, e, p in trace["spans"]]
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own * scale
            self.durations.setdefault(name, []).append((end - start) * scale)
        counters = dict(trace["counters"])
        self.cache_size = max(self.cache_size, counters.pop("domination.gamma_t.cache_size", 0))
        for key, n in counters.items():
            self.counters[key] = self.counters.get(key, 0) + n


def at_ref(seconds: float, speed: dict) -> float:
    """Wall seconds of a unit, less its own sampling, at the reference speed."""
    return (seconds - speed["own_s"]) * REF_SAMPLE_S / speed["sample_s"]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- verdict checks ----------------------------------------------------------

def check_sweep(theorem: str, out: dict, expected: dict[str, int] = EXPECTED_GRAPHS) -> str | None:
    """None when the sweep unit matches the table, else why it failed."""
    if not out.get("fresh"):
        return f"{theorem}: unit started with warm caches"
    want = expected.get(theorem)
    if out.get("graphs_checked") != want:
        return f"{theorem}: graphs_checked {out.get('graphs_checked')} != expected {want}"
    if out.get("failures") != 0:
        return f"{theorem}: {out.get('failures')} counterexample(s) reported"
    return None


def check_query(key: tuple[str, str], out: dict, expected=EXPECTED_VALUES) -> str | None:
    """None when the query unit matches the table, else why it failed.  Only
    traced units, which run in unit.py, report whether they started fresh."""
    if out.get("fresh") is False:
        return f"compute {key[0]} {key[1]}: unit started with warm caches"
    want = expected.get(key, "<missing>")
    value = out.get("value")
    if value != want:
        return f"compute {key[0]} {key[1]}: value {value!r} != expected {want!r}"
    return None


# -- process plumbing --------------------------------------------------------

def _env() -> dict[str, str]:
    env = dict(os.environ)
    # cli.main would load and save an on-disk gamma_t cache, so units would
    # start warm from what earlier units left there
    env.pop("TDMSD_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], timeout: float = UNIT_TIMEOUT_S):
    """Run a child in its own session; return (seconds, exit code, stdout, stderr).

    On timeout the whole process group (pool workers included) is killed and
    reaped, and the exit code is None.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        args, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = None
    return time.monotonic() - start, code, out, err


@dataclass(frozen=True)
class Unit:
    seconds: float  # spawn to exit
    out: str
    err: str

    def result(self) -> dict:
        return json.loads(self.out.strip().splitlines()[-1])

    def speed(self) -> dict:
        """The speed report of a ``cli`` unit, on the last line of stderr."""
        return json.loads(self.err.strip().splitlines()[-1])["speed"]


class Run:
    """Spawns units and counts the attempted and the failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def spawn(self, label: str, args: list[str]) -> Unit | None:
        """Spawn one unit; None (and one failure) if it did not exit 0."""
        self.attempted += 1
        seconds, code, out, err = spawn(args)
        if code != 0:
            tail = err.strip().splitlines()[-1:] if err else []
            self.errors.append(f"{label}: exit {code} {' '.join(tail)}".rstrip())
            return None
        return Unit(seconds, out, err)

    def unit(self, label: str, args: list[str]) -> tuple[Unit, dict] | None:
        """Spawn one unit and parse the JSON on the last line of its stdout."""
        unit = self.spawn(label, args)
        if unit is None:
            return None
        try:
            return unit, unit.result()
        except (IndexError, ValueError):
            self.errors.append(f"{label}: no result line")
            return None

    def fail(self, message: str | None) -> bool:
        if message:
            self.errors.append(message)
        return message is None


def setup_probe(run: Run) -> tuple[float, float] | None:
    """Seconds from spawning an interpreter to `import tdmsd` done, at the
    reference speed and raw."""
    start = time.monotonic()
    got = run.unit("setup", [sys.executable, str(UNIT), "setup"])
    if got is None:
        return None
    raw = got[1]["import_done"] - start
    return at_ref(raw, got[1]["speed"]), raw


def importtime_probe(run: Run) -> dict[str, float]:
    """Cumulative import seconds of tdmsd and numpy from -X importtime."""
    unit = run.spawn("importtime", [sys.executable, "-X", "importtime", "-c", "import tdmsd"])
    found = {}
    for line in unit.err.splitlines() if unit else ():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("tdmsd", "numpy"):
            found[parts[2]] = int(parts[1]) / 1e6
    return found


def sweep_unit(run: Run, theorem: str, jobs: int, trace: bool = False, n_max: int | None = None,
               expected: dict[str, int] = EXPECTED_GRAPHS) -> tuple[Unit, dict] | None:
    """One run_verification call, at the theorem's default n_max unless given."""
    args = [sys.executable, str(UNIT), "sweep", theorem, str(jobs)]
    args += (["--n-max", str(n_max)] if n_max else []) + (["--trace"] if trace else [])
    got = run.unit(f"sweep {theorem} jobs={jobs}" + (f" n_max={n_max}" if n_max else ""), args)
    if got is None or not run.fail(check_sweep(theorem, got[1], expected)):
        return None
    return got


def query_unit(run: Run, key: tuple[str, str], trace: bool = False) -> tuple[Unit, dict] | None:
    """One `tdmsd compute` call, checked against the table.  Untraced, it is
    the real CLI, and the result carries its speed report."""
    if trace:
        args = [sys.executable, str(UNIT), "query", key[0], key[1], "--trace"]
    else:
        args = [sys.executable, str(UNIT), "cli", "compute", "--input", key[0], "--invariant", key[1]]
    got = run.unit(f"compute {key[0]} {key[1]}", args)
    if got is None or not run.fail(check_query(key, got[1])):
        return None
    if not trace:
        try:
            got[1]["speed"] = got[0].speed()
        except (IndexError, KeyError, ValueError):
            run.errors.append(f"compute {key[0]} {key[1]}: no speed report")
            return None
    return got


# -- phases ------------------------------------------------------------------

def sweep_phase(run: Run, order: list[str], jobs: int, trace: bool = False,
                layers: LayerTotals | None = None) -> tuple[float, float, float]:
    """Summed run_verification seconds at the reference speed and raw, and
    the highest RSS of the units."""
    total, raw, rss = 0.0, 0.0, 0.0
    for theorem in order:
        got = sweep_unit(run, theorem, jobs, trace)
        if got is None:
            continue
        _, out = got
        # elapsed_s already excludes the unit's own sampling
        raw += out["elapsed_s"]
        total += out["elapsed_s"] * REF_SAMPLE_S / out["speed"]["sample_s"]
        rss = max(rss, out["max_rss_mb"])
        if layers is not None:
            layers.add(out["trace"], REF_SAMPLE_S / out["speed"]["sample_s"])
    return total, raw, rss


def schedule(rng: random.Random, passes: int) -> list[tuple[str, str] | None]:
    """Seed-shuffled passes over the query mix, with SETUP_PROBES import
    probes (None) spread evenly among the calls."""
    keys: list[tuple[str, str]] = []
    for _ in range(passes):
        keys += rng.sample(CLI_MIX, len(CLI_MIX))
    every = max(1, len(keys) // SETUP_PROBES)
    out: list[tuple[str, str] | None] = []
    for i, key in enumerate(keys):
        if i % every == 0 and out.count(None) < SETUP_PROBES:
            out.append(None)
        out.append(key)
    return out


def run_schedule(run: Run, items, t0: float, latencies: list[tuple[float, float]],
                 setups: list[tuple[float, float]]) -> None:
    """Closed loop: each item starts when the previous one has exited.
    Appends (seconds at the reference speed, raw seconds) per unit."""
    for item in items:
        if time.monotonic() - t0 > QUERY_DEADLINE_S:
            run.notes.append(f"query loop stopped at the {QUERY_DEADLINE_S:.0f} s deadline")
            return
        if item is None:
            probe = setup_probe(run)
            if probe is not None:
                setups.append(probe)
            continue
        got = query_unit(run, item)
        if got is not None:
            latencies.append((at_ref(got[0].seconds, got[1]["speed"]), got[0].seconds))


def median_or_zero(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[Run, dict[str, float], list[str]]:
    """One run: rounds of the sweeps at jobs=1 and at jobs=nproc, then the
    query loop.

    Untraced, the loop runs the workload's passes and then whole passes until
    ``seconds`` have passed.  Traced, it runs one round and one pass, and the
    run goes on to the traced units.
    """
    run = Run()
    rng = random.Random(seed)
    order = rng.sample(wl.theorems, len(wl.theorems))
    plan = schedule(rng, 1 if trace else wl.passes)
    t0 = time.monotonic()
    latencies: list[tuple[float, float]] = []
    setups: list[tuple[float, float]] = []
    serial, parallel, rss = [], [], 0.0
    for _ in range(1 if trace else wl.rounds):
        *sums, round_rss = sweep_phase(run, order, 1)
        serial.append(sums)
        rss = max(rss, round_rss)
        parallel.append(sweep_phase(run, order, NPROC)[:2])
    sweep_s, sweep_raw_s = (median_or_zero(xs) for xs in zip(*serial))
    sweep_par_s, sweep_par_raw_s = (median_or_zero(xs) for xs in zip(*parallel))
    run_schedule(run, plan, t0, latencies, setups)
    while not trace and time.monotonic() - t0 < min(seconds, QUERY_DEADLINE_S):
        run_schedule(run, rng.sample(CLI_MIX, len(CLI_MIX)), t0, latencies, setups)
    ms = [x * 1000.0 for x, _ in latencies]
    raw_ms = [x * 1000.0 for _, x in latencies]
    setup_s = median_or_zero([x for x, _ in setups])
    notes = [
        f"theorem order {order}; nproc {NPROC}",
        f"sweep_s, sweep_par_s: median of {len(serial)} round(s)",
        f"setup_s: median of {len(setups)} fresh interpreters",
        f"compute_ms: {len(ms)} samples, {len(ms) - 1 - int((len(ms) - 1) * 0.9)} "
        f"of them beyond p90" if ms else "compute_ms: no samples",
        f"raw wall times: sweep_s {sweep_raw_s:.4g}, sweep_par_s {sweep_par_raw_s:.4g}, "
        f"setup_s {median_or_zero([x for _, x in setups]):.4g}, compute_ms.p50 "
        f"{percentile(raw_ms, 50):.4g}, compute_ms.p90 {percentile(raw_ms, 90):.4g}",
    ]
    if not trace:
        return run, {
            "setup_s": setup_s,
            "sweep_s": sweep_s,
            "sweep_par_s": sweep_par_s,
            "peak_rss_mb": rss,
            "compute_ms.p50": percentile(ms, 50),
            "compute_ms.p90": percentile(ms, 90),
            "queries_per_s": len(ms) / (sum(ms) / 1000.0) if ms else 0.0,
        }, notes

    imports = [importtime_probe(run) for _ in range(IMPORTTIME_PROBES)]
    layers = LayerTotals()
    traced_s, _, _ = sweep_phase(run, order, 1, trace=True, layers=layers)
    overhead, probe_notes = trace_overhead(run, wl.probe)
    traced_queries = [k for k in dict.fromkeys(plan) if k] if wl.trace_queries else []
    for key in traced_queries:
        got = query_unit(run, key, trace=True)
        if got is not None:
            layers.add(got[1]["trace"], REF_SAMPLE_S / got[1]["speed"]["sample_s"])

    calls, own, c = layers.calls, layers.self_s, layers.counters
    canonical_us = [d * 1e6 for name in ("canonical.tree", "canonical.general")
                    for d in layers.durations.get(name, ())]
    lookups = c.get("subdivision.memo_lookups", 0)
    misses = c.get("subdivision.value_calls", 0) - calls.get("subdivision.sd", 0) - calls.get("subdivision.msd", 0)
    kept = c.get("enumeration.trees.count", 0) + c.get("enumeration.connected.count", 0)
    codes = c.get("enumeration.codes", 0)
    speedup = sweep_s / sweep_par_s if sweep_par_s else 0.0
    p50_ms = percentile(ms, 50)
    metrics = {
        "canonical.tree.calls": calls.get("canonical.tree", 0),
        "canonical.tree.self_s": own.get("canonical.tree", 0),
        "canonical.general.calls": calls.get("canonical.general", 0),
        "canonical.general.self_s": own.get("canonical.general", 0),
        "canonical.call_us.p50": percentile(canonical_us, 50),
        "canonical.call_us.p99": percentile(canonical_us, 99),
        "subdivision.sd.calls": calls.get("subdivision.sd", 0),
        "subdivision.sd.self_s": own.get("subdivision.sd", 0),
        "subdivision.msd.calls": calls.get("subdivision.msd", 0),
        "subdivision.msd.self_s": own.get("subdivision.msd", 0),
        "subdivision.memo_lookups": lookups,
        "subdivision.memo_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "domination.gamma_t.calls": calls.get("domination.gamma_t", 0),
        "domination.gamma_t.solves": c.get("domination.gamma_t.solves", 0),
        "domination.gamma_t.self_s": own.get("domination.gamma_t", 0),
        "domination.gamma_t.call_us.p99": percentile(
            [d * 1e6 for d in layers.durations.get("domination.gamma_t", ())], 99),
        "domination.gamma_t.cache_size": layers.cache_size,
        "characterization.calls": calls.get("characterization", 0),
        "characterization.self_s": own.get("characterization", 0),
        "enumeration.trees.self_s": own.get("enumeration.trees", 0),
        "enumeration.trees.count": c.get("enumeration.trees.count", 0),
        # a generator that needs no dedupe table computes no codes: nothing wasted
        "enumeration.dedupe_ratio": kept / codes if codes else (1.0 if kept else 0.0),
        "enumeration.connected.self_s": own.get("enumeration.connected", 0),
        "enumeration.connected.count": c.get("enumeration.connected.count", 0),
        "graph.subdivide.calls": calls.get("graph.subdivide", 0),
        "graph.subdivide.self_s": own.get("graph.subdivide", 0),
        "graph6.encode.calls": calls.get("graph6.encode", 0),
        "graph6.encode.self_s": own.get("graph6.encode", 0),
        "verify.self_s": own.get("verify", 0),
        "verify.par_speedup": speedup,
        "verify.par_efficiency": speedup / NPROC,
        "setup.import_s": median_or_zero([p["tdmsd"] for p in imports if "tdmsd" in p]),
        "setup.numpy_import_s": median_or_zero([p["numpy"] for p in imports if "numpy" in p]),
        "cli.import_share": setup_s / (p50_ms / 1000.0) if p50_ms else 0.0,
        "trace.overhead_frac": overhead,
    }
    notes += probe_notes + [
        f"untraced sweep_s {sweep_s:.3f} s, sweep_par_s {sweep_par_s:.3f} s, traced sweep_s {traced_s:.3f} s",
        f"spans: {sum(calls.values())} over {len(order)} traced sweeps and "
        f"{len(traced_queries)} traced queries",
    ]
    return run, metrics, notes


def trace_overhead(run: Run, probe: tuple[str, int, int]) -> tuple[float, list[str]]:
    """Median traced over median untraced seconds of one short jobs=1 sweep,
    minus 1.  Traced and untraced units alternate in ABBA order, so that a
    drift in host speed falls on both alike."""
    theorem, n_max, graphs = probe
    times: dict[bool, list[float]] = {False: [], True: []}
    for i in range(OVERHEAD_PAIRS):
        for trace in (False, True) if i % 2 == 0 else (True, False):
            got = sweep_unit(run, theorem, 1, trace, n_max, {theorem: graphs})
            if got is not None:
                out = got[1]
                times[trace].append(out["elapsed_s"] * REF_SAMPLE_S / out["speed"]["sample_s"])
    plain, traced = median_or_zero(times[False]), median_or_zero(times[True])
    note = (f"trace.overhead_frac: {theorem} n_max={n_max}, median of {len(times[True])} traced "
            f"{traced:.3f} s over median of {len(times[False])} untraced {plain:.3f} s")
    return (traced / plain - 1.0 if plain and traced else 0.0), [note]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tdmsd" / "__init__.py").is_file():
        print(f"error: no tdmsd sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    run, values, notes = measure(wl, args.seed, args.seconds, bool(args.trace))

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = len(run.errors)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", file=sys.stderr)
    for note in notes + run.notes:
        print(f"  {note}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    frac = failed / run.attempted if run.attempted else 1.0
    print(f"  {'ops_failed_frac':32s} {frac:>14.6g} ({failed} of {run.attempted} units)", file=sys.stderr)
    for err in run.errors:
        print(f"  FAILED {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
