"""One measured unit of the benchmark, run in a fresh interpreter.

    python3 perfbench/unit.py sweep THEOREM JOBS [--n-max N] [--trace]
    python3 perfbench/unit.py query INPUT INVARIANT --trace
    python3 perfbench/unit.py cli ARG...
    python3 perfbench/unit.py setup

A sweep unit times one ``run_verification`` call (import excluded), at the
theorem's default ``n_max`` unless ``--n-max`` is given.  A ``cli`` unit is
``python3 -m tdmsd.cli ARG...``: it runs the real CLI module as ``__main__``.
A ``setup`` unit imports tdmsd and prints when the import was done.  A
traced ``query`` unit runs ``tdmsd compute`` in-process.  With ``--trace``
the unit wraps the public functions each layer calls into, as bound in the
calling module, records one span (name, start, end, parent) per call in
memory, and writes the spans with its result as one JSON line at the end.

Every unit samples the speed of the core it runs on while it works (see
``Speed``) and reports it: on stdout with its result, or for ``cli`` units,
whose stdout is the CLI's, as the last line of stderr.

The unit checks that its caches are cold: a unit that finds any tdmsd
``lru_cache`` already filled, or that loads tdmsd's on-disk ``gamma_t``
cache, is not fresh and reports so.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import struct
import sys
import time

SPEED_INTERVAL_S = 0.01


def probe_work() -> None:
    """A fixed piece of pure-Python work: integer adds in a loop.  It makes no
    object the garbage collector tracks, so it never triggers a collection
    whose cost would depend on the unit's own heap."""
    s = 0
    for i in range(8000):
        s += i


class Speed:
    """Samples how fast the core running this process is, while it works.

    On a shared host a core's speed drifts by tens of percent over seconds to
    minutes, with what runs beside it.  Every ``SPEED_INTERVAL_S`` a SIGALRM
    handler times one ``probe_work()``; the median of these samples is how
    long that work took on the same core, amid the unit's own work.  Pool
    workers forked by the unit sample too and send their samples back
    through a pipe.  ``own_s`` is the time this process spent sampling.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.own_s = 0.0
        self._child = False
        self._r, self._w = os.pipe()
        os.set_blocking(self._r, False)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        os.register_at_fork(after_in_child=self._start_in_child)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)

    def _start_in_child(self) -> None:
        self._child = True
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        probe_work()
        took = time.perf_counter() - start
        if self._child:
            os.write(self._w, struct.pack("d", took))
            return
        self.samples.append(took)
        self._drain()
        self.own_s += time.perf_counter() - start

    def _drain(self) -> None:
        # every write is one 8-byte record, so reads return whole records
        while True:
            try:
                data = os.read(self._r, 4096)
            except BlockingIOError:
                return
            self.samples += [x for (x,) in struct.iter_unpack("d", data)]

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._drain()
        xs = sorted(self.samples)
        mid = len(xs) // 2
        median = xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2
        return {"sample_s": median, "samples": len(xs), "own_s": self.own_s}


class Tracer:
    """In-memory span recorder plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        ni = self._name_ids.get(name)
        if ni is None:
            ni = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ni

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; ``name`` may be a function of the result."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [0, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span[1] = start
            span[2] = end
        span[0] = self._name_id(name(out) if callable(name) else name)
        return out

    def wrap(self, module, attr: str, name, counter: str | None = None, sizer=None):
        fn = getattr(module, attr)

        def wrapped(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if counter:
                self.count(counter, sizer(out) if sizer else 1)
            return out

        setattr(module, attr, wrapped)

    def count_delta(self, module, attr: str, counter: str, gauge) -> None:
        """Add what ``gauge()`` grows by during each call to ``counter``."""
        fn = getattr(module, attr)

        def wrapped(*args, **kwargs):
            before = gauge()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count(counter, gauge() - before)

        setattr(module, attr, wrapped)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": self.counters}


def _canonical_name(code: bytes) -> str:
    return "canonical.tree" if code[:1] == b"T" else "canonical.general"


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points where its callers look them up."""
    from tdmsd import cli, domination, enumeration, subdivision, verify

    tracer.wrap(subdivision, "canonical_code", _canonical_name, "subdivision.memo_lookups")
    tracer.wrap(enumeration, "canonical_code", _canonical_name, "enumeration.codes")
    tracer.wrap(subdivision, "gamma_t_value", "domination.gamma_t", "subdivision.value_calls")
    tracer.wrap(cli, "gamma_t", "domination.gamma_t")
    # solves are the cache misses inside the domination.gamma_t spans, so that
    # calls, solves and self time describe the same calls; characterization's
    # own gamma_t work stays in characterization.self_s
    misses = lambda: domination.gamma_t_value.cache_info().misses  # noqa: E731
    for module, attr in ((subdivision, "gamma_t_value"), (cli, "gamma_t")):
        tracer.count_delta(module, attr, "domination.gamma_t.solves", misses)
    for attr in ("subdivide", "subdivide_edges"):
        tracer.wrap(subdivision, attr, "graph.subdivide")
    for module in (verify, cli):
        tracer.wrap(module, "sd_gamma_t", "subdivision.sd")
        tracer.wrap(module, "msd_gamma_t", "subdivision.msd")
    for attr in ("predicts_sd_one", "lemma2_sufficient", "lemma14_sufficient_sd_gt_one"):
        tracer.wrap(verify, attr, "characterization")
    tracer.wrap(verify, "enumerate_trees", "enumeration.trees", "enumeration.trees.count", len)
    tracer.wrap(verify, "enumerate_connected_graphs", "enumeration.connected",
                "enumeration.connected.count", len)
    tracer.wrap(verify, "graph6_encode", "graph6.encode")


def _caches():
    from tdmsd import domination, enumeration, verify

    return {
        "gamma_t_value": domination.gamma_t_value,
        "all_min_tds": domination._all_min_tds_masks,
        "tree_reps": enumeration._tree_reps,
        "connected_reps": enumeration._connected_reps,
        "sd3": verify._sd3,
        "sd1": verify._sd1,
        "msd3": verify._msd3,
    }


def _max_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _fresh() -> bool:
    from tdmsd import subdivision

    cold = all(fn.cache_info().currsize == 0 for fn in _caches().values())
    return cold and subdivision._persistent_gamma_t is None


def run_cli(args: list[str]) -> int:
    """``python3 -m tdmsd.cli ARG...`` in this interpreter; its exit code."""
    import runpy

    sys.argv = ["tdmsd.cli", *args]
    try:
        runpy.run_module("tdmsd.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


def main(argv: list[str]) -> int:
    kind = argv[0] if argv else ""
    if kind in ("cli", "setup"):
        # these units time interpreter start and import, so sample before it
        speed = Speed()
        speed.start()
        if kind == "cli":
            code = run_cli(argv[1:])
            sys.stdout.flush()
            print(json.dumps({"speed": speed.stop()}), file=sys.stderr)
            return code
        import tdmsd  # noqa: F401

        done = time.monotonic()
        print(json.dumps({"import_done": done, "speed": speed.stop()}))
        return 0

    kind, a, b = argv[:3]
    trace = "--trace" in argv[3:]
    n_max = int(argv[argv.index("--n-max") + 1]) if "--n-max" in argv else None
    import tdmsd  # noqa: F401  (import is excluded from the timed region)
    from tdmsd import cli, domination, subdivision, verify

    fresh = _fresh()
    tracer = Tracer() if trace else None
    if tracer:
        install(tracer)

    out: dict = {}
    speed = Speed()
    speed.start()
    if kind == "sweep":
        theorem, jobs = a, int(b)
        start = time.perf_counter()
        if tracer:
            report = tracer.call("verify", verify.run_verification, theorem, n_max, jobs)
        else:
            report = verify.run_verification(theorem, n_max, jobs)
        elapsed = time.perf_counter() - start
        out["speed"] = speed.stop()
        out["elapsed_s"] = elapsed - out["speed"]["own_s"]
        out["graphs_checked"] = report.graphs_checked
        out["failures"] = len(report.failures)
        out["max_rss_mb"] = _max_rss_mb()
    elif kind == "query":
        buf = io.StringIO()
        argv_cli = ["compute", "--input", a, "--invariant", b]
        code = tracer.call("cli", cli.main, argv_cli, buf) if tracer else cli.main(argv_cli, buf)
        out["speed"] = speed.stop()
        if code != 0:
            print(buf.getvalue(), file=sys.stderr)
            return code
        out["value"] = json.loads(buf.getvalue().splitlines()[-1])["value"]
    else:
        print(f"unknown unit kind {kind!r}", file=sys.stderr)
        return 2
    # cli.main turns the on-disk cache on when TDMSD_CACHE_DIR is set
    out["fresh"] = fresh and subdivision._persistent_gamma_t is None
    if tracer:
        tracer.count("domination.gamma_t.cache_size", domination.gamma_t_value.cache_info().currsize)
        out["trace"] = tracer.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
