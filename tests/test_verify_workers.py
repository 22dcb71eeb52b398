"""The forked workers of ``verify --jobs``: the records they return, the
connected graphs they generate and check, and how a failing worker ends the
sweep.
Every test checks the real fork path, on any number of cores, and that no
child process is left behind."""

import io
import os
import signal
import time

import pytest

from tdmsd import enumeration, errors, path
from tdmsd import verify as verify_mod
from tdmsd.cli import main

from test_enumeration import CONNECTED_SHA256, _codes_digest, _stream_digest


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def forks(monkeypatch):
    """The worker counts the real _fork_map was called with."""
    asked = []
    real = verify_mod._fork_map

    def counted(fn, graphs, workers):
        asked.append(workers)
        return real(fn, graphs, workers)

    monkeypatch.setattr(verify_mod, "_fork_map", counted)
    return asked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def paths(count):
    return [path(n) for n in range(2, 2 + count)]


def in_worker(parent, then):
    """A check that runs ``then(g)`` on P3 in a forked worker: worker 1 of 2
    on paths(4).  It refuses to run in the test's own process."""

    def check(g):
        assert os.getpid() != parent, "the check ran in the parent"
        if g.n == 3:
            then(g)
        return verify_mod.Verdict(True, str(g.n), "")

    return check


def sweeps():
    # the connected sweeps at every order they check, and one tree sweep
    for theorem in ("msd-le-3", "universal-vertex", "lemma2-implies"):
        for n_max in range(verify_mod.THEOREMS[theorem].lo, 8):
            yield theorem, n_max
    yield "tree-sd-eq-msd", 9


@pytest.mark.parametrize("theorem,n_max", list(sweeps()))
def test_forked_workers_return_the_serial_records(theorem, n_max, two_cores, forks):
    # the sweep forks once, unless its stream is one batch (a single base of
    # the top order, and nothing below it)
    th = verify_mod.THEOREMS[theorem]
    batches = len(list(th.graphs(th.lo, n_max)))
    serial = verify_mod.run_verification(theorem, n_max, jobs=1, records=True)
    assert forks == []
    wide = verify_mod.run_verification(theorem, n_max, jobs=2, records=True)
    assert forks == ([2] if batches > 1 else [])
    assert wide.records == serial.records and wide.graphs_checked == serial.graphs_checked
    assert_no_child_left()


@pytest.fixture
def encoded(monkeypatch):
    """The graphs verify.graph6_encode was called with in this process."""
    calls = []
    real = verify_mod.graph6_encode

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(verify_mod, "graph6_encode", counted)
    return calls


def test_passing_sweep_encodes_a_graph_only_for_its_records(encoded):
    report = verify_mod.run_verification("tree-sd-eq-msd", 9)
    assert report.ok and report.graphs_checked == 93
    assert report.records == () and encoded == []
    report = verify_mod.run_verification("tree-sd-eq-msd", 9, records=True)
    assert len(encoded) == len(report.records) == 93


def odd_orders_over_cap(real):
    return lambda g: (None, None) if g.n % 2 else real(g)


def formula_of_three(real):
    return lambda n: 3


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("theorem, n_max, binding, replacement, failed", [
    # the trees of odd order fail: 1 + 3 + 11 + 47 of the 93
    ("tree-sd-eq-msd", 9, "_sd_msd", odd_orders_over_cap, 62),
    # every path and cycle whose order is not 2 mod 4 fails
    ("path-cycle-formulas", 16, "path_cycle_formula", formula_of_three, 22),
])
def test_forced_violations_are_the_same_failures_with_or_without_records(
        theorem, n_max, binding, replacement, failed, jobs, monkeypatch, two_cores, forks,
        encoded):
    monkeypatch.setattr(verify_mod, binding, replacement(getattr(verify_mod, binding)))
    bare = verify_mod.run_verification(theorem, n_max, jobs)
    # path-cycle-formulas is one batch, which never forks
    forked = jobs == 2 and theorem == "tree-sd-eq-msd"
    assert forks == ([2] if forked else [])
    # each failure is encoded once, by the process that checked it
    assert len(encoded) == (0 if forked else failed)
    full = verify_mod.run_verification(theorem, n_max, jobs, records=True)
    assert bare.records == () and len(bare.failures) == failed
    assert bare.failures == full.failures == tuple(r for r in full.records if not r.ok)
    assert bare.graphs_checked == full.graphs_checked == len(full.records)
    assert_no_child_left()


def test_records_come_back_in_stream_order_for_any_stride():
    graphs = paths(7)
    check = in_worker(os.getpid(), lambda g: None)
    for workers in (2, 3, 7):
        got = verify_mod._fork_map(check, graphs, workers)
        assert [r.expected for r in got] == [str(n) for n in range(2, 9)]
    assert_no_child_left()


def test_exception_in_a_worker_is_raised_with_its_type():
    def boom(g):
        raise ValueError(f"bad graph of order {g.n}")

    with pytest.raises(ValueError, match="bad graph of order 3"):
        verify_mod._fork_map(in_worker(os.getpid(), boom), paths(4), 2)
    assert_no_child_left()


def die_with_status_5(g):
    os._exit(5)


def die_by_sigkill(g):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("die,how", [(die_with_status_5, "exit status 5"),
                                     (die_by_sigkill, "killed by signal 9")])
def test_worker_that_ends_without_a_result_is_named(die, how):
    with pytest.raises(RuntimeError, match=f"worker 1 of 2 ended without a result \\({how}"):
        verify_mod._fork_map(in_worker(os.getpid(), die), paths(4), 2)
    assert_no_child_left()


def stub_theorem(monkeypatch, check):
    theorem = verify_mod.Theorem(check, lambda lo, hi: [(g,) for g in paths(4)], 2, 2, 2)
    monkeypatch.setitem(verify_mod.THEOREMS, "msd-le-3", theorem)


def run_verify_jobs_2(capsys):
    code = main(["verify", "--theorem", "msd-le-3", "--jobs", "2"], out=io.StringIO())
    return code, capsys.readouterr().err.splitlines()


def test_graph_error_in_a_worker_exits_3(monkeypatch, capsys, two_cores, forks):
    def not_a_tree(g):
        raise errors.NotATree("checked in a worker")

    stub_theorem(monkeypatch, in_worker(os.getpid(), not_a_tree))
    code, err = run_verify_jobs_2(capsys)
    assert forks == [2]
    assert code == 3 and err == ["precondition violated: checked in a worker"]
    assert_no_child_left()


@pytest.mark.parametrize("die", [die_with_status_5, die_by_sigkill])
def test_dead_worker_is_one_internal_error_line(die, monkeypatch, capsys, two_cores, forks):
    stub_theorem(monkeypatch, in_worker(os.getpid(), die))
    code, err = run_verify_jobs_2(capsys)
    assert forks == [2]
    assert code == 4 and len(err) == 1
    assert err[0].startswith("internal error: RuntimeError: verify worker 1 of 2 ended")
    assert_no_child_left()


def test_interrupted_parent_kills_and_reaps_its_workers():
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(KeyboardInterrupt):
            verify_mod._fork_map(in_worker(os.getpid(), lambda g: time.sleep(60)), paths(4), 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def cold_generator():
    # no order generated and no base extended yet, in this process
    enumeration._connected_reps.cache_clear()
    enumeration._extensions.cache_clear()


@pytest.mark.parametrize("n", range(2, 8))
def test_split_generation_gives_the_frozen_stream(n, two_cores, forks):
    # one batch per base, extended by the two forked workers of the sweep's
    # own map and joined in batch order (orders 2 and 3 have one base, so
    # they are extended in this process)
    cold_generator()
    graphs = verify_mod._map_graphs(lambda g: g, enumeration.extension_batches(n), 2)
    assert forks == ([2] if n > 3 else [])
    assert (_codes_digest(graphs), _stream_digest(graphs)) == CONNECTED_SHA256[n]
    assert_no_child_left()


def test_sweep_forks_generation_for_its_top_order_only(two_cores, forks):
    # the parent generates the orders below the top one, and the workers
    # the top order, each from its own bases: the parent extends the 31
    # bases of orders 1 to 5 and none of order 6, and caches no order 7
    cold_generator()
    report = verify_mod.run_verification("msd-le-3", 7, jobs=2)
    assert forks == [2] and report.graphs_checked == 995 and report.ok
    assert enumeration._extensions.cache_info().currsize == 31
    info = enumeration._connected_reps.cache_info()
    assert info.currsize == 6
    for n in range(1, 7):
        enumeration._connected_reps(n)
    assert enumeration._connected_reps.cache_info().misses == info.misses
    assert_no_child_left()


def test_sweeps_in_one_process_extend_each_base_once(forks):
    # a sweep that checks its top order in process keeps the extensions it
    # made, and the next sweep in the same process reads them
    cold_generator()
    verify_mod.run_verification("msd-le-3", 7, jobs=1)
    extended = enumeration._extensions.cache_info()
    assert extended.currsize == 143
    verify_mod.run_verification("universal-vertex", 7, jobs=1)
    assert enumeration._extensions.cache_info().misses == extended.misses
    assert forks == []


def fail_in_generation_worker(monkeypatch, then):
    """Make the connected generator run ``then()`` in the forked workers of a
    sweep, when they extend a base of order 4; the test's own process
    extends as before."""
    cold_generator()
    parent = os.getpid()
    automorphisms = enumeration.automorphisms

    def extending(base):
        if os.getpid() != parent and base.n == 4:
            then()
        return automorphisms(base)

    monkeypatch.setattr(enumeration, "automorphisms", extending)


def run_verify_n5_jobs_2(capsys):
    code = main(["verify", "--theorem", "msd-le-3", "--n-max", "5", "--jobs", "2"],
                out=io.StringIO())
    return code, capsys.readouterr().err.splitlines()


def test_exception_in_a_generation_worker_is_raised_with_its_type(
        monkeypatch, capsys, two_cores, forks):
    def boom():
        raise ValueError("extension failed")

    fail_in_generation_worker(monkeypatch, boom)
    with pytest.raises(ValueError, match="extension failed"):
        verify_mod.run_verification("msd-le-3", 5, jobs=2)
    code, err = run_verify_n5_jobs_2(capsys)
    assert forks == [2, 2]
    assert code == 4 and err == ["internal error: ValueError: extension failed"]
    assert_no_child_left()


@pytest.mark.parametrize("die", [lambda: os._exit(5), lambda: os.kill(os.getpid(), signal.SIGKILL)])
def test_dead_generation_worker_is_one_internal_error_line(
        die, monkeypatch, capsys, two_cores, forks):
    fail_in_generation_worker(monkeypatch, die)
    code, err = run_verify_n5_jobs_2(capsys)
    assert forks == [2]
    assert code == 4 and len(err) == 1
    assert err[0].startswith("internal error: RuntimeError: verify worker 0 of 2 ended")
    assert_no_child_left()


def test_verify_without_sched_getaffinity(monkeypatch):
    # the platforms that lack it count every core as usable
    monkeypatch.delattr(os, "sched_getaffinity")
    argv = ["verify", "--theorem", "msd-le-3", "--n-max", "4", "--verbose"]
    outs = []
    for jobs in ("1", "2"):
        enumeration._connected_reps.cache_clear()
        out = io.StringIO()
        assert main(argv + ["--jobs", jobs], out=out) == 0
        outs.append(out.getvalue().splitlines()[:-1])
    assert outs[0] == outs[1] and len(outs[0]) == 9
    assert_no_child_left()
