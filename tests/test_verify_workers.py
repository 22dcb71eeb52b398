"""The forked workers of ``verify --jobs``: the records they return, the
connected graphs they generate, and how a failing worker ends the sweep.
Every test checks the real fork path, on any number of cores, and that no
child process is left behind."""

import io
import os
import signal
import time

import pytest

from tdmsd import enumerate_connected_graphs, enumeration, errors, path
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
        return verify_mod.Record(str(g.n), True, "", "")

    return check


@pytest.mark.parametrize("theorem,n_max", [("msd-le-3", 5), ("tree-sd-eq-msd", 9)])
def test_forked_workers_return_the_serial_records(theorem, n_max, two_cores, forks):
    serial = verify_mod.run_verification(theorem, n_max, jobs=1)
    assert forks == []
    wide = verify_mod.run_verification(theorem, n_max, jobs=2)
    assert forks == [2]
    assert wide.records == serial.records and wide.graphs_checked == serial.graphs_checked
    assert_no_child_left()


def test_records_come_back_in_stream_order_for_any_stride():
    graphs = paths(7)
    check = in_worker(os.getpid(), lambda g: None)
    for workers in (2, 3, 7):
        got = verify_mod._fork_map(check, graphs, workers)
        assert [r.graph6 for r in got] == [str(n) for n in range(2, 9)]
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
    theorem = verify_mod.Theorem(check, lambda lo, hi, jobs: paths(4), 2, 2, 2)
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


@pytest.fixture
def generation_forks(monkeypatch):
    """The worker counts the connected generator forked with, from a cold cache."""
    asked = []
    real = enumeration.fork_map

    def counted(fn, bases, workers):
        asked.append(workers)
        return real(fn, bases, workers)

    monkeypatch.setattr(enumeration, "fork_map", counted)
    enumeration._connected_reps.cache_clear()
    return asked


@pytest.mark.parametrize("n", range(2, 8))
def test_split_generation_gives_the_frozen_stream(n, two_cores, generation_forks):
    # orders 2 and 3 have one base each, so only orders 4 and up fork, once
    graphs = enumerate_connected_graphs(n, jobs=2)
    assert (_codes_digest(graphs), _stream_digest(graphs)) == CONNECTED_SHA256[n]
    assert generation_forks == ([2] if n >= 4 else [])
    assert_no_child_left()


def test_split_generation_asks_for_at_most_jobs_cores_and_bases(monkeypatch, generation_forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    enumerate_connected_graphs(4, jobs=3)  # two bases
    enumerate_connected_graphs(5, jobs=3)  # six bases
    enumerate_connected_graphs(6, jobs=9)  # 21 bases, four cores
    assert generation_forks == [2, 3, 4]
    # an order generated once is never generated again, whatever the jobs
    enumerate_connected_graphs(6, jobs=1)
    enumerate_connected_graphs(5, jobs=4)
    assert generation_forks == [2, 3, 4]
    assert_no_child_left()


def test_sweep_forks_generation_for_its_top_order_only(two_cores, forks, generation_forks):
    wide = verify_mod.run_verification("lemma2-implies", 5, jobs=2)
    assert generation_forks == [2] and forks == [2]
    serial = verify_mod.run_verification("lemma2-implies", 5, jobs=1)
    assert wide.records == serial.records and generation_forks == [2] and forks == [2]
    assert_no_child_left()


def fail_in_generation_worker(monkeypatch, then):
    """Make the connected generator run ``then()`` in its forked workers, when
    they extend a base of order 4; the test's own process extends as before."""
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
        monkeypatch, capsys, two_cores, generation_forks):
    def boom():
        raise ValueError("extension failed")

    fail_in_generation_worker(monkeypatch, boom)
    with pytest.raises(ValueError, match="extension failed"):
        enumerate_connected_graphs(5, jobs=2)
    code, err = run_verify_n5_jobs_2(capsys)
    assert generation_forks == [2, 2]
    assert code == 4 and err == ["internal error: ValueError: extension failed"]
    assert_no_child_left()


@pytest.mark.parametrize("die", [lambda: os._exit(5), lambda: os.kill(os.getpid(), signal.SIGKILL)])
def test_dead_generation_worker_is_one_internal_error_line(
        die, monkeypatch, capsys, two_cores, generation_forks):
    fail_in_generation_worker(monkeypatch, die)
    code, err = run_verify_n5_jobs_2(capsys)
    assert generation_forks == [2]
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
