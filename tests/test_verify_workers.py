"""The forked workers of ``verify --jobs``: the records they return, and how a
failing worker ends the sweep.  Every test checks the real fork path, on any
number of cores, and that no child process is left behind."""

import io
import os
import signal
import time

import pytest

from tdmsd import errors, path
from tdmsd import verify as verify_mod
from tdmsd.cli import main


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1})


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
    theorem = verify_mod.Theorem(check, lambda lo, hi: paths(4), 2, 2, 2)
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
