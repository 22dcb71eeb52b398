"""Exhaustive theorem sweeps over generated graph families.

Each sweep walks a deterministic stream of non-isomorphic graphs, evaluates
one theorem predicate per graph, and returns a report whose failure records
can be replayed through the CLI's compute command via their graph6 strings.

A stream is a sequence of batches, each an iterable of graphs: one graph
each, except that the connected streams hand out their top order as one
lazy batch per base (``enumeration.extension_batches``).  In process the
batches are checked as they stream by.  With jobs > 1 they are listed and
split among forked workers by stride, in one fork for the whole sweep.  A
worker inherits its batches and the check, so neither is pickled; it
generates the graphs of its batches, checks them, and pickles back only the
records of its failures (every record when records are asked for) and None
for each other graph.

A check returns a Verdict and makes its own texts; only a graph that is
recorded is graph6-encoded and has its text formatted.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, TypeVar

from .characterization import (
    lemma2_sufficient,
    lemma14_sufficient_sd_gt_one,
    longest_paths,
    predicts_sd_one,
)
from .errors import OutOfRange, UnknownTheorem
from .family import (
    FAMILY_ORDER_CAP,
    LabeledTree,
    generate_family,
    is_in_family,
    verify_bc_property,
)
from .fixtures import cycle, path
from .graph import MAX_VERTICES, Graph, structure_profile
from .graph6 import graph6_encode
from .enumeration import (
    CONNECTED_ORDER_CAP,
    TREE_ORDER_CAP,
    enumerate_connected_graphs,
    enumerate_trees,
    extension_batches,
)
from .subdivision import SearchState, msd_gamma_t, sd_gamma_t
from .workers import fork_map as _fork_map, usable_workers

R = TypeVar("R")


class Verdict(NamedTuple):
    """A check's finding on one graph.  actual is the text of what it
    found, or a function of no arguments that formats it, called only when
    the graph is recorded (_recorder)."""

    ok: bool
    expected: str
    actual: str | Callable[[], str]


class Record(NamedTuple):
    graph6: str
    ok: bool
    expected: str
    actual: str


class VerificationReport(NamedTuple):
    theorem_id: str
    orders_checked: tuple[int, int]
    graphs_checked: int
    failures: tuple[Record, ...]
    elapsed: float
    # every graph's record, in stream order, under run_verification(records=True)
    records: tuple[Record, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def path_cycle_formula(n: int) -> int:
    """The mod-4 value shared by the subdivision and multisubdivision numbers."""
    if n % 4 == 2:
        return 3
    if n % 4 == 3:
        return 2
    return 1


# the checks read only values, so their states may take any raising subset
# as a witness (SearchState's any_witness)

@lru_cache(maxsize=None)
def _sd3(t: Graph) -> int | None:
    return sd_gamma_t(t, cap=3, memo=SearchState(t, any_witness=True)).value


@lru_cache(maxsize=None)
def _sd1(t: Graph) -> int | None:
    return sd_gamma_t(t, cap=1, memo=SearchState(t, any_witness=True)).value


@lru_cache(maxsize=None)
def _msd3(t: Graph) -> int | None:
    return msd_gamma_t(t, cap=3, memo=SearchState(t, any_witness=True)).value


def _sd_msd(g: Graph) -> tuple[int | None, int | None]:
    # one state per graph: msd shares the covers and solves sd found
    memo = SearchState(g, any_witness=True)
    return sd_gamma_t(g, cap=3, memo=memo).value, msd_gamma_t(g, cap=3, memo=memo).value


def _fmt(v: int | None) -> str:
    return str(v) if v is not None else ">cap"


def _map_graphs(fn: Callable[[Graph], R], batches: Iterable[Iterable[Graph]],
                jobs: int) -> list[R]:
    if jobs > 1:
        batches = list(batches)
        workers = usable_workers(jobs, len(batches))
        if workers > 1:
            def check(batch: Iterable[Graph]) -> list[R]:
                return [fn(g) for g in batch]

            return [result for listed in _fork_map(check, batches, workers) for result in listed]
    return [fn(g) for batch in batches for g in batch]


def _recorder(check: Callable[..., Verdict], records: bool) -> Callable[..., Record | None]:
    """check, with each verdict that is kept made a Record: a failure's
    always, a pass's only when records are asked for; None otherwise."""

    def judge(item) -> Record | None:
        ok, expected, actual = check(item)
        if ok and not records:
            return None
        # bc-minimum's items are family members, recorded by their tree
        g = item.tree if isinstance(item, LabeledTree) else item
        text = actual if isinstance(actual, str) else actual()
        return Record(graph6_encode(g), ok, expected, text)

    return judge


def _trees(lo: int, hi: int) -> Iterable[tuple[Graph]]:
    for n in range(lo, hi + 1):
        for t in enumerate_trees(n):
            yield (t,)


def _connected(lo: int, hi: int) -> Iterable[Iterable[Graph]]:
    # the lower orders, generated here, extend 31 of the 143 bases up to
    # order 7, about a sixth of the generation time; whichever process
    # checks a batch of the top order extends its base
    for n in range(lo, hi):
        for g in enumerate_connected_graphs(n):
            yield (g,)
    yield from extension_batches(hi)


def _paths_and_cycles(lo: int, hi: int) -> Iterable[tuple[Graph, ...]]:
    # one batch: the sweep is too short for forked workers to pay off
    yield tuple(g for n in range(lo, hi + 1) for g in (path(n), cycle(n)))


def _trees_then_connected(lo: int, hi: int) -> Iterable[Iterable[Graph]]:
    # trees of every order asked for, plus the connected graphs up to their cap
    yield from _trees(lo, hi)
    yield from _connected(lo, min(hi, CONNECTED_ORDER_CAP))


# -- per-graph checks (each returns a Verdict; see _recorder) ----------------
# a text made of values is passed as a function, so a graph that is not
# recorded formats none

def _check_msd_le_3(g: Graph) -> Verdict:
    value = _msd3(g)
    return Verdict(value is not None, "msd_gamma_t <= 3", lambda: _fmt(value))


def _check_tree_sd_eq_msd(t: Graph) -> Verdict:
    sd, msd = _sd_msd(t)
    return Verdict(
        sd == msd and sd is not None,
        "sd_gamma_t == msd_gamma_t", lambda: f"sd={_fmt(sd)} msd={_fmt(msd)}",
    )


def _check_family_sd3(t: Graph) -> Verdict:
    sd_is_3 = _sd3(t) == 3
    in_family = is_in_family(t)
    return Verdict(
        sd_is_3 == in_family,
        "sd_gamma_t == 3 iff tree in family",
        lambda: f"sd3={sd_is_3} family={in_family}",
    )


def _check_sd1_characterization(t: Graph) -> Verdict:
    predicted = predicts_sd_one(t)
    actual = _sd1(t) == 1
    return Verdict(
        predicted == actual,
        "predicts_sd_one == (sd_gamma_t == 1)",
        lambda: f"predicted={predicted} sd1={actual}",
    )


def _check_lemma2(g: Graph) -> Verdict:
    if not lemma2_sufficient(g):
        return Verdict(True, "lemma2 => sd_gamma_t == 1", "not fired")
    sd_is_1 = _sd1(g) == 1
    return Verdict(sd_is_1, "lemma2 => sd_gamma_t == 1", lambda: f"sd1={sd_is_1}")


def _check_lemma14(t: Graph) -> Verdict:
    if not lemma14_sufficient_sd_gt_one(t):
        return Verdict(True, "lemma14 => sd_gamma_t > 1", "not fired")
    sd_gt_1 = _sd1(t) is None
    detail = "sd>1" if sd_gt_1 else "sd=1"
    return Verdict(sd_gt_1, "lemma14 => sd_gamma_t > 1", detail)


def _check_universal(g: Graph) -> Verdict:
    if not any(g.degree(v) == g.n - 1 for v in range(g.n)):
        return Verdict(True, "no universal vertex", "skipped")
    value = _msd3(g)
    return Verdict(value == 2, "msd_gamma_t == 2", lambda: _fmt(value))


def _riti_ok(t: Graph) -> bool:
    prof = structure_profile(t)
    if prof.strong_supports:
        return False
    supports = prof.supports
    for p in longest_paths(t):
        for pth in (p, p[::-1]):
            if len(pth) < 6:
                return False
            # deg(v1) = 2 is implied: a neighbour of v1 off the path is a
            # leaf (else the path is not longest), so with the leaf v0 it
            # would make v1 a strong support, refused above
            if t.degree(pth[2]) != 2:
                return False
            if pth[3] in supports:
                return False
    return True


def _check_strong_support(t: Graph) -> Verdict:
    if _msd3(t) != 3:
        return Verdict(True, "msd != 3", "skipped")
    ok = _riti_ok(t)
    return Verdict(
        ok,
        "no strong support; deg(v1)=deg(v2)=2; v3 not a support",
        "ok" if ok else "violated",
    )


def _check_bc(member) -> Verdict:
    ok = verify_bc_property(member)
    return Verdict(ok, "B|C is a minimum total dominating set", str(ok))


def _check_path_cycle(g: Graph) -> Verdict:
    want = path_cycle_formula(g.n)
    name = "path" if g.is_tree() else "cycle"
    sd, msd = _sd_msd(g)
    return Verdict(
        sd == want and msd == want,
        f"sd=msd={want} for {name} n={g.n}", lambda: f"sd={_fmt(sd)} msd={_fmt(msd)}",
    )


# -- the theorem table --------------------------------------------------------

class Theorem(NamedTuple):
    """One sweep: a check per item of each batch of graphs(lo, n_max), for
    n_max in lo..hi.

    hi is the graph streams' cap, the family's order cap, or for
    path-cycle-formulas room for the three vertices sd/msd add.  The batches
    are what --jobs workers split; a sweep too short for forked workers to
    pay off is one batch.
    """

    check: Callable[..., Verdict]
    graphs: Callable[[int, int], Iterable[Iterable]]
    lo: int
    default: int
    hi: int


THEOREMS: dict[str, Theorem] = {
    "msd-le-3": Theorem(_check_msd_le_3, _connected, 2, 7, CONNECTED_ORDER_CAP),
    "tree-sd-eq-msd": Theorem(_check_tree_sd_eq_msd, _trees, 3, 14, TREE_ORDER_CAP),
    "family-sd3": Theorem(_check_family_sd3, _trees, 3, 14, TREE_ORDER_CAP),
    "sd1-characterization": Theorem(_check_sd1_characterization, _trees, 3, 12, TREE_ORDER_CAP),
    "bc-minimum": Theorem(
        _check_bc, lambda lo, hi: (generate_family(hi),), 6, 14, FAMILY_ORDER_CAP,
    ),
    "strong-support": Theorem(_check_strong_support, _trees, 3, 14, TREE_ORDER_CAP),
    "universal-vertex": Theorem(_check_universal, _connected, 3, 7, CONNECTED_ORDER_CAP),
    "path-cycle-formulas": Theorem(
        _check_path_cycle, _paths_and_cycles, 3, 16, MAX_VERTICES - 3,
    ),
    "lemma2-implies": Theorem(_check_lemma2, _trees_then_connected, 3, 12, TREE_ORDER_CAP),
    "lemma14-implies": Theorem(_check_lemma14, _trees, 3, 12, TREE_ORDER_CAP),
}


def run_verification(theorem_id: str, n_max: int | None = None, jobs: int = 1, *,
                     records: bool = False) -> VerificationReport:
    """Sweep one theorem.  The report holds its failures, and every graph's
    record only when records is true (--verbose); a failure's record is
    the same either way."""
    if theorem_id not in THEOREMS:
        raise UnknownTheorem(f"unknown theorem id {theorem_id!r}")
    th = THEOREMS[theorem_id]
    n_max = th.default if n_max is None else n_max
    if not th.lo <= n_max <= th.hi:
        raise OutOfRange(f"{theorem_id} checks n_max in {th.lo}..{th.hi}, got {n_max}")
    start = time.perf_counter()
    results = _map_graphs(_recorder(th.check, records), th.graphs(th.lo, n_max), jobs)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        theorem_id=theorem_id,
        orders_checked=(th.lo, n_max),
        graphs_checked=len(results),
        failures=tuple(r for r in results if r is not None and not r.ok),
        elapsed=elapsed,
        records=tuple(results) if records else (),
    )
