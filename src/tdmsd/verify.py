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
generates the graphs of its batches, checks them, and pickles only the
records back.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .characterization import (
    lemma2_sufficient,
    lemma14_sufficient_sd_gt_one,
    longest_paths,
    predicts_sd_one,
)
from .errors import OutOfRange, UnknownTheorem
from .family import FAMILY_ORDER_CAP, generate_family, is_in_family, verify_bc_property
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


@lru_cache(maxsize=None)
def _sd3(t: Graph) -> int | None:
    return sd_gamma_t(t, cap=3).value


@lru_cache(maxsize=None)
def _sd1(t: Graph) -> int | None:
    return sd_gamma_t(t, cap=1).value


@lru_cache(maxsize=None)
def _msd3(t: Graph) -> int | None:
    return msd_gamma_t(t, cap=3).value


def _sd_msd(g: Graph) -> tuple[int | None, int | None]:
    # one state per graph: msd shares the covers and solves sd found
    memo = SearchState(g)
    return sd_gamma_t(g, cap=3, memo=memo).value, msd_gamma_t(g, cap=3, memo=memo).value


def _fmt(v: int | None) -> str:
    return str(v) if v is not None else ">cap"


def _map_graphs(fn: Callable[[Graph], Record], batches: Iterable[Iterable[Graph]],
                jobs: int) -> list[Record]:
    if jobs > 1:
        batches = list(batches)
        workers = usable_workers(jobs, len(batches))
        if workers > 1:
            def check(batch: Iterable[Graph]) -> list[Record]:
                return [fn(g) for g in batch]

            return [record for listed in _fork_map(check, batches, workers) for record in listed]
    return [fn(g) for batch in batches for g in batch]


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


# -- per-graph checks (a worker pickles the Records back, never a check) ----

def _check_msd_le_3(g: Graph) -> Record:
    value = _msd3(g)
    return Record(graph6_encode(g), value is not None, "msd_gamma_t <= 3", _fmt(value))


def _check_tree_sd_eq_msd(t: Graph) -> Record:
    sd, msd = _sd_msd(t)
    return Record(
        graph6_encode(t), sd == msd and sd is not None,
        "sd_gamma_t == msd_gamma_t", f"sd={_fmt(sd)} msd={_fmt(msd)}",
    )


def _check_family_sd3(t: Graph) -> Record:
    sd_is_3 = _sd3(t) == 3
    in_family = is_in_family(t)
    return Record(
        graph6_encode(t), sd_is_3 == in_family,
        "sd_gamma_t == 3 iff tree in family",
        f"sd3={sd_is_3} family={in_family}",
    )


def _check_sd1_characterization(t: Graph) -> Record:
    predicted = predicts_sd_one(t)
    actual = _sd1(t) == 1
    return Record(
        graph6_encode(t), predicted == actual,
        "predicts_sd_one == (sd_gamma_t == 1)",
        f"predicted={predicted} sd1={actual}",
    )


def _check_lemma2(g: Graph) -> Record:
    if not lemma2_sufficient(g):
        return Record(graph6_encode(g), True, "lemma2 => sd_gamma_t == 1", "not fired")
    sd_is_1 = _sd1(g) == 1
    return Record(graph6_encode(g), sd_is_1, "lemma2 => sd_gamma_t == 1", f"sd1={sd_is_1}")


def _check_lemma14(t: Graph) -> Record:
    if not lemma14_sufficient_sd_gt_one(t):
        return Record(graph6_encode(t), True, "lemma14 => sd_gamma_t > 1", "not fired")
    sd_gt_1 = _sd1(t) is None
    detail = "sd>1" if sd_gt_1 else "sd=1"
    return Record(graph6_encode(t), sd_gt_1, "lemma14 => sd_gamma_t > 1", detail)


def _check_universal(g: Graph) -> Record:
    if g.n < 3 or not any(g.degree(v) == g.n - 1 for v in range(g.n)):
        return Record(graph6_encode(g), True, "no universal vertex", "skipped")
    value = _msd3(g)
    return Record(graph6_encode(g), value == 2, "msd_gamma_t == 2", _fmt(value))


def _riti_ok(t: Graph) -> bool:
    prof = structure_profile(t)
    if prof.strong_supports:
        return False
    supports = prof.supports
    for p in longest_paths(t):
        for pth in (p, p[::-1]):
            if len(pth) < 6:
                return False
            if t.degree(pth[1]) != 2 or t.degree(pth[2]) != 2:
                return False
            if pth[3] in supports:
                return False
    return True


def _check_strong_support(t: Graph) -> Record:
    if _msd3(t) != 3:
        return Record(graph6_encode(t), True, "msd != 3", "skipped")
    ok = _riti_ok(t)
    return Record(
        graph6_encode(t), ok,
        "no strong support; deg(v1)=deg(v2)=2; v3 not a support",
        "ok" if ok else "violated",
    )


def _check_bc(member) -> Record:
    ok = verify_bc_property(member)
    return Record(graph6_encode(member.tree), ok, "B|C is a minimum total dominating set", str(ok))


def _check_path_cycle(g: Graph) -> Record:
    want = path_cycle_formula(g.n)
    name = "path" if g.is_tree() else "cycle"
    sd, msd = _sd_msd(g)
    return Record(
        graph6_encode(g), sd == want and msd == want,
        f"sd=msd={want} for {name} n={g.n}", f"sd={_fmt(sd)} msd={_fmt(msd)}",
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

    check: Callable[..., Record]
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


def run_verification(theorem_id: str, n_max: int | None = None, jobs: int = 1) -> VerificationReport:
    if theorem_id not in THEOREMS:
        raise UnknownTheorem(f"unknown theorem id {theorem_id!r}")
    th = THEOREMS[theorem_id]
    n_max = th.default if n_max is None else n_max
    if not th.lo <= n_max <= th.hi:
        raise OutOfRange(f"{theorem_id} checks n_max in {th.lo}..{th.hi}, got {n_max}")
    start = time.perf_counter()
    records = _map_graphs(th.check, th.graphs(th.lo, n_max), jobs)
    elapsed = time.perf_counter() - start
    failures = tuple(r for r in records if not r.ok)
    return VerificationReport(
        theorem_id=theorem_id,
        orders_checked=(th.lo, n_max),
        graphs_checked=len(records),
        failures=failures,
        elapsed=elapsed,
        records=tuple(records),
    )
