"""The four subdivision invariants: per-edge and global multisubdivision
numbers, and subdivision numbers over simultaneous edge subsets.

Searches go strictly by increasing subdivision count / subset size, so the
reported value is the first point at which the recomputed (total) domination
number strictly increases.  The msd search is count-major: every edge at
t = 1, then every edge at t = 2, and so on, so its first hit is the minimum
and no incumbent is kept.  The base value comes from the cached solver.
Subdivided graphs are not cached globally, because a canonical code to key
such a cache by costs more than the solve it would save (and is factorial on
symmetric graphs), and the cache would only raise peak RSS.  Instead the
gamma_t searches take an optional memo keyed by the labeled subdivided
graph, scoped to one caller's check of one graph: subdivide(g, e, 1) and
subdivide_edges(g, (e,)) build the same graph, so an sd search and an msd
search of g sharing a memo solve their t = 1 / k = 1 rows once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canonical import canonical_code  # noqa: F401  perfbench's traced units wrap this binding
from .domination import gamma_t_value, gamma_value, solve_gamma, solve_gamma_t
from .errors import Disconnected, EdgeNotPresent, TooSmall
from .graph import Edge, Graph, normalize_edge, subdivide, subdivide_edges

MSD_DEFAULT_CAP = 3

# perfbench's freshness check reads this; there is no on-disk cache
_persistent_gamma_t = None


@dataclass(frozen=True)
class SubdivisionResult:
    """Outcome of one subdivision-number search.

    value is None when every count/subset up to the cap failed to increase
    the invariant (the search exceeded its cap, not an error).
    """

    value: int | None
    witness_edges: tuple[Edge, ...]
    witness_t: tuple[int, ...]
    base_value: int
    increased_value: int | None

    @property
    def exceeded(self) -> bool:
        return self.value is None


def _check_connected(g: Graph, min_n: int) -> None:
    if g.n < min_n:
        raise TooSmall(f"need n >= {min_n}, got n={g.n}")
    if not g.is_connected():
        raise Disconnected("subdivision invariants need a connected graph")


def _solve(h: Graph, solve_fn, memo: dict[Graph, int] | None) -> int:
    if memo is None:
        return solve_fn(h)
    value = memo.get(h)
    if value is None:
        value = memo[h] = solve_fn(h)
    return value


def _msd_edge(g: Graph, e: Edge, cap: int, value_fn, solve_fn) -> SubdivisionResult:
    u, v = normalize_edge(*e)
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise EdgeNotPresent(f"edge ({u}, {v}) not in graph")
    base = value_fn(g)
    for t in range(1, cap + 1):
        after = solve_fn(subdivide(g, (u, v), t))
        if after > base:
            return SubdivisionResult(t, ((u, v),), (t,), base, after)
    return SubdivisionResult(None, ((u, v),), (), base, None)


def _msd(g: Graph, cap: int, value_fn, solve_fn,
         memo: dict[Graph, int] | None = None) -> SubdivisionResult:
    _check_connected(g, 2)
    base = value_fn(g)
    edges = g.edges()
    # count-major: the first count at which any edge succeeds is the minimum
    # over edges, and the first edge to succeed at it is the lowest such edge
    for t in range(1, cap + 1):
        for e in edges:
            after = _solve(subdivide(g, e, t), solve_fn, memo)
            if after > base:
                return SubdivisionResult(t, (e,), (t,), base, after)
    return SubdivisionResult(None, (), (), base, None)


def _sd(g: Graph, cap: int | None, value_fn, solve_fn,
        memo: dict[Graph, int] | None = None) -> SubdivisionResult:
    _check_connected(g, 3)
    base = value_fn(g)
    edges = g.edges()
    limit = len(edges) if cap is None else min(cap, len(edges))
    for k in range(1, limit + 1):
        for subset in combinations(edges, k):
            after = _solve(subdivide_edges(g, subset), solve_fn, memo)
            if after > base:
                return SubdivisionResult(k, subset, (1,) * k, base, after)
    return SubdivisionResult(None, (), (), base, None)


def msd_gamma_t_edge(g: Graph, e: Edge, cap: int = MSD_DEFAULT_CAP) -> SubdivisionResult:
    """Smallest t <= cap with gamma_t(g with e subdivided t times) > gamma_t(g)."""
    _check_connected(g, 2)
    return _msd_edge(g, e, cap, gamma_t_value, solve_gamma_t)


def msd_gamma_t(g: Graph, cap: int = MSD_DEFAULT_CAP, *,
                memo: dict[Graph, int] | None = None) -> SubdivisionResult:
    """Total domination multisubdivision number: min of the per-edge values.

    Ties pick the lowest normalized edge; the default cap is backed by the
    msd <= 3 bound for connected graphs, but per-edge values can exceed it.
    memo, if given, maps subdivided graphs to their gamma_t and is read and
    filled by the search.
    """
    return _msd(g, cap, gamma_t_value, solve_gamma_t, memo)


def sd_gamma_t(g: Graph, cap: int | None = None, *,
               memo: dict[Graph, int] | None = None) -> SubdivisionResult:
    """Total domination subdivision number: smallest k such that some k edges,
    each subdivided once simultaneously, increase gamma_t.

    Subsets are tried in lexicographic order, so the witness is the first
    achieving subset.  cap=None searches up to all m edges.  memo is as for
    msd_gamma_t.
    """
    return _sd(g, cap, gamma_t_value, solve_gamma_t, memo)


def msd_gamma(g: Graph, cap: int = MSD_DEFAULT_CAP) -> SubdivisionResult:
    """Domination multisubdivision number."""
    return _msd(g, cap, gamma_value, solve_gamma)


def sd_gamma(g: Graph, cap: int | None = None) -> SubdivisionResult:
    """Domination subdivision number."""
    return _sd(g, cap, gamma_value, solve_gamma)
