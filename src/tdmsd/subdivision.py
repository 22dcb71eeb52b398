"""The four subdivision invariants: per-edge and global multisubdivision
numbers, and subdivision numbers over simultaneous edge subsets.

Searches go strictly by increasing subdivision count / subset size, so the
reported value is the first point at which the recomputed (total) domination
number strictly increases.  The msd search is count-major: every edge at
t = 1, then every edge at t = 2, and so on, so its first hit is the minimum
and no incumbent is kept.

Most subdivided graphs do not raise the number, and a search only needs to
know that they do not.  Each search of a graph g works from a SearchState:
gamma(g) (or gamma_t(g)) and a list of minimum covers of g, seeded by one
exact solve of g.  A subdivided graph H that one of those covers still
covers has a number of at most gamma(g), so it is settled without a solve.
Any other H is solved exactly, from the best known cover repaired for H as
the upper bound, and a minimum cover of H of size gamma(g) that uses no new
vertex is a minimum cover of g, so it joins the list.  Every skip and every
bound rests on a cover checked against H, so the values stay exact.

A state lives for one caller's check of one graph, never globally: keying a
global cache by subdivided graphs would need canonical codes, which cost more
than the solves they save (and are factorial on symmetric graphs).  The sd
and msd searches of g may share one state: subdivide(g, e, 1) and
subdivide_edges(g, (e,)) build the same graph, so their t = 1 / k = 1 rows
are settled once, and each search starts from the covers the other found.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canonical import canonical_code  # noqa: F401  perfbench's traced units wrap this binding
from .domination import _closed_covers, _min_cover, _total_covers
from .domination import gamma_t_value  # noqa: F401  perfbench's traced units wrap this binding
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


class SearchState:
    """What the searches of one graph learn, shared for as long as the caller
    keeps the state.

    base is the graph's (total) domination number and covers a list of its
    minimum (total) dominating sets, as vertex masks; values maps each
    subdivided graph solved so far to its number.  A new state is empty and
    binds to the first graph a search uses it for.
    """

    __slots__ = ("graph", "closed", "base", "covers", "values")

    def __init__(self) -> None:
        self.graph: Graph | None = None
        self.closed = False
        self.base = 0
        self.covers: list[int] = []
        self.values: dict[Graph, int] = {}


def _cover_sets(g: Graph, closed: bool) -> tuple[int, ...]:
    return _closed_covers(g) if closed else _total_covers(g)


def _bind(g: Graph, closed: bool, memo: SearchState | None) -> SearchState:
    state = SearchState() if memo is None else memo
    if state.graph is None:
        # g is connected with n >= 2, so it has no isolated vertex
        state.base, cover = _min_cover(_cover_sets(g, closed), g.full_mask)
        state.graph, state.closed, state.covers = g, closed, [cover]
    elif state.graph != g:
        raise ValueError("a SearchState serves the searches of one graph")
    return state


def _increase(state: SearchState, h: Graph) -> int | None:
    """The number of h, a subdivision of state.graph, if it exceeds the base.

    A known minimum cover of the graph that still covers h shows that h's
    number is at most the base, without a solve.  Otherwise the cover that
    leaves the fewest vertices of h uncovered, repaired with the highest
    candidate of each vertex still uncovered, bounds the exact search.  A
    minimum cover of h of the base size inside the original vertices is a
    minimum cover of the graph too, so it joins the known covers: subdividing
    adds no edge between original vertices, so what covers an original vertex
    in h covers it in the graph.
    """
    value = state.values.get(h)
    if value is None:
        covers = _cover_sets(h, state.closed)
        full = h.full_mask
        upper = 0
        left = full
        for cover in state.covers:
            covered = 0
            rest = cover
            while rest:
                low = rest & -rest
                covered |= covers[low.bit_length() - 1]
                rest ^= low
            missed = full & ~covered
            if not missed:
                return None
            if missed.bit_count() < left.bit_count():
                upper, left = cover, missed
        while left:
            u = covers[(left & -left).bit_length() - 1].bit_length() - 1
            upper |= 1 << u
            left &= ~covers[u]
        value, cover = _min_cover(covers, full, upper)
        if value == state.base and not cover >> state.graph.n:
            state.covers.append(cover)
        state.values[h] = value
    return value if value > state.base else None


def _msd(g: Graph, cap: int, closed: bool, memo: SearchState | None) -> SubdivisionResult:
    _check_connected(g, 2)
    state = _bind(g, closed, memo)
    edges = g.edges()
    # count-major: the first count at which any edge succeeds is the minimum
    # over edges, and the first edge to succeed at it is the lowest such edge
    for t in range(1, cap + 1):
        for e in edges:
            after = _increase(state, subdivide(g, e, t))
            if after is not None:
                return SubdivisionResult(t, (e,), (t,), state.base, after)
    return SubdivisionResult(None, (), (), state.base, None)


def _sd(g: Graph, cap: int | None, closed: bool, memo: SearchState | None) -> SubdivisionResult:
    _check_connected(g, 3)
    state = _bind(g, closed, memo)
    edges = g.edges()
    limit = len(edges) if cap is None else min(cap, len(edges))
    for k in range(1, limit + 1):
        for subset in combinations(edges, k):
            after = _increase(state, subdivide_edges(g, subset))
            if after is not None:
                return SubdivisionResult(k, subset, (1,) * k, state.base, after)
    return SubdivisionResult(None, (), (), state.base, None)


def msd_gamma_t_edge(g: Graph, e: Edge, cap: int = MSD_DEFAULT_CAP) -> SubdivisionResult:
    """Smallest t <= cap with gamma_t(g with e subdivided t times) > gamma_t(g)."""
    _check_connected(g, 2)
    u, v = normalize_edge(*e)
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise EdgeNotPresent(f"edge ({u}, {v}) not in graph")
    state = _bind(g, False, None)
    for t in range(1, cap + 1):
        after = _increase(state, subdivide(g, (u, v), t))
        if after is not None:
            return SubdivisionResult(t, ((u, v),), (t,), state.base, after)
    return SubdivisionResult(None, ((u, v),), (), state.base, None)


def msd_gamma_t(g: Graph, cap: int = MSD_DEFAULT_CAP, *,
                memo: SearchState | None = None) -> SubdivisionResult:
    """Total domination multisubdivision number: min of the per-edge values.

    Ties pick the lowest normalized edge.  The default cap is the paper's
    msd <= 3 bound for connected graphs.  The per-edge values
    (msd_gamma_t_edge) were at most 3 too on every edge of every connected
    graph of order <= 7 and every tree of order <= 12; no edge that needs
    more is known, but none is ruled out.
    memo, if given, is the SearchState of g's gamma_t searches; the search
    reads and extends it.
    """
    return _msd(g, cap, False, memo)


def sd_gamma_t(g: Graph, cap: int | None = None, *,
               memo: SearchState | None = None) -> SubdivisionResult:
    """Total domination subdivision number: smallest k such that some k edges,
    each subdivided once simultaneously, increase gamma_t.

    Subsets are tried in lexicographic order, so the witness is the first
    achieving subset.  cap=None searches up to all m edges.  memo is as for
    msd_gamma_t.
    """
    return _sd(g, cap, False, memo)


def msd_gamma(g: Graph, cap: int = MSD_DEFAULT_CAP) -> SubdivisionResult:
    """Domination multisubdivision number."""
    return _msd(g, cap, True, None)


def sd_gamma(g: Graph, cap: int | None = None) -> SubdivisionResult:
    """Domination subdivision number."""
    return _sd(g, cap, True, None)
