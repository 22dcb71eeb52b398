"""The four subdivision invariants: per-edge and global multisubdivision
numbers, and subdivision numbers over simultaneous edge subsets.

Searches go strictly by increasing subdivision count / subset size, so the
reported value is the first point at which the recomputed (total) domination
number strictly increases.  The msd search is count-major: every edge at
t = 1, then every edge at t = 2, and so on, so its first hit is the minimum
and no incumbent is kept.  Each count or subset size is one row of
subdivided graphs.

Most subdivided graphs do not raise the number, and a search only needs to
know that they do not.  Each search of a graph g works from a SearchState:
gamma(g) (or gamma_t(g)) and a list of minimum covers of g, seeded by one
exact solve of g, or by seeded_state from gamma_t_value(g) and minimum total
dominating sets of g that the caller already has.  A subdivided graph H that
one of those covers still covers has a number of at most gamma(g), so it is
settled without a solve.
Any other H is solved exactly, from the best known cover repaired for H as
the upper bound, and a minimum cover of H of size gamma(g) that uses no new
vertex is a minimum cover of g, so it joins the list.

In the sd search, a cover of H of size gamma(g) that does use a new vertex
is kept in the state under its edge subset: it is lifted to each subset of
the next row that holds one more edge, and tested there after g's covers.
(Lifting the cover of e subdivided t - 1 times to t times, the msd analogue,
never covered the graph it was offered to in any sweep, so msd does not.)
Every skip and every bound rests on a cover checked against H, so the
values stay exact.

A state lives for one caller's check of one graph, never globally: keying a
global cache by subdivided graphs would need canonical codes, which cost more
than the solves they save (and are factorial on symmetric graphs).  The sd
and msd searches of g may share one state: both build their row of single
subdivisions as subdivide_edges(g, (e,)), so the state records how that
common row ended, and the second search builds none of it.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, NamedTuple

from .domination import _closed_covers, _min_cover, _total_covers
from .domination import gamma_t_value  # read here, where perfbench's traced units wrap it
from .errors import Disconnected, EdgeNotPresent, TooSmall
from .graph import Edge, Graph, normalize_edge, subdivide, subdivide_edges

MSD_DEFAULT_CAP = 3

# perfbench's freshness check reads this; there is no on-disk cache
_persistent_gamma_t = None


def __getattr__(name: str):
    # perfbench's traced units wrap subdivision.canonical_code; resolving it
    # on first access keeps canonical out of the modules tdmsd compute loads
    if name == "canonical_code":
        from .canonical import canonical_code

        globals()[name] = canonical_code
        return canonical_code
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SubdivisionResult(NamedTuple):
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


class SearchState:
    """What the searches of one graph learn, shared for as long as the caller
    keeps the state.

    base is the graph's (total) domination number, covers a list of its
    minimum (total) dominating sets as vertex masks, edges its edge list,
    and cover_sets domination's _total_covers or _closed_covers.  row_one
    is how the row of single subdivisions ended: None before any search ran
    it, () if no edge raises the number, else ((e,), value) for the first
    edge that does.  kept maps an edge subset S to a base-size cover of
    subdivide_edges(graph, S) that uses a new vertex, for the next row to
    lift.  A new state is empty and binds to the first graph a search uses
    it for; seeded_state returns one already bound.
    """

    __slots__ = ("graph", "cover_sets", "base", "covers", "edges", "row_one", "kept")

    def __init__(self) -> None:
        self.graph: Graph | None = None
        self.cover_sets = _total_covers
        self.base = 0
        self.covers: list[int] = []
        self.edges: list[Edge] = []
        self.row_one: tuple | None = None
        self.kept: dict[tuple[Edge, ...], int] = {}


def _bind(g: Graph, cover_sets, memo: SearchState | None, min_n: int) -> SearchState:
    if g.n < min_n:
        raise TooSmall(f"need n >= {min_n}, got n={g.n}")
    state = SearchState() if memo is None else memo
    if state.graph is None:
        if not g.is_connected():
            raise Disconnected("subdivision invariants need a connected graph")
        # g is connected with n >= 2, so it has no isolated vertex
        state.base, cover = _min_cover(cover_sets(g), g.full_mask)
        state.graph, state.cover_sets, state.covers = g, cover_sets, [cover]
        state.edges = g.edges()
    elif state.graph != g:
        raise ValueError("a SearchState serves the searches of one graph")
    return state


def seeded_state(g: Graph, covers: Iterable[int]) -> SearchState:
    """A SearchState for the gamma_t searches of g, bound to g without a
    seed solve: its base is gamma_t_value(g), the solve _bind would make,
    and its known covers are the given minimum total dominating sets of g
    (vertex masks), such as _all_min_tds_masks(g).

    A mask that is not a total dominating set of g of the base size is
    dropped, so the values stay exact whatever masks are given.  Like _bind,
    it refuses a graph of one vertex or a disconnected one; the search still
    checks the order it needs.
    """
    if g.n < 2:
        raise TooSmall(f"need n >= 2, got n={g.n}")
    if not g.is_connected():
        raise Disconnected("subdivision invariants need a connected graph")
    state = SearchState()
    state.graph, state.base, state.edges = g, gamma_t_value(g), g.edges()
    # a mask with a bit past g's vertices that passed would totally dominate
    # g with fewer than base of them, so none does
    state.covers = [c for c in covers if c.bit_count() == state.base and all(a & c for a in g.adj)]
    return state


def _increase(state: SearchState, h: Graph, subset: tuple[Edge, ...] = ()) -> int | None:
    """The number of h if it exceeds the base, else None.

    h is a subdivision of state.graph, and subdivide_edges(state.graph,
    subset) if subset is non-empty.  A known minimum cover of the graph, or
    else a cover kept for subset less one edge and relabelled for h, that
    still covers h shows that h's number is at most the base, without a
    solve.  Otherwise the cover that leaves the fewest vertices of h
    uncovered, repaired with the highest candidate of each vertex still
    uncovered, bounds the exact search.  A minimum cover of h of the base
    size inside the original vertices is a minimum cover of the graph too,
    so it joins the known covers: subdividing adds no edge between original
    vertices, so what covers an original vertex in h covers it in the
    graph.  A cover of h of the base size that uses a new vertex, lifted or
    solved, is kept under a non-empty subset in state.kept.
    """
    covers = state.cover_sets(h)
    full = h.full_mask
    n = state.graph.n
    upper = 0
    left = full
    for cover in chain(state.covers, _lift_subsets(state.kept, subset, n)):
        covered = 0
        rest = cover
        while rest:
            low = rest & -rest
            covered |= covers[low.bit_length() - 1]
            rest ^= low
        missed = full & ~covered
        if not missed:
            if cover >> n:
                state.kept[subset] = cover
            return None
        if missed.bit_count() < left.bit_count():
            upper, left = cover, missed
    while left:
        u = covers[(left & -left).bit_length() - 1].bit_length() - 1
        upper |= 1 << u
        left &= ~covers[u]
    value, cover = _min_cover(covers, full, upper)
    if value > state.base:
        return value
    if not cover >> n:
        state.covers.append(cover)
    elif subset:
        state.kept[subset] = cover
    return None


def _row(state: SearchState, subsets, t: int) -> tuple:
    """(subset, number) for the first subset whose graph raises the number,
    or () if none does.  At t = 1 that graph is subdivide_edges(graph,
    subset), which keeps covers; else subset's one edge subdivided t times.
    """
    g = state.graph
    # both builders are read from this module, where tracing and tests wrap them
    for subset in subsets:
        if t == 1:
            after = _increase(state, subdivide_edges(g, subset), subset)
        else:
            after = _increase(state, subdivide(g, subset[0], t))
        if after is not None:
            return subset, after
    return ()


def _row_one(state: SearchState) -> tuple:
    """state.row_one, running the row if no search has yet."""
    if state.row_one is None:
        state.row_one = _row(state, [(e,) for e in state.edges], 1)
    return state.row_one


def _lift_subsets(kept: dict, subset: tuple[Edge, ...], n: int):
    # the graph of subset less its i-th edge numbers the new vertices after
    # position i one lower, so its bits from n + i up move up by one
    for i in range(len(subset)):
        cover = kept.get(subset[:i] + subset[i + 1:])
        if cover:
            low = cover & ((1 << (n + i)) - 1)
            yield low | (cover ^ low) << 1


def _msd(g: Graph, cap: int, cover_sets, memo: SearchState | None) -> SubdivisionResult:
    state = _bind(g, cover_sets, memo, 2)
    singles = [(e,) for e in state.edges]
    # count-major: the first count at which any edge succeeds is the minimum
    # over edges, and the first edge to succeed at it is the lowest such edge
    for t in range(1, cap + 1):
        hit = _row_one(state) if t == 1 else _row(state, singles, t)
        if hit:
            subset, after = hit
            return SubdivisionResult(t, subset, (t,), state.base, after)
    return SubdivisionResult(None, (), (), state.base, None)


def _sd(g: Graph, cap: int | None, cover_sets, memo: SearchState | None) -> SubdivisionResult:
    state = _bind(g, cover_sets, memo, 3)
    edges = state.edges
    limit = len(edges) if cap is None else min(cap, len(edges))
    for k in range(1, limit + 1):
        hit = _row_one(state) if k == 1 else _row(state, combinations(edges, k), 1)
        if hit:
            subset, after = hit
            return SubdivisionResult(k, subset, (1,) * k, state.base, after)
    return SubdivisionResult(None, (), (), state.base, None)


def msd_gamma_t_edge(g: Graph, e: Edge, cap: int = MSD_DEFAULT_CAP) -> SubdivisionResult:
    """Smallest t <= cap with gamma_t(g with e subdivided t times) > gamma_t(g)."""
    state = _bind(g, _total_covers, None, 2)
    u, v = normalize_edge(*e)
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise EdgeNotPresent(f"edge ({u}, {v}) not in graph")
    for t in range(1, cap + 1):
        hit = _row(state, [((u, v),)], t)
        if hit:
            return SubdivisionResult(t, ((u, v),), (t,), state.base, hit[1])
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
    return _msd(g, cap, _total_covers, memo)


def sd_gamma_t(g: Graph, cap: int | None = None, *,
               memo: SearchState | None = None) -> SubdivisionResult:
    """Total domination subdivision number: smallest k such that some k edges,
    each subdivided once simultaneously, increase gamma_t.

    Subsets are tried in lexicographic order, so the witness is the first
    achieving subset.  cap=None searches up to all m edges.  memo is as for
    msd_gamma_t.
    """
    return _sd(g, cap, _total_covers, memo)


def msd_gamma(g: Graph, cap: int = MSD_DEFAULT_CAP) -> SubdivisionResult:
    """Domination multisubdivision number."""
    return _msd(g, cap, _closed_covers, None)


def sd_gamma(g: Graph, cap: int | None = None) -> SubdivisionResult:
    """Domination subdivision number."""
    return _sd(g, cap, _closed_covers, None)
