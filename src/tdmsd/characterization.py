"""Structural predicates deciding, from minimum total dominating sets alone,
whether subdividing a single edge of a tree raises the total domination
number.

Every universally or existentially quantified condition is evaluated over
the complete enumeration of minimum total dominating sets; sampling would
be unsound given the quantifier structure.  Each predicate reads that
enumeration once.

For an edge uv and a minimum set D, ``_branches`` gives one verdict per
branch of the sd = 1 edge condition; each verdict is the negation of one
clause of Lemma 14:

  endpoints in D   verdicts                                  negates
  one, say u       v in PN[u, D]                             a
  neither          True                                      (no clause)
  both             _both_branch_ok(a, b) for each endpoint   b2/b3 for a
                   a with N(a) & D == {b}
                   (False,) if neither endpoint has that     b1

The sd = 1 condition holds on D iff any verdict holds, and Lemma 14's
clause holds on D iff some verdict fails.
"""

from __future__ import annotations

from typing import NamedTuple

from .domination import _all_min_tds_masks
from .errors import Disconnected, NotATree, NotInnerEdge, TooSmall
from .graph import (
    Edge,
    Graph,
    inner_edges,
    iter_bits,
    leaves_mask,
    normalize_edge,
    private_neighborhood_mask,
)


class EdgeConditionReport(NamedTuple):
    edge: Edge
    holds: bool
    failing_set: frozenset[int] | None


def _require_tree(t: Graph) -> None:
    if not t.is_tree():
        raise NotATree("predicate defined for trees")
    if t.n < 3:
        raise TooSmall("predicate needs n >= 3")


def _in_no_min_set(g: Graph, masks: tuple[int, ...]) -> int:
    union = 0
    for m in masks:
        union |= m
    return g.full_mask & ~union


def _first_leaf(t: Graph, masks: tuple[int, ...]) -> int | None:
    hits = leaves_mask(t) & _in_no_min_set(t, masks)
    return (hits & -hits).bit_length() - 1 if hits else None


def leaf_condition(t: Graph) -> int | None:
    """A leaf lying in no minimum total dominating set, if one exists."""
    _require_tree(t)
    return _first_leaf(t, _all_min_tds_masks(t))


def _both_branch_ok(g: Graph, a: int, b: int, d_mask: int) -> bool:
    # stated for N(a) & D == {b}: PN[a,D] nonempty, and PN[b,D] nonempty or
    # some x in (N(b) & D) - {a} has N(x) & D == {b}
    if not private_neighborhood_mask(g, a, d_mask):
        return False
    if private_neighborhood_mask(g, b, d_mask):
        return True
    for x in iter_bits(g.adj[b] & d_mask & ~(1 << a)):
        if g.adj[x] & d_mask == 1 << b:
            return True
    return False


def _branches(g: Graph, u: int, v: int, d_mask: int) -> tuple[bool, ...]:
    u_in = d_mask >> u & 1
    v_in = d_mask >> v & 1
    if u_in != v_in:
        inside, outside = (u, v) if u_in else (v, u)
        return (bool(private_neighborhood_mask(g, inside, d_mask) >> outside & 1),)
    if not u_in:
        return (True,)
    verdicts = tuple(
        _both_branch_ok(g, a, b, d_mask)
        for a, b in ((u, v), (v, u))
        if g.adj[a] & d_mask == 1 << b
    )
    return verdicts or (False,)


def _failing_set(t: Graph, u: int, v: int, masks: tuple[int, ...]) -> int | None:
    # the first minimum set on which the sd = 1 condition fails at uv
    return next((m for m in masks if not any(_branches(t, u, v, m))), None)


def inner_edge_condition(t: Graph, e: Edge) -> EdgeConditionReport:
    """Check the every-minimum-set condition on an inner edge of a tree."""
    _require_tree(t)
    u, v = normalize_edge(*e)
    if not t.has_edge(u, v):
        raise NotInnerEdge(f"({u}, {v}) is not an edge")
    if (u, v) not in inner_edges(t):
        raise NotInnerEdge(f"({u}, {v}) is a pendant edge")
    failing = _failing_set(t, u, v, _all_min_tds_masks(t))
    if failing is None:
        return EdgeConditionReport((u, v), True, None)
    return EdgeConditionReport((u, v), False, frozenset(iter_bits(failing)))


def predicts_sd_one(t: Graph) -> bool:
    """Single-subdivision prediction: leaf branch or some inner edge holds."""
    _require_tree(t)
    masks = _all_min_tds_masks(t)
    if _first_leaf(t, masks) is not None:
        return True
    return any(_failing_set(t, u, v, masks) is None for u, v in inner_edges(t))


def lemma2_sufficient(g: Graph) -> bool:
    """A leaf in no minimum set, or an inner edge with both ends in no minimum set.

    Stated for connected graphs, not just trees; a sufficient condition for
    the subdivision number to be 1.
    """
    if g.n < 3:
        raise TooSmall("need n >= 3")
    if not g.is_connected():
        raise Disconnected("need a connected graph")
    none = _in_no_min_set(g, _all_min_tds_masks(g))
    if leaves_mask(g) & none:
        return True
    return any(none >> u & 1 and none >> v & 1 for u, v in inner_edges(g))


def lemma14_sufficient_sd_gt_one(t: Graph) -> bool:
    """Sufficient condition for the subdivision number to exceed 1.

    Requires every leaf to lie in some minimum total dominating set, and every
    inner edge to admit some minimum set satisfying clause a or clause b.
    """
    _require_tree(t)
    masks = _all_min_tds_masks(t)
    if _first_leaf(t, masks) is not None:
        return False
    return all(
        any(not all(_branches(t, u, v, m)) for m in masks)
        for u, v in inner_edges(t)
    )


# -- longest paths -----------------------------------------------------------

def _tree_path(t: Graph, a: int, to_b: list[int]) -> tuple[int, ...]:
    # the unique path from a to b in a tree, each step to the neighbour one
    # closer to b, given every vertex's distance to b
    path = [a]
    for d in range(to_b[a] - 1, -1, -1):
        path.append(next(w for w in iter_bits(t.adj[path[-1]]) if to_b[w] == d))
    return tuple(path)


def longest_paths(t: Graph) -> tuple[tuple[int, ...], ...]:
    """Every diametral path of a tree, from a to b for each pair of ends
    a <= b, in order of (a, b); K1's one path is (0,)."""
    if not t.is_tree():
        raise NotATree("longest paths computed on trees")
    dists = [t.bfs_distances(v) for v in range(t.n)]
    diam = max(max(row) for row in dists)
    out = []
    for a in range(t.n):
        for b in range(a, t.n):
            if dists[a][b] == diam:
                out.append(_tree_path(t, a, dists[b]))
    return tuple(out)


def longest_path(t: Graph) -> tuple[int, ...]:
    """The first of longest_paths: ties go to the smallest endpoints."""
    return longest_paths(t)[0]
