"""Structural predicates deciding, from minimum total dominating sets alone,
whether subdividing a single edge of a tree raises the total domination
number.

Every universally or existentially quantified condition is evaluated over
the complete enumeration of minimum total dominating sets; sampling would
be unsound given the quantifier structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import _all_min_tds_masks, gamma_t_membership_profile
from .errors import Disconnected, NotATree, NotInnerEdge, TooSmall
from .graph import (
    Edge,
    Graph,
    iter_bits,
    leaves_mask,
    normalize_edge,
    private_neighborhood_mask,
    structure_profile,
)


@dataclass(frozen=True)
class EdgeConditionReport:
    edge: Edge
    holds: bool
    failing_set: frozenset[int] | None


def _require_tree(t: Graph) -> None:
    if not t.is_tree():
        raise NotATree("predicate defined for trees")
    if t.n < 3:
        raise TooSmall("predicate needs n >= 3")


def leaf_condition(t: Graph) -> int | None:
    """A leaf lying in no minimum total dominating set, if one exists."""
    _require_tree(t)
    profile = gamma_t_membership_profile(t)
    candidates = profile.in_none & frozenset(iter_bits(leaves_mask(t)))
    return min(candidates) if candidates else None


def _one_endpoint_ok(g: Graph, inside: int, outside: int, d_mask: int) -> bool:
    # with exactly one endpoint in D, the outside one must be a private
    # neighbour of the inside one
    return bool(private_neighborhood_mask(g, inside, d_mask) >> outside & 1)


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


def _edge_condition_on_set(g: Graph, u: int, v: int, d_mask: int) -> bool:
    u_in = bool(d_mask >> u & 1)
    v_in = bool(d_mask >> v & 1)
    if u_in != v_in:
        inside, outside = (u, v) if u_in else (v, u)
        return _one_endpoint_ok(g, inside, outside, d_mask)
    if u_in and v_in:
        sel_u = g.adj[u] & d_mask == 1 << v
        sel_v = g.adj[v] & d_mask == 1 << u
        if not (sel_u or sel_v):
            return False
        if sel_u and _both_branch_ok(g, u, v, d_mask):
            return True
        if sel_v and _both_branch_ok(g, v, u, d_mask):
            return True
        return False
    return True  # neither endpoint in D: vacuous


def inner_edge_condition(t: Graph, e: Edge) -> EdgeConditionReport:
    """Check the every-minimum-set condition on an inner edge of a tree."""
    _require_tree(t)
    u, v = normalize_edge(*e)
    if not (0 <= u < t.n and 0 <= v < t.n) or not t.has_edge(u, v):
        raise NotInnerEdge(f"({u}, {v}) is not an edge")
    lv = leaves_mask(t)
    if (lv >> u & 1) or (lv >> v & 1):
        raise NotInnerEdge(f"({u}, {v}) is a pendant edge")
    for d_mask in _all_min_tds_masks(t):
        if not _edge_condition_on_set(t, u, v, d_mask):
            return EdgeConditionReport((u, v), False, frozenset(iter_bits(d_mask)))
    return EdgeConditionReport((u, v), True, None)


def predicts_sd_one(t: Graph) -> bool:
    """Single-subdivision prediction: leaf branch or some inner edge holds."""
    _require_tree(t)
    if leaf_condition(t) is not None:
        return True
    return any(
        inner_edge_condition(t, e).holds
        for e in structure_profile(t).inner_edges
    )


def lemma2_sufficient(g: Graph) -> bool:
    """A leaf in no minimum set, or an inner edge with both ends in no minimum set.

    Stated for connected graphs, not just trees; a sufficient condition for
    the subdivision number to be 1.
    """
    if g.n < 3:
        raise TooSmall("need n >= 3")
    if not g.is_connected():
        raise Disconnected("need a connected graph")
    profile = gamma_t_membership_profile(g)
    lv = frozenset(iter_bits(leaves_mask(g)))
    if profile.in_none & lv:
        return True
    return any(
        u in profile.in_none and v in profile.in_none
        for u, v in structure_profile(g).inner_edges
    )


def _lemma14_edge_ok(g: Graph, u: int, v: int, d_mask: int) -> bool:
    u_in = bool(d_mask >> u & 1)
    v_in = bool(d_mask >> v & 1)
    if u_in != v_in:
        inside, outside = (u, v) if u_in else (v, u)
        # clause a: the outside endpoint is not a private neighbour
        return not private_neighborhood_mask(g, inside, d_mask) >> outside & 1
    if not (u_in and v_in):
        return False
    nu = g.adj[u] & d_mask
    nv = g.adj[v] & d_mask
    if nu.bit_count() >= 2 and nv.bit_count() >= 2:  # b1
        return True

    def sub(a: int, b: int, na: int, nb: int) -> bool:
        # b2/b3 with N(a) & D == {b}
        if na != 1 << b:
            return False
        if not private_neighborhood_mask(g, a, d_mask):
            return True
        if private_neighborhood_mask(g, b, d_mask):
            return False
        return all(
            (g.adj[x] & d_mask).bit_count() >= 2
            for x in iter_bits(nb & ~(1 << a))
        )

    return sub(u, v, nu, nv) or sub(v, u, nv, nu)


def lemma14_sufficient_sd_gt_one(t: Graph) -> bool:
    """Sufficient condition for the subdivision number to exceed 1.

    Requires every leaf to lie in some minimum total dominating set, and every
    inner edge to admit some minimum set satisfying clause a or clause b.
    """
    _require_tree(t)
    masks = _all_min_tds_masks(t)
    lv = leaves_mask(t)
    for leaf in iter_bits(lv):
        if not any(m >> leaf & 1 for m in masks):
            return False
    for u, v in structure_profile(t).inner_edges:
        if not any(_lemma14_edge_ok(t, u, v, m) for m in masks):
            return False
    return True


# -- longest paths -----------------------------------------------------------

def _tree_path(t: Graph, a: int, to_b: list[int]) -> tuple[int, ...]:
    # the unique path from a to b in a tree, each step to the neighbour one
    # closer to b, given every vertex's distance to b
    path = [a]
    for d in range(to_b[a] - 1, -1, -1):
        path.append(next(w for w in iter_bits(t.adj[path[-1]]) if to_b[w] == d))
    return tuple(path)


def longest_paths(t: Graph) -> tuple[tuple[int, ...], ...]:
    """Every diametral path of a tree, one per ordered-by-endpoints pair."""
    if not t.is_tree():
        raise NotATree("longest paths computed on trees")
    dists = [t.bfs_distances(v) for v in range(t.n)]
    diam = max(max(row) for row in dists)
    out = []
    for a in range(t.n):
        for b in range(a + 1, t.n):
            if dists[a][b] == diam:
                out.append(_tree_path(t, a, dists[b]))
    return tuple(out)


def longest_path(t: Graph) -> tuple[int, ...]:
    """One deterministic longest path: double BFS, ties to smallest endpoints."""
    if not t.is_tree():
        raise NotATree("longest paths computed on trees")
    if t.n == 1:
        return (0,)
    d0 = t.bfs_distances(0)
    ecc0 = max(d0)
    a = min(v for v in range(t.n) if d0[v] == ecc0)
    da = t.bfs_distances(a)
    ecc = max(da)
    b = min(v for v in range(t.n) if da[v] == ecc)
    # the path from the smaller endpoint to the larger
    path = _tree_path(t, b, da)
    return path if b < a else path[::-1]
