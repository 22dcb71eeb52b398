"""Exact domination and total domination: values, certificates, enumeration.

One branch-and-bound set-cover search serves every answer.  It shrinks its
bound for the values, collects every cover below the minimum plus one for
the complete list of minimum sets, and fixes a witness vertex by vertex in
index order, so reported witnesses are the lexicographically smallest
minimum sets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import Disconnected, IsolatedVertex, IsStar, NotFound, TooLarge, TooSmall
from .graph import Graph, closed_neighborhood_mask, iter_bits, leaves_mask, mask_of, structure_profile

ENUMERATION_CAP = 20


class DominationCertificate(NamedTuple):
    value: int
    witness: frozenset[int]
    kind: str  # "domination" | "total_domination"


class MembershipProfile(NamedTuple):
    """Which vertices appear in some / every / no minimum total dominating set."""

    in_some: frozenset[int]
    in_all: frozenset[int]
    in_none: frozenset[int]


def is_dominating(g: Graph, s) -> bool:
    return closed_neighborhood_mask(g, mask_of(s)) == g.full_mask


def is_total_dominating(g: Graph, s) -> bool:
    """True iff every vertex of g, including members of s, has a neighbor in s."""
    s_mask = mask_of(s)
    return all(g.adj[v] & s_mask for v in range(g.n))


def _greedy_cover(covers: tuple[int, ...], full: int, chosen: int) -> int | None:
    """chosen and the vertices whose cover sets, picked greedily by gain,
    union with chosen's to full; None if none do."""
    covered = 0
    for u in iter_bits(chosen):
        covered |= covers[u]
    while covered != full:
        best_gain = 0
        best_u = -1
        for u in range(len(covers)):
            gain = (covers[u] & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_u = u
        if best_gain == 0:
            return None
        covered |= covers[best_u]
        chosen |= 1 << best_u
    return chosen


def _min_cover(covers: tuple[int, ...], full: int, upper: int | None = None,
               chosen: int = 0) -> tuple[int, int] | None:
    """A minimum set of vertices whose cover sets union to ``full``, as
    (size, vertex mask); None if no set covers ``full``.

    Every cover tried contains chosen, a vertex mask that some minimum
    cover contains, such as _forced(g).  upper, if given, is a vertex mask
    known to cover ``full``: the search starts from it in place of the
    greedy bound, and returns it when nothing smaller covers.
    """
    if upper is None:
        upper = _greedy_cover(covers, full, chosen)
        if upper is None:
            return None
    best = _search(covers, full, upper.bit_count(), chosen)
    best = upper if best is None else best
    return best.bit_count(), best


def _search(covers: tuple[int, ...], full: int, bound: int, chosen: int = 0,
            banned: int = 0, stop: int = 0, found: list[int] | None = None) -> int | None:
    """The branch-and-bound over vertex sets that cover ``full``, contain
    ``chosen``, avoid ``banned`` and have fewer than ``bound`` vertices.

    covers[u] is the element mask vertex u covers; the relation is symmetric
    (u covers v iff v covers u), so candidate covers of element v are the
    set bits of covers[v].  Without ``found``, each cover found lowers the
    bound to its size, and the search returns the last one (None if none
    beats ``bound``); it stops at the first one of size ``stop`` or less.
    With a list ``found`` the bound stays, and every cover met is appended.
    Under a bound one above the minimum those are the minimum covers, each
    once, because a branch bans its candidate once it is done.
    """
    n = len(covers)
    best = bound
    best_mask = None

    def dfs(count: int, covered: int, banned: int, chosen: int) -> None:
        nonlocal best, best_mask
        # unit propagation: elements with a single remaining candidate
        while True:
            if covered == full:
                if count < best:
                    if found is not None:
                        found.append(chosen)
                    else:
                        # a bound of 0 prunes every open branch
                        best = count if count > stop else 0
                        best_mask = chosen
                return
            if count + 1 >= best:
                return
            branch_cands = 0
            branch_width = n + 1
            forced = 0
            # every vertex that covers an uncovered element, banned ones aside
            useful = 0
            rest = full & ~covered
            while rest:
                low = rest & -rest
                cands = covers[low.bit_length() - 1] & ~banned
                if cands == 0:
                    return
                useful |= cands
                w = cands.bit_count()
                if w == 1:
                    forced = cands
                    break
                if w < branch_width:
                    branch_width = w
                    branch_cands = cands
                rest ^= low
            if forced:
                count += 1
                covered |= covers[forced.bit_length() - 1]
                chosen |= forced
                continue
            break
        uncovered = full & ~covered
        # covers are symmetric, so no vertex outside useful gains anything
        max_gain = 0
        while useful:
            low = useful & -useful
            gain = (covers[low.bit_length() - 1] & uncovered).bit_count()
            if gain > max_gain:
                max_gain = gain
            useful ^= low
        lower = -(-uncovered.bit_count() // max_gain)
        if count + lower >= best:
            return
        block = banned
        rest = branch_cands
        while rest:
            low = rest & -rest
            dfs(count + 1, covered | covers[low.bit_length() - 1], block, chosen | low)
            block |= low
            if count + 1 >= best:
                break
            rest ^= low

    covered = 0
    for u in iter_bits(chosen):
        covered |= covers[u]
    dfs(chosen.bit_count(), covered, banned, chosen)
    return best_mask


def _first_cover(covers: tuple[int, ...], full: int, k: int, allowed: int) -> int | None:
    """The first cover of ``full`` by k allowed vertices, ordered by sorted
    vertex indices; None if there is none.  k must be the minimum size.

    The vertices are fixed in index order: one joins if some cover of size
    k holds it and the vertices fixed so far, and is banned otherwise.
    """
    banned = full & ~allowed
    witness = 0
    for v in range(len(covers)):
        bit = 1 << v
        # a vertex of the current witness joins without a search
        if (banned | witness) & bit:
            continue
        cover = _search(covers, full, k + 1, (witness & (bit - 1)) | bit, banned, k)
        if cover is None:
            banned |= bit
        else:
            witness = cover
    return witness if witness.bit_count() == k else None


def _total_covers(g: Graph) -> tuple[int, ...]:
    return g.adj


def _closed_covers(g: Graph) -> tuple[int, ...]:
    return tuple(g.adj[v] | (1 << v) for v in range(g.n))


def _forced(g: Graph) -> int:
    """The supports of the leaves, less any leaf (K2 forces nothing): each
    is in every total dominating set, and some minimum dominating set holds
    them all, since a leaf's closed neighbourhood lies in its support's."""
    leaves = leaves_mask(g)
    return closed_neighborhood_mask(g, leaves) & ~leaves


def _require_no_isolated(g: Graph) -> None:
    for v in range(g.n):
        if g.adj[v] == 0:
            raise IsolatedVertex(f"vertex {v} has degree 0")


def solve_gamma_t(g: Graph) -> int:
    """Total domination number, value only, solved afresh on every call."""
    _require_no_isolated(g)
    found = _min_cover(_total_covers(g), g.full_mask, chosen=_forced(g))
    if found is None:
        raise NotFound("total domination infeasible on an isolate-free graph")
    return found[0]


# perfbench calls cache_info() on this, so it stays an lru_cache object
@lru_cache(maxsize=200_000)
def gamma_t_value(g: Graph) -> int:
    """Total domination number, value only (cached)."""
    return solve_gamma_t(g)


def gamma_value(g: Graph) -> int:
    """Domination number, value only, solved afresh on every call."""
    return _min_cover(_closed_covers(g), g.full_mask, chosen=_forced(g))[0]


def _certificate(g: Graph, covers: tuple[int, ...], value: int, kind: str) -> DominationCertificate:
    witness = _first_cover(covers, g.full_mask, value, g.full_mask)
    return DominationCertificate(value, frozenset(iter_bits(witness)), kind)


def gamma_t(g: Graph) -> DominationCertificate:
    return _certificate(g, _total_covers(g), gamma_t_value(g), "total_domination")


def gamma(g: Graph) -> DominationCertificate:
    return _certificate(g, _closed_covers(g), gamma_value(g), "domination")


@lru_cache(maxsize=50_000)
def _all_min_tds_masks(g: Graph) -> tuple[int, ...]:
    # every min-set enumeration comes through here, so the cap holds for all
    if g.n > ENUMERATION_CAP:
        raise TooLarge(f"n={g.n} above the enumeration cap {ENUMERATION_CAP}")
    found: list[int] = []
    _search(_total_covers(g), g.full_mask, gamma_t_value(g) + 1, found=found)
    return tuple(sorted(found, key=lambda m: list(iter_bits(m))))


def all_min_total_dominating_sets(g: Graph) -> list[frozenset[int]]:
    """The complete, duplicate-free list of minimum total dominating sets."""
    return [frozenset(iter_bits(m)) for m in _all_min_tds_masks(g)]


def gamma_t_membership_profile(g: Graph) -> MembershipProfile:
    masks = _all_min_tds_masks(g)
    union = 0
    inter = g.full_mask
    for m in masks:
        union |= m
        inter &= m
    return MembershipProfile(
        in_some=frozenset(iter_bits(union)),
        in_all=frozenset(iter_bits(inter)),
        in_none=frozenset(iter_bits(g.full_mask & ~union)),
    )


def gamma_t_set_avoiding_leaves(g: Graph) -> frozenset[int]:
    """A minimum total dominating set disjoint from the leaves.

    Guaranteed to exist for connected non-stars; NotFound here means a bug.
    """
    if g.n < 2:
        raise TooSmall("need n >= 2")
    if not g.is_connected():
        raise Disconnected("graph must be connected")
    if structure_profile(g).is_star:
        raise IsStar("stars have no leaf-avoiding total dominating set")
    allowed = g.full_mask & ~leaves_mask(g)
    witness = _first_cover(_total_covers(g), g.full_mask, gamma_t_value(g), allowed)
    if witness is None:
        raise NotFound("no leaf-avoiding minimum total dominating set: bug")
    return frozenset(iter_bits(witness))
