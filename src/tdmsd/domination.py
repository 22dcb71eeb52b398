"""Exact domination and total domination: values, certificates, enumeration.

Every value comes from one solve, _min_cover.  It first walks the graph
once from the leaves up (_walk), for a cover and a packing; when their
sizes meet, as they do on every tree, the cover is minimum and no search
runs.  It walks the order its caller hands it, as subdivision hands it a
tree's order or one with new paths spliced in, and otherwise the graph's
own (_leaf_order, one BFS); only the minimum-set enumeration walks too, for
its first bound.  One branch-and-bound set-cover search serves every other
answer.  It shrinks its bound for the values, collects the smallest covers
it meets for the complete list of minimum sets, and fixes a witness vertex
by vertex in index order, so reported witnesses are the lexicographically
smallest minimum sets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import Disconnected, IsolatedVertex, IsStar, NotFound, TooLarge, TooSmall
from .graph import Graph, closed_neighborhood_mask, iter_bits, leaves_mask, structure_profile, vertex_mask

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
    return closed_neighborhood_mask(g, vertex_mask(g, s)) == g.full_mask


def is_total_dominating(g: Graph, s) -> bool:
    """True iff every vertex of g, including members of s, has a neighbor in s."""
    s_mask = vertex_mask(g, s)
    return all(g.adj[v] & s_mask for v in range(g.n))


def _greedy_cover(covers: tuple[int, ...], chosen: int) -> int | None:
    """chosen and the vertices whose cover sets, picked greedily by gain,
    union with chosen's to every element; None if none do."""
    full = (1 << len(covers)) - 1
    covered = 0
    for u in iter_bits(chosen):
        covered |= covers[u]
    while covered != full:
        best_gain = 0
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


def _leaf_order(covers: tuple[int, ...]) -> list[tuple[int, int]]:
    """The leaf-up walk's order of the elements, as (element, mask of the
    BFS layer above it) pairs: a BFS forest, each tree rooted at its lowest
    element, deepest layer first and each layer ascending, each root with
    mask 0.
    """
    order = []
    seen = 0
    everything = (1 << len(covers)) - 1
    while seen != everything:
        above = 0
        layer = (seen + 1) & ~seen
        while layer:
            seen |= layer
            below = 0
            # high to low, so the reversed list runs each layer ascending
            rest = layer
            while rest:
                v = rest.bit_length() - 1
                order.append((v, above))
                below |= covers[v]
                rest ^= 1 << v
            above, layer = layer, below & ~seen
    order.reverse()
    return order


def _walk(covers: tuple[int, ...], order) -> tuple[int, int] | None:
    """A cover of every element and a packing, as vertex masks, from one
    walk of the elements in ``order``, pairs as _leaf_order gives them;
    None if some element has no candidate.

    An element nothing chosen covers yet gets its parent chosen (its highest
    candidate in its mask above), a root its highest candidate.  An element
    is packed when its cover set misses those of every element packed so
    far; each packed element needs a cover vertex of its own, so every cover
    has at least that many vertices.  Whatever the order, the cover covers
    and the packing packs.  On a forest, with total or closed cover sets,
    the cover is minimum and the packing as large in any order that puts
    each vertex after its children, its mask above holding its parent
    (Rall, Discuss. Math. Graph Theory 25, 2005; Meir and Moon, Pacific J.
    Math. 61, 1975).
    """
    chosen = packing = packed = covered = 0
    for v, above in order:
        bit = 1 << v
        cands = covers[v]
        if not covered & bit:
            if not cands:
                return None
            # the parent, or a root's highest candidate
            u = (cands & above or cands).bit_length() - 1
            chosen |= 1 << u
            covered |= covers[u]
        if not cands & packed:
            packing |= bit
            packed |= cands
    return chosen, packing


def _min_cover(covers: tuple[int, ...], stop: int = 0, order=None) -> tuple[int, int, int] | None:
    """A minimum set of vertices whose cover sets union to every element, as
    (size, vertex mask, packing mask); None if no set covers them all.  With
    ``stop``, any such set of at most ``stop`` vertices, if the minimum is
    that small.  The leaf-up walk takes ``order``, pairs as _leaf_order
    gives them, if given, and covers' own _leaf_order otherwise.

    Each vertex of the leaf-up walk's packing needs a cover vertex of its
    own, so a cover no larger than the packing is minimum.  The leaf-up
    cover settles most problems without a search: it is returned when it
    has at most ``stop`` vertices or as many as the packing.  Otherwise the
    branch-and-bound starts from the smaller of it and the greedy cover, and
    stops at the first cover no larger than ``stop`` or the packing.  The
    walk's packing comes back either way; it has the cover's size exactly
    when it proves that cover minimum.

    A leaf is an element with one candidate besides itself, its support.
    Every support that is not a leaf (K2 forces nothing) is in every total
    cover, and some minimum closed cover holds them all, since a leaf's
    closed neighbourhood lies in its support's; so every cover the search
    tries holds them, and they are found only when it runs.
    """
    found = _walk(covers, _leaf_order(covers) if order is None else order)
    if found is None:
        return None
    cover, packing = found
    size = cover.bit_count()
    floor = max(stop, packing.bit_count())
    if size <= floor:
        return size, cover, packing
    leaves = chosen = 0
    for v, cands in enumerate(covers):
        support = cands & ~(1 << v)
        if support.bit_count() == 1:
            leaves |= 1 << v
            chosen |= support
    chosen &= ~leaves
    greedy = _greedy_cover(covers, chosen)
    if greedy.bit_count() < size:
        cover, size = greedy, greedy.bit_count()
    if size > floor:
        best = _search(covers, size, chosen, stop=floor)
        if best is not None:
            cover, size = best, best.bit_count()
    return size, cover, packing


def _search(covers: tuple[int, ...], bound: int, chosen: int = 0, banned: int = 0,
            stop: int = 0, found: list[int] | None = None) -> int | None:
    """The branch-and-bound over vertex sets that cover every element,
    contain ``chosen``, avoid ``banned`` and have fewer than ``bound``
    vertices.

    covers[u] is the element mask vertex u covers; the relation is symmetric
    (u covers v iff v covers u), so candidate covers of element v are the
    set bits of covers[v].  Without ``found``, each cover found lowers the
    bound to its size, and the search returns the last one (None if none
    beats ``bound``); it stops at the first one of size ``stop`` or less.
    With a list ``found``, every cover met is appended, and one smaller
    than those listed first empties the list and lowers the bound to one
    above its size.  Under any bound above the minimum the list ends as the
    minimum covers, each once: no bound falls to the minimum, so no
    minimum cover is pruned, and a branch bans its candidate once it is
    done.
    """
    n = len(covers)
    full = (1 << n) - 1
    best = bound
    best_mask = None

    def dfs(count: int, covered: int, banned: int, chosen: int) -> None:
        nonlocal best, best_mask
        # unit propagation: elements with a single remaining candidate
        while True:
            if covered == full:
                if count < best:
                    if found is not None:
                        if count + 1 < best:
                            found.clear()
                            best = count + 1
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


def _first_cover(covers: tuple[int, ...], k: int, banned: int) -> int | None:
    """The first cover of every element by k vertices outside ``banned``,
    ordered by sorted vertex indices; None if there is none.  k must be the
    minimum size.

    The vertices are fixed in index order: one joins if some cover of size
    k holds it and the vertices fixed so far, and is banned otherwise.
    """
    witness = 0
    for v in range(len(covers)):
        bit = 1 << v
        # a vertex of the current witness joins without a search
        if (banned | witness) & bit:
            continue
        cover = _search(covers, k + 1, (witness & (bit - 1)) | bit, banned, k)
        if cover is None:
            banned |= bit
        else:
            witness = cover
    return witness if witness.bit_count() == k else None


def _total_covers(g: Graph) -> tuple[int, ...]:
    return g.adj


def _closed_covers(g: Graph) -> tuple[int, ...]:
    return tuple(g.adj[v] | (1 << v) for v in range(g.n))


def _isolate_free_covers(g: Graph) -> tuple[int, ...]:
    """g's total cover sets; IsolatedVertex if a vertex has none."""
    for v in range(g.n):
        if g.adj[v] == 0:
            raise IsolatedVertex(f"vertex {v} has degree 0")
    return _total_covers(g)


def solve_gamma_t(g: Graph) -> int:
    """Total domination number, value only, solved afresh on every call."""
    found = _min_cover(_isolate_free_covers(g))
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
    return _min_cover(_closed_covers(g))[0]


def _certificate(covers: tuple[int, ...], value: int, kind: str) -> DominationCertificate:
    witness = _first_cover(covers, value, 0)
    return DominationCertificate(value, frozenset(iter_bits(witness)), kind)


def gamma_t(g: Graph) -> DominationCertificate:
    return _certificate(_total_covers(g), gamma_t_value(g), "total_domination")


def gamma(g: Graph) -> DominationCertificate:
    return _certificate(_closed_covers(g), gamma_value(g), "domination")


@lru_cache(maxsize=50_000)
def _all_min_tds_masks(g: Graph) -> tuple[int, ...]:
    # every min-set enumeration comes through here, so the cap holds for all
    if g.n > ENUMERATION_CAP:
        raise TooLarge(f"n={g.n} above the enumeration cap {ENUMERATION_CAP}")
    covers = _isolate_free_covers(g)
    walked = _walk(covers, _leaf_order(covers))
    if walked is None:
        raise NotFound("total domination infeasible on an isolate-free graph")
    found: list[int] = []
    _search(covers, walked[0].bit_count() + 1, found=found)
    # in order of their sorted vertex lists: of two sets of one size, the
    # one holding the lowest vertex of their symmetric difference first,
    # whose bits read lowest first make the larger string
    n = g.n
    return tuple(sorted(found, key=lambda m: f"{m:0{n}b}"[::-1], reverse=True))


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
    witness = _first_cover(_total_covers(g), gamma_t_value(g), leaves_mask(g))
    if witness is None:
        raise NotFound("no leaf-avoiding minimum total dominating set: bug")
    return frozenset(iter_bits(witness))
