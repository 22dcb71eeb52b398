"""Isomorphism-free streams of free trees and small connected graphs.

Trees are generated incrementally: every free tree on n vertices arises by
attaching a leaf to some tree on n-1 vertices, so extending each canonical
representative at every vertex and deduping by canonical code is exhaustive.
Full Prufer-sequence enumeration is also provided; it is the independent
cross-check oracle for small orders (n^(n-2) labeled trees blow up fast).

Connected graphs are generated the same way, by vertex extension: every
connected graph has a non-cut vertex, so taking a non-cut vertex v of largest
degree, G - v is connected and G arises from its representative by adding v
joined to some non-empty vertex set.  An extension is kept only when its new
vertex could be that v (no non-cut vertex has strictly larger degree), and
what is left is deduped by canonical code (canonical augmentation, McKay,
J. Algorithms 26, 1998).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .canonical import canonical_code
from .errors import OutOfRange
from .graph import Graph, from_edge_list, iter_bits

TREE_ORDER_CAP = 16
CONNECTED_ORDER_CAP = 7


@dataclass(frozen=True)
class GraphStream:
    """A materialized, deterministic stream of one graph per isomorphism class."""

    order: int
    graphs: tuple[Graph, ...] = field(repr=False)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def __len__(self) -> int:
        return len(self.graphs)


# -- free trees --------------------------------------------------------------

@lru_cache(maxsize=None)
def _tree_reps(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (from_edge_list(1, []),)
    seen: dict[bytes, Graph] = {}
    for base in _tree_reps(n - 1):
        for v in range(base.n):
            adj = list(base.adj) + [0]
            adj[v] |= 1 << (n - 1)
            adj[n - 1] = 1 << v
            t = Graph(n, adj)
            code = canonical_code(t, cap=TREE_ORDER_CAP)
            if code not in seen:
                seen[code] = t
    return tuple(seen[code] for code in sorted(seen))


def enumerate_trees(n: int) -> GraphStream:
    """All free trees of order n, one per isomorphism class, by ascending code."""
    if not 1 <= n <= TREE_ORDER_CAP:
        raise OutOfRange(f"tree enumeration supports 1 <= n <= {TREE_ORDER_CAP}")
    return GraphStream(order=n, graphs=_tree_reps(n))


def prufer_decode(seq: Sequence[int], n: int) -> Graph:
    """Labeled tree on n vertices from a Prufer sequence of length n-2."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return from_edge_list(n, edges)


def labeled_trees_by_prufer(n: int) -> Iterator[Graph]:
    """Every labeled tree on n vertices, one per Prufer sequence."""
    if n < 1:
        raise OutOfRange("need n >= 1")
    if n == 1:
        yield from_edge_list(1, [])
        return
    if n == 2:
        yield from_edge_list(2, [(0, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def trees_by_prufer_dedupe(n: int) -> tuple[Graph, ...]:
    """Free trees of order n via full Prufer enumeration plus canonical dedupe.

    Exponential in n; intended as a small-order cross-check of _tree_reps.
    """
    seen: dict[bytes, Graph] = {}
    for t in labeled_trees_by_prufer(n):
        code = canonical_code(t, cap=TREE_ORDER_CAP)
        if code not in seen:
            seen[code] = t
    return tuple(seen[code] for code in sorted(seen))


# -- connected graphs --------------------------------------------------------

def _is_non_cut(adj: list[int], v: int) -> bool:
    """Whether the graph stays connected once vertex v is removed."""
    rest = ((1 << len(adj)) - 1) & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        nxt = 0
        for w in iter_bits(frontier):
            nxt |= adj[w]
        frontier = nxt & rest & ~seen
        seen |= frontier
    return seen == rest


@lru_cache(maxsize=None)
def _connected_reps(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (from_edge_list(1, []),)
    new = n - 1
    seen: dict[bytes, Graph] = {}
    for base in _connected_reps(n - 1):
        for nbrs in range(1, 1 << new):
            adj = [a | (nbrs >> v & 1) << new for v, a in enumerate(base.adj)]
            adj.append(nbrs)
            # keep only extensions whose new vertex is a non-cut vertex of
            # largest degree among the non-cut vertices
            deg = nbrs.bit_count()
            if any(adj[v].bit_count() > deg and _is_non_cut(adj, v) for v in range(new)):
                continue
            g = Graph(n, adj)
            code = canonical_code(g)
            if code not in seen:
                seen[code] = g
    return tuple(seen[code] for code in sorted(seen))


def enumerate_connected_graphs(n: int) -> GraphStream:
    """All connected graphs of order n up to isomorphism, by ascending code."""
    if not 2 <= n <= CONNECTED_ORDER_CAP:
        raise OutOfRange(
            f"connected enumeration supports 2 <= n <= {CONNECTED_ORDER_CAP}"
        )
    return GraphStream(order=n, graphs=_connected_reps(n))
