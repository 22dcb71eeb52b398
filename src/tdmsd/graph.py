"""Bitmask-backed simple graphs: construction, subdivision, structural queries.

Vertices are dense 0-based indices and every vertex set is an int bitmask,
so neighbourhood algebra is a couple of machine-word operations for graphs
up to MAX_VERTICES vertices.  All values are immutable after construction,
which makes them safe to share across parallel workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    EdgeNotPresent,
    IndexOutOfRange,
    LoopEdge,
    MalformedInput,
    NotInSet,
    TooLarge,
    TooSmall,
)

MAX_VERTICES = 64

# ASCII whitespace, the only padding and separator of graph text:
# str.split(), str.strip() and str.splitlines() also take the no-break
# space, U+2028 and the like, and int() strips them too
_SPACE = " \t\n\r\v\f"

Edge = tuple[int, int]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """The bitmask of a set of g's vertices; IndexOutOfRange if one is not
    in 0..n-1."""
    bits = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise IndexOutOfRange(f"vertex {v} out of range for n={g.n}")
        bits |= 1 << v
    return bits


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def reach_within(adj: Sequence[int], seed: int, within: int) -> int:
    """The vertices that walks inside the vertex set within reach from the
    vertices of seed, a subset of within."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        self.n = n
        self.adj = tuple(adj)

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(iter_bits(self.adj[v]))

    def closed_mask(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def has_edge(self, u: int, v: int) -> bool:
        """False also when u or v is not a vertex of the graph."""
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def edges(self) -> list[Edge]:
        """All edges as normalized (u, v) pairs with u < v, sorted."""
        out = []
        for u, nbrs in enumerate(self.adj):
            higher = nbrs >> u + 1 << u + 1
            while higher:
                low = higher & -higher
                out.append((u, low.bit_length() - 1))
                higher ^= low
        return out

    def is_connected(self) -> bool:
        """Whether the graph has exactly one component; the 0-vertex graph has
        none, so it is not connected."""
        full = self.full_mask
        return self.n > 0 and reach_within(self.adj, 1, full) == full

    def is_tree(self) -> bool:
        return self.m == self.n - 1 and self.is_connected()

    def bfs_distances(self, src: int) -> list[int]:
        """Distances from ``src``; unreachable vertices get -1."""
        dist = [-1] * self.n
        dist[src] = 0
        seen = 1 << src
        frontier = seen
        d = 0
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
            d += 1
            for v in iter_bits(frontier):
                dist[v] = d
        return dist

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Return the graph with every vertex ``v`` renamed to ``perm[v]``."""
        adj = [0] * self.n
        for v in range(self.n):
            moved = 0
            for w in iter_bits(self.adj[v]):
                moved |= 1 << perm[w]
            adj[perm[v]] = moved
        return Graph(self.n, adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __reduce__(self):
        return (Graph, (self.n, self.adj))


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a normalized simple graph; duplicate pairs collapse to one edge."""
    if n < 1:
        raise TooSmall(f"need at least one vertex, got n={n}")
    if n > MAX_VERTICES:
        raise TooLarge(f"n={n} exceeds the {MAX_VERTICES}-vertex cap")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise LoopEdge(f"loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def _wire(sets: list[int], edges: Sequence[Edge], t: int) -> None:
    """Replace each edge (u, v) of edges, in the list of neighbour masks
    sets, by a path of t new vertices, appended from len(sets) up, edge by
    edge, in path order from u.  Each new vertex's mask holds its own bit
    exactly when u's does, so closed neighbourhoods stay closed.  edges
    must be distinct edges of the graph of sets; nothing is checked.
    """
    for u, v in edges:
        x = len(sets)
        last = x + t - 1
        own = sets[u] >> u & 1
        sets[u] ^= 1 << v | 1 << x
        sets[v] ^= 1 << u | 1 << last
        prev = u
        for y in range(x, last):
            sets.append(1 << prev | 1 << y + 1 | own << y)
            prev = y
        sets.append(1 << prev | 1 << v | own << last)


def _subdivided(g: Graph, edges: Sequence[Edge], t: int) -> Graph:
    """g with each normalized edge (u, v) of edges replaced by a path of t
    new vertices, numbered as _wire numbers them.

    edges must be distinct.  Every edge is checked before the vertex count,
    so a missing edge is reported first.
    """
    n, adj = g.n, list(g.adj)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n and adj[u] >> v & 1):
            raise EdgeNotPresent(f"edge ({u}, {v}) not in graph")
    n2 = n + len(edges) * t
    if n2 > MAX_VERTICES:
        raise TooLarge(f"subdivision would need {n2} vertices")
    _wire(adj, edges, t)
    return Graph(n2, adj)


def subdivide(g: Graph, e: tuple[int, int], t: int) -> Graph:
    """Replace edge e=(u,v) by the path u, x1, ..., xt, v.

    The t new vertices are appended as indices n..n+t-1 in path order, so
    original vertex indices survive unchanged.
    """
    if t < 1:
        raise TooSmall(f"subdivision count must be >= 1, got {t}")
    return _subdivided(g, (normalize_edge(*e),), t)


def subdivide_edges(g: Graph, edges: Sequence[tuple[int, int]]) -> Graph:
    """Subdivide each listed edge exactly once, simultaneously.

    The new vertex for the i-th edge is n+i, following the given edge order.
    """
    norm = [normalize_edge(*e) for e in edges]
    if len(set(norm)) != len(norm):
        raise EdgeNotPresent(f"duplicate edges in {edges}")
    return _subdivided(g, norm, 1)


def closed_neighborhood_mask(g: Graph, vertices_mask: int) -> int:
    """Union of closed neighbourhoods over a bitmask of vertices."""
    out = vertices_mask
    for v in iter_bits(vertices_mask):
        out |= g.adj[v]
    return out


def private_neighborhood_mask(g: Graph, u: int, d_mask: int) -> int:
    """N[u] minus the closed neighbourhood of d - {u}, as a bitmask."""
    others = closed_neighborhood_mask(g, d_mask & ~(1 << u))
    return g.closed_mask(u) & ~others


def private_neighborhood(g: Graph, u: int, d: Iterable[int]) -> frozenset[int]:
    """Private neighbours of u with respect to d: N[u] - N[d - {u}]."""
    d_mask = vertex_mask(g, d)
    if not vertex_mask(g, (u,)) & d_mask:
        raise NotInSet(f"vertex {u} not in the set")
    return frozenset(iter_bits(private_neighborhood_mask(g, u, d_mask)))


class StructureProfile(NamedTuple):
    """Degree-one structure and global shape facts about one graph."""

    is_connected: bool
    is_tree: bool
    is_star: bool
    leaves: frozenset[int]
    supports: frozenset[int]
    strong_supports: frozenset[int]
    pendant_edges: tuple[Edge, ...]
    inner_edges: tuple[Edge, ...]
    diameter: int | None


def leaves_mask(g: Graph) -> int:
    bits = 0
    for v in range(g.n):
        if g.adj[v].bit_count() == 1:
            bits |= 1 << v
    return bits


def inner_edges(g: Graph) -> tuple[Edge, ...]:
    """The edges with no leaf end, sorted."""
    lv = leaves_mask(g)
    return tuple((u, v) for u, v in g.edges() if not (lv >> u | lv >> v) & 1)


def structure_profile(g: Graph) -> StructureProfile:
    lv = leaves_mask(g)
    supports = 0
    strong = 0
    for v in range(g.n):
        k = (g.adj[v] & lv).bit_count()
        if k >= 1:
            supports |= 1 << v
        if k >= 2:
            strong |= 1 << v
    pendant = tuple((u, v) for u, v in g.edges() if (lv >> u | lv >> v) & 1)
    connected = g.is_connected()
    diameter: int | None = None
    if connected:
        diameter = max(max(g.bfs_distances(v)) for v in range(g.n))
    is_tree = connected and g.m == g.n - 1
    non_leaf = g.n - lv.bit_count()
    return StructureProfile(
        is_connected=connected,
        is_tree=is_tree,
        is_star=is_tree and g.n >= 2 and non_leaf <= 1,
        leaves=frozenset(iter_bits(lv)),
        supports=frozenset(iter_bits(supports)),
        strong_supports=frozenset(iter_bits(strong)),
        pendant_edges=pendant,
        inner_edges=inner_edges(g),
        diameter=diameter,
    )


def _lines(text: str) -> list[str]:
    """Graph text's non-blank lines: split at "\n" only, stripped of _SPACE."""
    return [line for line in (raw.strip(_SPACE) for raw in text.split("\n")) if line]


def _fields(line: str) -> list[str]:
    """The runs of line between ASCII whitespace."""
    for c in _SPACE[1:]:
        line = line.replace(c, " ")
    return [field for field in line.split(" ") if field]


def _int(field: str) -> int:
    # int() also reads non-ASCII digits, "_" separators and a sign, and
    # strips non-ASCII whitespace
    if not (field.isascii() and field.isdigit()):
        raise ValueError(field)
    return int(field)


def parse_edge_list(text: str) -> Graph:
    """Read the text edge-list format: first line "n m", then m lines "u v".

    Lines are split by _lines; fields are runs of ASCII digits separated by
    ASCII whitespace.  Lines after the m-th edge are tolerated only if they
    start with '#' or 'status:' (family files carry a status sidecar line).
    """
    lines = _lines(text)
    if not lines:
        raise MalformedInput("empty edge-list input")
    head = _fields(lines[0])
    if len(head) != 2:
        raise MalformedInput(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = _int(head[0]), _int(head[1])
    except ValueError as exc:
        raise MalformedInput(f"bad header {lines[0]!r}") from exc
    if len(lines) < 1 + m:
        raise MalformedInput(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1 : 1 + m]:
        parts = _fields(ln)
        if len(parts) != 2:
            raise MalformedInput(f"bad edge line {ln!r}")
        try:
            edges.append((_int(parts[0]), _int(parts[1])))
        except ValueError as exc:
            raise MalformedInput(f"bad edge line {ln!r}") from exc
    for extra in lines[1 + m :]:
        if not (extra.startswith("#") or extra.startswith("status:")):
            raise MalformedInput(f"unexpected trailing line {extra!r}")
    try:
        g = from_edge_list(n, edges)
    except (IndexOutOfRange, LoopEdge, TooLarge, TooSmall) as exc:
        raise MalformedInput(str(exc)) from exc
    if g.m != m:
        raise MalformedInput(f"header said m={m} but {g.m} distinct edges parsed")
    return g


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
