"""Standard graph6 text encoding for graphs on up to 62 vertices."""

from __future__ import annotations

from .errors import MalformedInput, TooLarge
from .graph import Graph, from_edge_list

_HEADER = ">>graph6<<"


# the character of each 6-bit group whose first pair is its lowest bit (graph6
# writes the first pair as the high bit of the group)
_CHAR = tuple(chr(63 + int(f"{v:06b}"[::-1], 2)) for v in range(64))


def graph6_encode(g: Graph) -> str:
    if g.n > 62:
        raise TooLarge("graph6 single-byte order encoding needs n <= 62")
    # the column-major upper triangle (0,1), (0,2), (1,2), (0,3), ... as one
    # integer, pair k at bit k: column j is adj[j]'s bits below j
    bits = 0
    width = 0
    for j in range(1, g.n):
        bits |= (g.adj[j] & ((1 << j) - 1)) << width
        width += j
    return chr(g.n + 63) + "".join([_CHAR[bits >> k & 63] for k in range(0, width, 6)])


def graph6_decode(line: str) -> Graph:
    line = line.strip()
    if line.startswith(_HEADER):
        line = line[len(_HEADER):]
    if not line:
        raise MalformedInput("empty graph6 line")
    codes = [ord(c) for c in line]
    for c in codes:
        if not 63 <= c <= 126:
            raise MalformedInput(f"byte {c} outside the graph6 alphabet")
    if codes[0] == 126:
        raise MalformedInput("multi-byte graph6 orders (n > 62) not supported")
    n = codes[0] - 63
    if n < 1:
        raise MalformedInput("graph6 order must be >= 1")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = codes[1:]
    if len(body) != need:
        raise MalformedInput(f"expected {need} data bytes for n={n}, got {len(body)}")
    bits = []
    for c in body:
        val = c - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[npairs:]):
        raise MalformedInput("nonzero padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return from_edge_list(n, edges)
