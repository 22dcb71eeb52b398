"""Standard graph6 text encoding for graphs on up to 62 vertices."""

from __future__ import annotations

from .errors import MalformedInput, TooLarge
# _SPACE is the only padding stripped from graph text: any other character
# reaches the alphabet check, which names it
from .graph import _SPACE, Graph, iter_bits

_HEADER = ">>graph6<<"


# the character of each 6-bit group whose first pair is its lowest bit (graph6
# writes the first pair as the high bit of the group)
_CHAR = tuple(chr(63 + int(f"{v:06b}"[::-1], 2)) for v in range(64))
_GROUP = {c: v for v, c in enumerate(_CHAR)}  # the inverse; its keys are the alphabet


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
    line = line.strip(_SPACE)
    if line.startswith(_HEADER):
        line = line[len(_HEADER):]
    if not line:
        raise MalformedInput("empty graph6 line")
    for c in line:
        if c not in _GROUP:
            raise MalformedInput(f"byte {ord(c)} outside the graph6 alphabet")
    n = ord(line[0]) - 63
    if n == 63:
        raise MalformedInput("multi-byte graph6 orders (n > 62) not supported")
    if n < 1:
        raise MalformedInput("graph6 order must be >= 1")
    width = n * (n - 1) // 2
    need = (width + 5) // 6
    if len(line) - 1 != need:
        raise MalformedInput(f"expected {need} data bytes for n={n}, got {len(line) - 1}")
    # the encoder's integer, pair k at bit k, cut into columns
    bits = 0
    for k, c in enumerate(line[1:]):
        bits |= _GROUP[c] << 6 * k
    if bits >> width:
        raise MalformedInput("nonzero padding bits")
    adj = [0] * n
    for j in range(1, n):
        adj[j] = column = bits & ((1 << j) - 1)
        for i in iter_bits(column):
            adj[i] |= 1 << j
        bits >>= j
    return Graph(n, adj)
