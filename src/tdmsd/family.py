"""The seeded labeled-tree family closed under the two attachment operations.

The seed is P6 labeled C,B,A,A,B,C along the path.  Operation O1 hangs a
3-path (labeled A,B,C outward) off an A vertex; operation O2 hangs a 4-path
(labeled A,A,B,C outward) off a B or C vertex.  Generation closes the seed
under both operations with isomorphism dedupe; membership of a plain tree
means some member has the same underlying tree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .canonical import canonical_code, labeled_tree_code
from .domination import gamma_t_value, is_total_dominating
from .errors import NotATree, OutOfRange, WrongStatus
from .graph import Graph, from_edge_list, iter_bits

FAMILY_ORDER_CAP = 24


class LabeledTree(NamedTuple):
    """A tree plus one status character per vertex, 'A', 'B' or 'C'."""

    tree: Graph
    status: str

    def status_of(self, v: int) -> str:
        return self.status[v]

    def vertices_with(self, s: str) -> frozenset[int]:
        return frozenset(v for v in range(self.tree.n) if self.status[v] == s)

    @property
    def n(self) -> int:
        return self.tree.n


def _check_labels(t: LabeledTree) -> None:
    g = t.tree
    assert g.is_tree(), "family member must stay a tree"
    assert len(t.status) == g.n and set(t.status) <= set("ABC")
    b_mask = 0
    c_mask = 0
    for v in range(g.n):
        if t.status[v] == "B":
            b_mask |= 1 << v
        elif t.status[v] == "C":
            c_mask |= 1 << v
    # every B vertex touches exactly one C and vice versa; attachments only
    # ever add A neighbors, so the law survives every operation
    for v in iter_bits(b_mask):
        assert (g.adj[v] & c_mask).bit_count() == 1
    for v in iter_bits(c_mask):
        assert (g.adj[v] & b_mask).bit_count() == 1


def family_seed() -> LabeledTree:
    tree = from_edge_list(6, [(i, i + 1) for i in range(5)])
    seed = LabeledTree(tree, "CBAABC")
    _check_labels(seed)
    return seed


def apply_operation(t: LabeledTree, kind: str, y: int) -> LabeledTree:
    """Attach the O1 3-path or O2 4-path at vertex y, returning a new member."""
    if not 0 <= y < t.tree.n:
        raise WrongStatus(f"vertex {y} out of range")
    if kind == "O1":
        if t.status_of(y) != "A":
            raise WrongStatus(f"O1 anchors at status A, vertex {y} has {t.status_of(y)}")
        added = "ABC"
    elif kind == "O2":
        if t.status_of(y) not in "BC":
            raise WrongStatus(f"O2 anchors at status B or C, vertex {y} has {t.status_of(y)}")
        added = "AABC"
    else:
        raise ValueError(f"unknown operation {kind!r}")
    n = t.tree.n
    adj = list(t.tree.adj) + [0] * len(added)
    chain = [y] + [n + i for i in range(len(added))]
    for a, b in zip(chain, chain[1:]):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    out = LabeledTree(Graph(n + len(added), adj), t.status + added)
    _check_labels(out)
    return out


def _children(t: LabeledTree, n_max: int):
    for y in range(t.tree.n):
        s = t.status_of(y)
        if s == "A" and t.tree.n + 3 <= n_max:
            yield apply_operation(t, "O1", y)
        elif s in "BC" and t.tree.n + 4 <= n_max:
            yield apply_operation(t, "O2", y)


@lru_cache(maxsize=None)
def _class_table(n_max: int) -> dict[bytes, LabeledTree]:
    """The canonical code of each member's tree with at most n_max vertices,
    mapped to the first member of its class, in (order, code) order.

    Closure dedupes on the status-labeled canonical form so that no labeled
    variant (and hence no descendant) can be lost.
    """
    if n_max > FAMILY_ORDER_CAP:
        # checked first: the closure grows too fast to finish above the cap
        raise OutOfRange(f"family generation supports n_max <= {FAMILY_ORDER_CAP}, got {n_max}")
    if n_max < 6:
        return {}
    seed = family_seed()
    seen_labeled = {labeled_tree_code(seed.tree, seed.status)}
    members = [seed]
    # breadth first: the loop also visits the children it appends
    for t in members:
        for child in _children(t, n_max):
            code = labeled_tree_code(child.tree, child.status)
            if code not in seen_labeled:
                seen_labeled.add(code)
                members.append(child)
    by_class: dict[bytes, LabeledTree] = {}
    for t in members:
        by_class.setdefault(canonical_code(t.tree), t)
    return dict(sorted(by_class.items(), key=lambda kv: (kv[1].n, kv[0])))


def generate_family(n_max: int) -> tuple[LabeledTree, ...]:
    """All members with at most n_max vertices, one per isomorphism class of
    the underlying tree, in (order, canonical code) order."""
    return tuple(_class_table(n_max).values())


def is_in_family(g: Graph) -> bool:
    """Whether the (unlabeled) tree is a member; statuses are existential."""
    if not g.is_tree():
        raise NotATree("family membership is defined for trees")
    return canonical_code(g) in _class_table(g.n)


def verify_bc_property(t: LabeledTree) -> bool:
    """True iff the B- and C-status vertices form a minimum total dominating set."""
    bc = t.vertices_with("B") | t.vertices_with("C")
    return is_total_dominating(t.tree, bc) and len(bc) == gamma_t_value(t.tree)
