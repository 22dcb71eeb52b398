import pytest
from hypothesis import given, strategies as st

from tdmsd import (
    Graph,
    canonical_code,
    enumerate_connected_graphs,
    enumerate_trees,
    errors,
    format_edge_list,
    from_edge_list,
    gstar,
    is_dominating,
    is_total_dominating,
    parse_edge_list,
    path,
    private_neighborhood,
    star,
    structure_profile,
    subdivide,
    subdivide_edges,
)
from tdmsd.fixtures import GSTAR_EDGES, cycle
from tdmsd.graph import MAX_VERTICES, inner_edges

from oracles import (
    naive_diameter,
    random_connected_edges,
    random_graph_edges,
    reference_subdivide,
    reference_subdivide_edges,
)
import itertools
import random


def test_from_edge_list_k2():
    g = from_edge_list(2, [(0, 1)])
    assert g.n == 2 and g.m == 1


def test_from_edge_list_p4():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g == path(4)


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_from_edge_list_gstar_fixture():
    g = from_edge_list(12, GSTAR_EDGES)
    assert g.n == 12 and g.m == 15
    assert g == gstar()


def test_from_edge_list_errors():
    with pytest.raises(errors.IndexOutOfRange):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(errors.LoopEdge):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(errors.TooLarge):
        from_edge_list(65, [])
    with pytest.raises(errors.TooSmall):
        from_edge_list(0, [])


def test_subdivide_k2_gives_p3():
    g = subdivide(from_edge_list(2, [(0, 1)]), (0, 1), 1)
    assert g.n == 3 and g.m == 2
    # new vertex 2 sits between 0 and 1
    assert g.has_edge(0, 2) and g.has_edge(2, 1) and not g.has_edge(0, 1)
    # a vertex outside the graph has no edge, and no index wraps around
    assert not g.has_edge(-1, 1) and not g.has_edge(1, -1) and not g.has_edge(0, 3)


def test_subdivide_path_stays_path():
    g = subdivide(path(4), (1, 2), 3)
    assert canonical_code(g) == canonical_code(path(7))


def test_subdivide_cycle_stays_cycle():
    g = subdivide(cycle(6), (2, 3), 3)
    assert canonical_code(g) == canonical_code(cycle(9))


def test_subdivide_missing_edge():
    with pytest.raises(errors.EdgeNotPresent):
        subdivide(path(4), (0, 2), 1)


def test_subdivide_edges_simultaneous():
    g = subdivide_edges(path(4), [(0, 1), (2, 3)])
    assert g.n == 6 and g.m == 5
    assert canonical_code(g) == canonical_code(path(6))
    with pytest.raises(errors.EdgeNotPresent):
        subdivide_edges(path(4), [(0, 1), (0, 1)])


def _same_outcome(build, reference, *args):
    # the same graph, or the same error type and message
    try:
        want = reference(*args)
    except errors.GraphError as exc:
        with pytest.raises(type(exc)) as got:
            build(*args)
        assert str(got.value) == str(exc), args
    else:
        assert build(*args) == want, args


def test_shared_builder_matches_the_frozen_builders():
    graphs = [g for n in range(2, 9) for g in enumerate_trees(n)]
    graphs += [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
    for g in graphs:
        edges = g.edges()
        for (u, v), t in itertools.product(edges, range(-1, 4)):
            _same_outcome(subdivide, reference_subdivide, g, (v, u), t)
        for k in range(4):
            for subset in itertools.combinations(edges, k):
                flipped = [(v, u) for u, v in reversed(subset)]
                _same_outcome(subdivide_edges, reference_subdivide_edges, g, subset)
                _same_outcome(subdivide_edges, reference_subdivide_edges, g, flipped)
        # a missing or out-of-range edge, and a duplicate in either order
        absent = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if not g.has_edge(u, v)]
        for e in absent[:2] + [(0, g.n), (-1, 0)]:
            _same_outcome(subdivide, reference_subdivide, g, e, 1)
            _same_outcome(subdivide_edges, reference_subdivide_edges, g, edges[:1] + [e])
        _same_outcome(subdivide_edges, reference_subdivide_edges, g, edges[:1] * 2)
        _same_outcome(subdivide_edges, reference_subdivide_edges, g, [edges[0], edges[0][::-1]])
        # one vertex past the cap, and the cap itself
        for t in (MAX_VERTICES - g.n, MAX_VERTICES - g.n + 1):
            _same_outcome(subdivide, reference_subdivide, g, edges[-1], t)
    big = path(40)
    for k in (24, 25):
        _same_outcome(subdivide_edges, reference_subdivide_edges, big, big.edges()[:k])


@given(st.integers(min_value=1, max_value=4), st.data())
def test_subdivision_counts(t, data):
    seed = data.draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    n = rng.randrange(3, 9)
    edges = random_graph_edges(n, rng, prob=0.5)
    if not edges:
        return
    g = from_edge_list(n, edges)
    e = rng.choice(g.edges())
    h = subdivide(g, e, t)
    assert h.n == g.n + t and h.m == g.m + t
    assert h.is_connected() == g.is_connected()


def test_structure_profile_p4():
    prof = structure_profile(path(4))
    assert prof.leaves == {0, 3}
    assert prof.supports == {1, 2}
    assert prof.strong_supports == frozenset()
    assert prof.pendant_edges == ((0, 1), (2, 3))
    assert prof.inner_edges == ((1, 2),)
    assert prof.diameter == 3
    assert prof.is_tree and not prof.is_star


def test_structure_profile_k1():
    prof = structure_profile(path(1))
    assert prof.is_tree and prof.diameter == 0


def test_zero_vertex_graph_is_not_connected():
    g = Graph(0, ())
    assert not g.is_connected() and not g.is_tree()
    prof = structure_profile(g)
    assert not prof.is_connected and not prof.is_tree and not prof.is_star
    assert prof.diameter is None and prof.leaves == frozenset() and prof.pendant_edges == ()
    assert canonical_code(g) == b"G\x00\x00"


def test_structure_profile_star():
    prof = structure_profile(star(4))
    assert prof.is_star
    assert prof.strong_supports == {0}
    assert prof.inner_edges == ()


def test_structure_profile_gstar():
    prof = structure_profile(gstar())
    assert prof.leaves == frozenset()
    assert not prof.is_tree
    assert prof.diameter == naive_diameter(12, GSTAR_EDGES)
    assert prof.diameter == 4


def test_inner_edges_have_no_leaf_end():
    assert inner_edges(path(4)) == ((1, 2),)
    assert inner_edges(star(4)) == ()
    assert inner_edges(cycle(5)) == tuple(cycle(5).edges())
    assert inner_edges(path(2)) == ()


def test_structure_profile_properties():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 10)
        g = from_edge_list(n, random_graph_edges(n, rng, 0.45))
        prof = structure_profile(g)
        for v in prof.strong_supports:
            assert len(g.neighbors(v) & prof.leaves) >= 2
        for u, v in prof.pendant_edges:
            assert g.degree(u) == 1 or g.degree(v) == 1
        for u, v in prof.inner_edges:
            assert g.degree(u) > 1 and g.degree(v) > 1
        assert set(prof.pendant_edges) | set(prof.inner_edges) == set(g.edges())
        assert not (set(prof.pendant_edges) & set(prof.inner_edges))


def test_pendant_edges_exactly_one_leaf_on_connected():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(3, 10)
        g = from_edge_list(n, random_connected_edges(n, rng))
        for u, v in structure_profile(g).pendant_edges:
            assert (g.degree(u) == 1) != (g.degree(v) == 1)


def test_private_neighborhood_examples():
    assert private_neighborhood(path(4), 1, {1, 2}) == {0}
    assert private_neighborhood(cycle(3), 0, {0, 1}) == frozenset()
    assert private_neighborhood(path(5), 2, {2, 3}) == {1}


def test_private_neighborhood_singleton_is_closed_neighborhood():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(2, 9)
        g = from_edge_list(n, random_graph_edges(n, rng, 0.5))
        u = rng.randrange(n)
        assert private_neighborhood(g, u, {u}) == g.neighbors(u) | {u}


def test_private_neighborhood_requires_membership():
    with pytest.raises(errors.NotInSet):
        private_neighborhood(path(4), 0, {1, 2})


@pytest.mark.parametrize("vertices", [[0, 1, 5], [3], [-1], [0, -2]], ids=["five", "n", "minus-one", "minus-two"])
def test_vertex_sets_outside_the_graph_are_refused(vertices):
    # each predicate refuses the set, rather than ignoring the stray bit,
    # indexing past adj or shifting by a negative count
    g = path(3)
    for predicate in (is_dominating, is_total_dominating):
        with pytest.raises(errors.IndexOutOfRange, match="out of range for n=3"):
            predicate(g, vertices)
    with pytest.raises(errors.IndexOutOfRange, match="out of range for n=3"):
        private_neighborhood(g, 0, [0, *vertices])
    with pytest.raises(errors.IndexOutOfRange, match="out of range for n=3"):
        private_neighborhood(g, vertices[-1], [0])


def test_edge_list_roundtrip():
    for g in (path(5), cycle(6), gstar(), star(7)):
        assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parse_errors():
    with pytest.raises(errors.MalformedInput):
        parse_edge_list("")
    with pytest.raises(errors.MalformedInput):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(errors.MalformedInput):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(errors.MalformedInput):
        parse_edge_list("2 1\n0 1\nunexpected\n")


def test_edge_list_tolerates_status_sidecar():
    g = parse_edge_list("2 1\n0 1\nstatus: AB\n")
    assert g.n == 2
