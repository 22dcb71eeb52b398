import hashlib
import os

import pytest

from tdmsd import (
    canonical_code,
    enumerate_connected_graphs,
    enumerate_trees,
    errors,
    from_edge_list,
)
from tdmsd import enumeration, graph6_encode
from tdmsd.verify import run_verification

from oracles import (
    connected_graphs_by_code,
    euler_transform,
    free_tree_count,
    labeled_trees_by_prufer,
    naive_graph_classes,
    naive_is_connected,
    trees_by_prufer_dedupe,
)


def _code(n, edges):
    return canonical_code(from_edge_list(n, edges))


# free-tree census per order, from the arithmetic recurrence oracle
TREE_COUNTS = {n: free_tree_count(n) for n in range(1, 15)}


def test_tree_count_recurrence_sanity():
    assert [TREE_COUNTS[n] for n in range(1, 11)] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_tree_counts_match_recurrence():
    for n in range(1, 15):
        assert len(enumerate_trees(n)) == TREE_COUNTS[n], n


def test_trees_small_examples():
    assert len(enumerate_trees(1)) == 1
    assert len(enumerate_trees(4)) == 2
    assert len(enumerate_trees(7)) == 11


def test_every_emitted_tree_is_a_tree_of_right_order():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert t.n == n and t.is_tree()


def test_tree_stream_deterministic_and_duplicate_free():
    a = [canonical_code(t) for t in enumerate_trees(9)]
    b = [canonical_code(t) for t in enumerate_trees(9)]
    assert a == b
    assert len(set(a)) == len(a)


def test_tree_codes_pairwise_distinct():
    for n in range(1, 15):
        codes = {canonical_code(t) for t in enumerate_trees(n)}
        assert len(codes) == TREE_COUNTS[n], n


def _assert_trees_match_networkx(orders):
    # the same successor, so the same trees with the same labels in the same order
    nx = pytest.importorskip("networkx")
    for n in orders:
        ours = [t.edges() for t in enumerate_trees(n)]
        theirs = [
            sorted((min(e), max(e)) for e in g.edges()) for g in nx.nonisomorphic_trees(n)
        ]
        assert ours == theirs, n


def test_tree_stream_matches_networkx():
    _assert_trees_match_networkx(range(2, 15))


@pytest.mark.slow
def test_tree_stream_matches_networkx_to_sixteen():
    _assert_trees_match_networkx(range(15, 17))


@pytest.mark.slow
def test_tree_counts_match_recurrence_to_cap():
    for n in range(15, 19):
        assert len(enumerate_trees(n)) == free_tree_count(n), n


@pytest.mark.slow
def test_tree_sd_eq_msd_through_order_sixteen():
    report = run_verification("tree-sd-eq-msd", 16, jobs=2)
    assert report.graphs_checked == 32506
    assert report.failures == ()


@pytest.mark.slow
@pytest.mark.parametrize("theorem", [
    "tree-sd-eq-msd", "family-sd3", "strong-support",
    # the paper's sd = 1 characterization and its two lemmas, through
    # minimum-set enumeration and the sd = 1 search those sets seed
    "sd1-characterization", "lemma14-implies", "lemma2-implies",
])
def test_tree_theorems_through_order_eighteen(theorem):
    # every free tree of orders 3..18, the tree generator's cap; lemma2-implies
    # checks the 994 connected graphs of orders 3..7 after them
    report = run_verification(theorem, 18, jobs=2)
    assert report.graphs_checked == 205002 + (994 if theorem == "lemma2-implies" else 0)
    assert report.failures == ()


def test_prufer_total_count():
    assert sum(1 for _ in labeled_trees_by_prufer(5)) == 5 ** 3


def _assert_prufer_matches_wrom(n):
    # the two generation methods must agree exactly on their overlap
    assert {_code(n, edges) for edges in trees_by_prufer_dedupe(n, _code)} == {
        canonical_code(t) for t in enumerate_trees(n)
    }, n


def test_prufer_cross_checks_wrom_trees():
    for n in range(1, 8):
        _assert_prufer_matches_wrom(n)


# n^(n-2) labeled trees each: 262,144 at n = 8, 4,782,969 at n = 9
@pytest.mark.slow
@pytest.mark.parametrize("n", [8, 9])
def test_prufer_cross_checks_wrom_trees_at(n):
    _assert_prufer_matches_wrom(n)


def test_connected_counts():
    expected = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, count in expected.items():
        assert len(enumerate_connected_graphs(n)) == count


def test_connected_counts_euler_transform_cross_check():
    # all graph classes per order (OEIS A000088) are the Euler transform of
    # the connected counts
    connected = [1] + [len(enumerate_connected_graphs(n)) for n in range(2, 8)]
    assert euler_transform(connected) == [1, 2, 4, 11, 34, 156, 1044]


def test_connected_generator_matches_the_coding_oracle():
    # the generator that coded every extension, deduped and sorted by code
    oracle = connected_graphs_by_code(7, canonical_code)
    for n in range(2, 8):
        assert sorted(canonical_code(g) for g in enumerate_connected_graphs(n)) == list(oracle[n])


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2])
def test_connected_order_eight_count_and_codes(jobs, monkeypatch):
    # OEIS A001349 at n = 8; with the lower orders, the Euler transform must
    # give all 12,346 graph classes of order 8 (OEIS A000088).  At jobs 2, two
    # forked workers split the extension of the order-7 bases.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = []
    fork_map = enumeration.fork_map
    monkeypatch.setattr(enumeration, "fork_map", lambda *args: forked.append(args[2]) or fork_map(*args))
    reps = enumeration._connected_reps.__wrapped__(8, enumeration._Jobs(jobs))
    assert forked == ([2] if jobs == 2 else [])
    assert len(reps) == 11117
    oracle = connected_graphs_by_code(8, canonical_code)[8]
    assert sorted(canonical_code(g) for g in reps) == list(oracle)
    assert all(g.n == 8 and g.is_connected() for g in reps)
    connected = [1] + [len(enumerate_connected_graphs(n)) for n in range(2, 8)] + [len(reps)]
    assert euler_transform(connected)[-1] == 12346
    assert (_codes_digest(reps), _stream_digest(reps)) == CONNECTED_SHA256[8]


@pytest.mark.slow
def test_connected_order_nine_count_and_codes(monkeypatch):
    # OEIS A001349 at n = 9, generated by two forked workers; past the
    # oracle's reach, so only the count and pairwise distinct codes are checked
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    reps = enumeration._connected_reps.__wrapped__(9, enumeration._Jobs(2))
    assert len(reps) == 261080
    assert all(g.n == 9 and g.is_connected() for g in reps)
    assert len({canonical_code(g) for g in reps}) == 261080


# per order, two sha256 digests: of the hex canonical codes, sorted, one per
# line, which pins the classes (frozen from the generator that coded every
# extension); and of the graph6 strings in stream order, one per line, which
# pins each graph's labels and the stream's order
CONNECTED_SHA256 = {
    2: ("589260b7e971ceed9dd64d8bbdebcb0fe1142b087695c4579d9b2cd5361b270f",
        "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f"),
    3: ("343486b0e62c9cbba46e1b915e7665b8e0d0425c656c89740b3f2943f64fe3f7",
        "ff300d6b5191490a6a2d507279c750a00c4d53fb98b6e1b3e8b59ef7894631ec"),
    4: ("b2927a5dd9d9bd9b463ba2fa7ea96f2d63f6f071a9649a8ca4a9e6d5f87b3042",
        "59f05773e1599dbd0d7a4a269f3cf4b28b2db33e02c061f11cc56710029566f8"),
    5: ("7cbdf22abc69fbfdc6db66096cf11ef65ed220f5bb8db0534d804d487cef023f",
        "0e370540a2934e6ed46b227b6ee2d0e3258614e2020397596f22d8ee109d3588"),
    6: ("135003ad40363dc75d163476fcefacf3f76fe05f59d570fb877878da6776d289",
        "1f17f4e200cd490be3273fc7b70a31d62d43e4afdb0edad78efe6551818f5484"),
    7: ("a6e9c35d2bdb9f4bdac614e7fde26ffc55d27e98597d315cae2dd60b8f5b7177",
        "ee177de1818954e94ee235c711d90c10fd9ca192578617d737ad40a6ae9d1d24"),
    8: ("96959678d5eb703fa31dc651f92c41443f18bd7f6a7119dd3b521a9b302ca715",
        "50e83198afa981708b82d74e6c3ab888ac1e3bce5a50d9ecf2b5d72451429f84"),
}


def _codes_digest(graphs):
    codes = sorted(canonical_code(g).hex() for g in graphs)
    return hashlib.sha256("\n".join(codes).encode()).hexdigest()


def _stream_digest(graphs):
    return hashlib.sha256("\n".join(map(graph6_encode, graphs)).encode()).hexdigest()


@pytest.mark.parametrize("n", range(2, 8))
def test_connected_stream_is_frozen(n):
    graphs = enumerate_connected_graphs(n)
    assert (_codes_digest(graphs), _stream_digest(graphs)) == CONNECTED_SHA256[n]


def test_connected_generator_labels_only_ties(monkeypatch):
    # order 7 from the cached order-6 bases: 1,405 extensions are built, one
    # per orbit of neighbour sets that the base's non-cut degrees leave (2,407
    # under the single degree floor); 1,157 of them pass the non-cut degree
    # test, and the invariants decide all but 374 of those.  One leaf below
    # the new vertex and below each tied vertex settles all but 2 ties, and
    # only those are labelled.  No canonical code is computed.
    enumerate_connected_graphs(6)
    built, tied, labelled = [], [], []
    is_canonical = enumeration._is_canonical_extension
    leaf, labelling = enumeration.individualized_leaf, enumeration.canonical_labelling
    monkeypatch.setattr(enumeration, "_is_canonical_extension",
                        lambda g: built.append(g) or is_canonical(g))
    monkeypatch.setattr(enumeration, "individualized_leaf",
                        lambda g, cells, v: (v == g.n - 1 and tied.append(g)) or leaf(g, cells, v))
    monkeypatch.setattr(enumeration, "canonical_labelling",
                        lambda g, root: labelled.append(g) or labelling(g, root))
    monkeypatch.setattr(enumeration, "canonical_code", None)
    reps = enumeration._connected_reps.__wrapped__(7, enumeration._SERIAL)
    assert (len(built), len(tied), len(labelled)) == (1405, 374, 2)
    assert reps == enumerate_connected_graphs(7)


def _without(n, edges, w):
    # the graph less vertex w, the vertices above w shifted down by one
    return n - 1, [(u - (u > w), v - (v > w)) for u, v in edges if w not in (u, v)]


def test_non_cut_vertices_of_a_base_stay_non_cut_in_its_extensions():
    # the generator's degree floor: joining a new vertex to two or more
    # vertices of a connected base leaves each non-cut vertex of the base
    # non-cut, its degree no lower, so a smaller neighbour set cannot give the
    # new vertex the largest non-cut degree
    extensions = 0
    for n in range(2, 7):
        for base in enumerate_connected_graphs(n):
            edges = base.edges()
            non_cut = [w for w in range(n) if naive_is_connected(*_without(n, edges, w))]
            for nbrs in range(1, 1 << n):
                if nbrs.bit_count() < 2:
                    continue
                ext = from_edge_list(n + 1, edges + [(v, n) for v in range(n) if nbrs >> v & 1])
                for w in non_cut:
                    assert naive_is_connected(*_without(n + 1, ext.edges(), w)), (edges, nbrs, w)
                    assert ext.degree(w) >= base.degree(w)
                extensions += 1
    assert extensions == 7005


def test_degree_masks_skip_only_extensions_the_generator_rejects(monkeypatch):
    # every connected base of order 2..6 and every neighbour set, singletons
    # included: a set the base's non-cut degrees skip is never marked, and its
    # extension is rejected, both by the generator's test and because some
    # other vertex, non-cut by brute force, has a larger degree than the new
    # one.  The rule is invariant under the base's automorphisms, so no
    # skipped set is marked as the image of a tried one either.
    marked = []
    mark_orbit = enumeration._mark_orbit

    def recording(mask, autos, reached):
        marked.append(reached)
        mark_orbit(mask, autos, reached)

    monkeypatch.setattr(enumeration, "_mark_orbit", recording)
    skipped = singletons = 0
    for n in range(2, 7):
        for base in enumerate_connected_graphs(n):
            marked.clear()
            enumeration._extensions(base)
            reached = marked[0]
            edges = base.edges()
            for nbrs in range(1, 1 << n):
                if reached[nbrs]:
                    continue
                ext = from_edge_list(n + 1, edges + [(v, n) for v in range(n) if nbrs >> v & 1])
                assert not enumeration._is_canonical_extension(ext), (edges, nbrs)
                outranked = [w for w in range(n) if ext.degree(w) > ext.degree(n)]
                assert any(
                    naive_is_connected(*_without(n + 1, ext.edges(), w)) for w in outranked
                ), (edges, nbrs)
                skipped += 1
                singletons += nbrs.bit_count() == 1
    assert (skipped, singletons) == (5128, 736)


def test_all_graph_classes_closed_under_complement():
    for n in range(2, 6):
        classes = naive_graph_classes(n, _code)
        codes = {_code(n, edges) for edges in classes}
        assert len(codes) == len(classes) == [2, 4, 11, 34][n - 2]
        for edges in classes:
            comp = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (u, v) not in edges
            ]
            assert _code(n, comp) in codes


def test_connected_generator_matches_brute_force():
    for n in range(2, 6):
        brute = sorted(
            _code(n, edges)
            for edges in naive_graph_classes(n, _code)
            if naive_is_connected(n, edges)
        )
        assert sorted(canonical_code(g) for g in enumerate_connected_graphs(n)) == brute


def test_every_emitted_graph_is_connected():
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            assert g.n == n and g.is_connected()


def test_connected_stream_deterministic_and_duplicate_free():
    stream = enumerate_connected_graphs(6)
    assert enumeration._connected_reps.__wrapped__(6, enumeration._SERIAL) == stream
    assert len({canonical_code(g) for g in stream}) == len(stream) == 112


def test_out_of_range():
    with pytest.raises(errors.OutOfRange):
        enumerate_trees(19)
    with pytest.raises(errors.OutOfRange):
        enumerate_trees(0)
    with pytest.raises(errors.OutOfRange):
        enumerate_connected_graphs(8)
    with pytest.raises(errors.OutOfRange):
        enumerate_connected_graphs(1)
