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
    # the paper's msd = 1 characterization, through minimum-set enumeration
    "sd1-characterization", "lemma14-implies",
])
def test_tree_theorems_through_order_eighteen(theorem):
    # every free tree of orders 3..18, the tree generator's cap
    report = run_verification(theorem, 18, jobs=2)
    assert report.graphs_checked == 205002
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
    assert len({canonical_code(g) for g in reps}) == 11117
    assert all(g.n == 8 and g.is_connected() for g in reps)
    connected = [1] + [len(enumerate_connected_graphs(n)) for n in range(2, 8)] + [len(reps)]
    assert euler_transform(connected)[-1] == 12346
    assert _stream_digest(reps) == CONNECTED_STREAM_SHA256[8]


# sha256 of each order's graph6 strings, one per line in stream order, taken
# before the generator pruned extensions by the base's automorphisms; the
# pruning must leave every representative and its labels as they were
CONNECTED_STREAM_SHA256 = {
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "ff2d82289efa0ff461f01b6392475c14443f4eaec80a874bbe26aed794860082",
    4: "e56c01ebb70a617c91be005234aef5da0725d152e7aa8928dc6da84366dad926",
    5: "36abe6322b1b57973f7523e2840d9db1f2ac5a3bffe377f85cb633531875f9fc",
    6: "2f5ab06c740bf6352f77172bfec1f90c65ec728ad336c6d739eff8cd17cb68d0",
    7: "9a05e723cbfa59b9eb2703811b87743b664d26f6ab9ecefb7991274fdb774027",
    8: "f4483d0501ddbbb0e0b7341491ffff1615ad09e68ffe009e888510044a6b1894",
}


def _stream_digest(graphs):
    return hashlib.sha256("\n".join(map(graph6_encode, graphs)).encode()).hexdigest()


@pytest.mark.parametrize("n", range(2, 8))
def test_connected_stream_is_frozen(n):
    assert _stream_digest(enumerate_connected_graphs(n)) == CONNECTED_STREAM_SHA256[n]


def test_connected_generator_codes_one_extension_per_orbit(monkeypatch):
    # order 7 from the cached order-6 bases: 1,908 extensions pass the non-cut
    # test, and 1,157 of them are the least of their orbit under the base's
    # automorphisms; only those are coded
    enumerate_connected_graphs(6)
    calls = []
    code = enumeration.canonical_code
    monkeypatch.setattr(enumeration, "canonical_code", lambda g: calls.append(g) or code(g))
    reps = enumeration._connected_reps.__wrapped__(7, enumeration._SERIAL)
    assert len(calls) == 1157
    assert reps == enumerate_connected_graphs(7)


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
        assert [canonical_code(g) for g in enumerate_connected_graphs(n)] == brute


def test_every_emitted_graph_is_connected():
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            assert g.n == n and g.is_connected()


def test_connected_stream_deterministic_and_duplicate_free():
    codes = [canonical_code(g) for g in enumerate_connected_graphs(6)]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


def test_out_of_range():
    with pytest.raises(errors.OutOfRange):
        enumerate_trees(19)
    with pytest.raises(errors.OutOfRange):
        enumerate_trees(0)
    with pytest.raises(errors.OutOfRange):
        enumerate_connected_graphs(8)
    with pytest.raises(errors.OutOfRange):
        enumerate_connected_graphs(1)
