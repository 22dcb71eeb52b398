import random

import pytest
from hypothesis import given, strategies as st

from tdmsd import (
    enumerate_connected_graphs,
    enumerate_trees,
    errors,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    gstar,
    path,
)

from oracles import bitwise_graph6, random_graph_edges


def test_k2_encodes_to_known_string():
    assert graph6_encode(from_edge_list(2, [(0, 1)])) == "A_"


def test_encode_matches_the_bitwise_encoder():
    graphs = [g for n in range(1, 11) for g in enumerate_trees(n)]
    graphs += [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
    rng = random.Random(62)
    graphs += [from_edge_list(1, []), from_edge_list(2, []), from_edge_list(2, [(0, 1)]),
               from_edge_list(62, random_graph_edges(62, rng, 0.5))]
    for g in graphs:
        assert graph6_encode(g) == bitwise_graph6(g.n, g.edges()), g.edges()


def test_round_trip_is_labeled_identity():
    for g in (path(6), gstar(), from_edge_list(1, [])):
        assert graph6_decode(graph6_encode(g)) == g


def test_round_trip_random():
    rng = random.Random(99)
    for n in range(1, 21):
        for _ in range(50):
            g = from_edge_list(n, random_graph_edges(n, rng, rng.random()))
            assert graph6_decode(graph6_encode(g)) == g


@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_round_trip_hypothesis(n, seed):
    rng = random.Random(seed)
    g = from_edge_list(n, random_graph_edges(n, rng, rng.random()))
    assert graph6_decode(graph6_encode(g)) == g


def test_header_is_stripped():
    g = path(5)
    assert graph6_decode(">>graph6<<" + graph6_encode(g)) == g


def test_decode_strips_only_ascii_whitespace():
    line = graph6_encode(path(5))
    assert graph6_decode(" \t\n\r\v\f" + line + " \t\n\r\v\f") == path(5)
    # other whitespace is a byte outside the alphabet, named as such
    for c in ("\u00a0", "\u2028", "\x85", "\u3000"):
        for text in (c + line, line + c):
            with pytest.raises(errors.MalformedInput,
                               match=f"^byte {ord(c)} outside the graph6 alphabet$"):
                graph6_decode(text)


def test_decode_rejects_out_of_alphabet():
    with pytest.raises(errors.MalformedInput):
        graph6_decode("A" + chr(30))


def test_decode_rejects_wrong_length():
    with pytest.raises(errors.MalformedInput):
        graph6_decode("A")  # n=2 needs one data byte
    with pytest.raises(errors.MalformedInput):
        graph6_decode("A__")


def test_decode_rejects_bad_padding():
    # n=2 has one adjacency bit; the remaining five must be zero
    bad = "A" + chr(63 + 0b111111)
    with pytest.raises(errors.MalformedInput):
        graph6_decode(bad)


def test_decode_rejects_extended_orders():
    with pytest.raises(errors.MalformedInput):
        graph6_decode(chr(126) + "AAA")


def test_encode_rejects_large_orders():
    with pytest.raises(errors.TooLarge):
        graph6_encode(from_edge_list(63, []))
