import time

import pytest

from tdmsd import (
    LabeledTree,
    apply_operation,
    canonical_code,
    errors,
    family_seed,
    gamma_t_value,
    generate_family,
    is_in_family,
    is_total_dominating,
    path,
    star,
    verify_bc_property,
)
from tdmsd.enumeration import TREE_ORDER_CAP
from tdmsd.family import FAMILY_ORDER_CAP


def test_seed_is_p6_with_statuses():
    seed = family_seed()
    assert canonical_code(seed.tree) == canonical_code(path(6))
    assert seed.status == "CBAABC"
    assert gamma_t_value(seed.tree) == 4
    bc = seed.vertices_with("B") | seed.vertices_with("C")
    assert is_total_dominating(seed.tree, bc) and len(bc) == 4


def test_o1_at_center_gives_nine_vertex_spider():
    seed = family_seed()
    t = apply_operation(seed, "O1", 2)
    assert t.n == 9
    assert t.status == "CBAABCABC"
    # both central anchors give the same unlabeled tree
    t2 = apply_operation(seed, "O1", 3)
    assert canonical_code(t.tree) == canonical_code(t2.tree)


def test_o2_at_end_leaf_gives_p10():
    seed = family_seed()
    t = apply_operation(seed, "O2", 0)
    assert t.n == 10
    assert canonical_code(t.tree) == canonical_code(path(10))


def test_operation_status_preconditions():
    seed = family_seed()
    for kind, y, message in [
        ("O1", 1, "O1 anchors at status A, vertex 1 has B"),
        ("O2", 2, "O2 anchors at status B or C, vertex 2 has A"),
        ("O1", 6, "vertex 6 out of range"),
        ("O3", -1, "vertex -1 out of range"),
    ]:
        with pytest.raises(errors.WrongStatus) as exc:
            apply_operation(seed, kind, y)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="unknown operation 'O3'"):
        apply_operation(seed, "O3", 0)


def test_generation_counts_small():
    assert len(generate_family(6)) == 1
    assert len(generate_family(8)) == 1
    assert len(generate_family(9)) == 2
    sizes = sorted(t.n for t in generate_family(10))
    assert sizes == [6, 9, 10, 10]


def test_member_sizes_follow_operation_arithmetic():
    for t in generate_family(14):
        remainder = t.n - 6
        assert any(
            remainder == 3 * a + 4 * b
            for a in range(remainder // 3 + 1)
            for b in range(remainder // 4 + 1)
        )


def test_bc_property_all_members():
    # for n <= 14 the split n = 6 + 3a + 4b is unique, so gamma_t = 4 + 2(a+b)
    op_counts = {0: 0, 3: 1, 4: 1, 6: 2, 7: 2, 8: 2}
    for t in generate_family(13):
        assert verify_bc_property(t)
        bc = t.vertices_with("B") | t.vertices_with("C")
        assert gamma_t_value(t.tree) == len(bc) == 4 + 2 * op_counts[t.n - 6]


def test_gamma_t_grows_two_per_operation():
    seed = family_seed()
    assert gamma_t_value(seed.tree) == 4
    t = apply_operation(seed, "O1", 2)
    assert gamma_t_value(t.tree) == 6
    t = apply_operation(t, "O2", 0)
    assert gamma_t_value(t.tree) == 8


def test_membership_examples():
    assert is_in_family(path(6))
    assert not is_in_family(path(7))
    assert is_in_family(path(10))
    assert not is_in_family(star(6))
    with pytest.raises(errors.NotATree):
        from tdmsd import cycle

        is_in_family(cycle(6))


def test_membership_is_of_the_unlabeled_tree():
    # relabeled P10 is still recognized
    perm = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
    assert is_in_family(path(10).relabel(perm))


def test_commuting_operations_give_isomorphic_trees():
    seed = family_seed()
    # two operations anchored at distinct pre-existing vertices commute
    a = apply_operation(apply_operation(seed, "O1", 2), "O2", 0)
    b = apply_operation(apply_operation(seed, "O2", 0), "O1", 2)
    assert canonical_code(a.tree) == canonical_code(b.tree)


def test_membership_above_the_cap_fails_before_any_closure_work():
    start = time.process_time()
    with pytest.raises(errors.OutOfRange, match=f"n_max <= {FAMILY_ORDER_CAP}"):
        is_in_family(path(FAMILY_ORDER_CAP + 1))
    assert time.process_time() - start < 0.5


def test_family_is_generated_up_to_its_cap():
    assert len(generate_family(FAMILY_ORDER_CAP)) == 1413
    with pytest.raises(errors.OutOfRange, match=f"n_max <= {FAMILY_ORDER_CAP}, got 25"):
        generate_family(FAMILY_ORDER_CAP + 1)


def test_bc_property_needs_a_total_dominating_set_of_minimum_size():
    # P6's gamma_t is 4: B|C = {0, 1, 2, 4, 5} dominates totally but is too
    # large, and {0, 3, 4, 5} has the size but leaves vertex 0, whose one
    # neighbour is A, undominated
    assert not verify_bc_property(LabeledTree(path(6), "CBBABC"))
    assert not verify_bc_property(LabeledTree(path(6), "CAACBC"))


def test_family_cap_covers_every_tree_order():
    # family-sd3 asks is_in_family about trees of every order it sweeps
    assert TREE_ORDER_CAP <= FAMILY_ORDER_CAP


def test_membership_below_the_seed_order_is_false():
    assert generate_family(5) == ()
    assert not any(is_in_family(path(n)) for n in range(1, 6))
