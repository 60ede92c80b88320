"""Exact group algebra arithmetic and the orbit-sum bases."""

import tracemalloc
from fractions import Fraction
from math import factorial
from itertools import permutations as iter_permutations
from itertools import product

import pytest

from projdetect.groupalgebra import (
    GroupAlgebraElement,
    canonical_permutation,
    class_sum,
    compose,
    cycle_class_sum,
    cycle_type,
    delta,
    diagonal_map,
    diagonal_orbit_sum,
    embed_product,
    g_pair,
    identity_element,
    inverse,
    permutations_of_type,
    projector_element,
    subgroup_orbit_sum,
    tensor,
)
from projdetect.centre import cycle_class_size, normalized_character
from projdetect.kron_lr import dim_A, kron_labels, kron_projector_brute, ribbon_count
from projdetect.symgroup import centralizer_order, character, class_size, dimension, partitions


def test_compose_and_inverse():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == tuple(p[q[i]] for i in range(3))
    assert compose(p, inverse(p)) == (0, 1, 2)
    assert cycle_type(p) == (3,)
    assert cycle_type(q) == (2, 1)


def test_canonical_permutation_types():
    for n in range(1, 7):
        for mu in partitions(n):
            assert cycle_type(canonical_permutation(mu)) == mu
            assert len(list(permutations_of_type(n, mu))) == class_size(mu)


def sparse_product(a, b) -> dict:
    """The convolution by definition, one key pair at a time: the product's referee."""
    out: dict = {}
    for ka, va in a.data.items():
        for kb, vb in b.data.items():
            k = tuple(compose(x, y) for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def graded(degrees, start: int) -> GroupAlgebraElement:
    """A non-central element: distinct coefficients on every third group element."""
    pools = [list(iter_permutations(range(d))) for d in degrees]
    keys = [tuple(t) for t in product(*pools)]
    return GroupAlgebraElement(
        degrees, {k: Fraction(start + i, 7 + i) for i, k in enumerate(keys[::3])}
    )


def test_dense_and_sparse_products_agree():
    """The scaled-integer dense product must reproduce the sparse convolution."""
    # |support| peak_a peak_b at 2^53 - 1 = 441650591 * 20394401 (float64) and
    # at 2^53 = 2 * 2^26 * 2^26 (int64); every entry of both products reaches it
    below = (441650591 * GroupAlgebraElement(3, {(1, 2, 0): 1}), 20394401 * class_sum(3, (3,)))
    at = (
        2**26 * (identity_element(3) + GroupAlgebraElement(3, {(1, 0, 2): 1})),
        2**26 * sum((class_sum(3, mu) for mu in partitions(3)), GroupAlgebraElement(3)),
    )
    big = 2**40
    pair_33 = [kron_projector_brute((2, 1), (2, 1), rep) for rep in partitions(3)]
    cases = [
        (projector_element((2, 2)), cycle_class_sum(4, 3)),
        (identity_element(4), cycle_class_sum(4, 2)),
        (cycle_class_sum(5, 2), cycle_class_sum(5, 3)),
        (
            tensor(projector_element((1, 1)), cycle_class_sum(3, 2)),
            tensor(cycle_class_sum(2, 2), projector_element((2, 1))),
        ),
        (graded((2, 3), 1), graded((2, 3), -5)),
        (graded((3, 2), 2), graded((3, 2), 3)),
        (pair_33[1], pair_33[1]),
        (pair_33[1], pair_33[2]),
        (pair_33[0] + pair_33[2], pair_33[2]),
        (GroupAlgebraElement(4), cycle_class_sum(4, 2)),
        (cycle_class_sum(4, 2), GroupAlgebraElement(4)),
        # a zero operand beside entries past float64's range
        (GroupAlgebraElement(3), 2**1100 * cycle_class_sum(3, 2)),
        (2**1100 * cycle_class_sum(3, 2), GroupAlgebraElement(3)),
        (GroupAlgebraElement((2, 2)), graded((2, 2), 1)),
        (graded((2, 2), 1), GroupAlgebraElement((2, 2))),
        (GroupAlgebraElement((2, 3, 2)), graded((2, 3, 2), 3)),
        (graded((2, 2, 2), 1), graded((2, 2, 2), -4)),
        (graded((2, 3, 2), 3), graded((2, 3, 2), 1)),
        (graded((1, 3), 1), graded((1, 3), 2)),
        (graded((3, 1, 2), -2), graded((3, 1, 2), 5)),
        (graded((1,), 4), graded((1,), 3)),
        below,
        at,
        (big * cycle_class_sum(4, 2), big * projector_element((3, 1))),
    ]
    for a, b in cases:
        assert (a * b).data == sparse_product(a, b)
    assert set((below[0] * below[1]).data.values()) == {2**53 - 1}
    assert set((at[0] * at[1]).data.values()) == {2**53}
    wide_a, wide_b = cases[-1]
    # This case overflows int64 unless the product falls back to object.
    assert max(abs(v) for v in (wide_a * wide_b).data.values()) > 2**63


def test_product_refuses_non_rational_coefficients():
    t2 = cycle_class_sum(3, 2)
    with pytest.raises(TypeError, match="rational"):
        (1j * t2) * t2
    with pytest.raises(TypeError, match="rational"):
        t2 * (0.5 * t2)


def test_pair_product_reaches_n5():
    """Products in C[S_5 x S_5] (|G| = 14400) hold no |G|^2 table."""
    trivial, other = ((5,), (5,), (5,)), ((3, 1, 1),) * 3
    assert trivial in kron_labels(5) and other in kron_labels(5)
    tracemalloc.start()
    try:
        p = kron_projector_brute(*trivial)
        square = p * p
        cross = kron_projector_brute(*other) * p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.support_size() == 14400
    assert square == p
    assert cross.support_size() == 0
    assert peak < 64 << 20


def test_one_factor_product_holds_two_support_by_group_arrays():
    """An S_6 product with a full-support left operand holds two 720 x 720
    arrays (the gather's indices and values), and nothing of |G|^2 beyond them."""
    p = projector_element((6,))
    assert p.support_size() == 720
    p * p  # builds S_6's cached left table outside the measurement
    tracemalloc.start()
    try:
        square = p * p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert square == p
    assert peak < 2 * 720 * 720 * 8 + (256 << 10)


def test_keys_checked_at_entry_points():
    """Caller keys are validated; a product's keys come from the group index."""
    t2 = cycle_class_sum(3, 2)
    with pytest.raises(ValueError, match="bad group element"):
        GroupAlgebraElement(3, {(0, 0, 1): 1})
    with pytest.raises(ValueError, match="bad group element"):
        t2.coefficient((0, 1))
    square = t2 * t2
    assert square == GroupAlgebraElement(3, square.data)
    assert square.coefficient((0, 1, 2)) == 3
    assert square.coefficient((1, 2, 0)) == 3


def test_class_sums_commute():
    n = 4
    t2 = cycle_class_sum(n, 2)
    t3 = cycle_class_sum(n, 3)
    assert t2 * t3 == t3 * t2


def test_delta_of_tk_squared():
    """delta(T_k^2) counts the k-cycles: each sigma pairs with its inverse."""
    for n in range(2, 6):
        for k in range(2, n + 1):
            tk = cycle_class_sum(n, k)
            assert delta(tk * tk) == cycle_class_size(n, k)
            assert delta(tk) == 0


def test_projector_idempotent_and_central():
    for n in (3, 4):
        for rep in partitions(n):
            p = projector_element(rep)
            assert p * p == p
        total = None
        for rep in partitions(n):
            p = projector_element(rep)
            total = p if total is None else total + p
        assert total == identity_element(n)


def test_projector_element_is_the_character_column():
    """P_R[sigma] = d_R chi^R(type sigma) / n!, one character() call per element."""
    for n in range(1, 6):
        for rep in partitions(n):
            expected = {
                p: Fraction(dimension(rep) * character(rep, cycle_type(p)), factorial(n))
                for p in iter_permutations(range(n))
            }
            assert projector_element(rep) == GroupAlgebraElement(n, expected)


def test_projectors_annihilate_each_other():
    for rep in partitions(4):
        for other in partitions(4):
            if rep == other:
                continue
            prod = projector_element(rep) * projector_element(other)
            assert prod.support_size() == 0


def test_g_pair_is_deltabar_product():
    a = cycle_class_sum(4, 2)
    b = projector_element((3, 1))
    assert g_pair(a, b) == delta(a.antipode() * b)
    assert g_pair(a, a) == cycle_class_size(4, 2)


def test_class_sum_self_adjoint_for_g():
    """g(T_mu a, b) = g(a, T_mu b) since classes are inverse-closed."""
    n = 4
    rng_elems = [projector_element((2, 1, 1)), cycle_class_sum(n, 3),
                 class_sum(n, (2, 2))]
    t = cycle_class_sum(n, 2)
    for a in rng_elems:
        for b in rng_elems:
            assert g_pair(t * a, b) == g_pair(a, t * b)


def test_antipode_involution():
    a = projector_element((2, 1)) + Fraction(1, 3) * cycle_class_sum(3, 3)
    assert a.antipode().antipode() == a


def test_diagonal_orbit_count_matches_centralizer_sum():
    """Distinct diagonal orbits on pairs: sum of z_mu, Burnside on conjugation."""
    for n in (3, 4):
        orbits = set()
        for p in iter_permutations(range(n)):
            for q in iter_permutations(range(n)):
                element = diagonal_orbit_sum(p, q)
                orbits.add(frozenset(element.data))
        assert len(orbits) == sum(centralizer_order(mu) for mu in partitions(n))
        assert len(orbits) == ribbon_count(n)
    assert ribbon_count(3) == 11
    assert ribbon_count(4) == 43


def test_diagonal_orbit_sum_is_invariant():
    n = 4
    p, q = (1, 0, 2, 3), (0, 2, 1, 3)
    orbit = diagonal_orbit_sum(p, q)
    for g in [(1, 2, 3, 0), (3, 2, 1, 0)]:
        gi = inverse(g)
        moved = GroupAlgebraElement(
            (n, n),
            {
                (compose(g, compose(a, gi)), compose(g, compose(b, gi))): v
                for (a, b), v in orbit.data.items()
            },
        )
        assert moved == orbit


def test_subgroup_orbit_count_matches_dim_A():
    cases = {(1, 1): 2, (2, 1): 4, (2, 2): 10, (3, 2): 18}
    for (m, n), expected in cases.items():
        orbits = set()
        for sigma in iter_permutations(range(m + n)):
            orbits.add(frozenset(subgroup_orbit_sum(sigma, m).data))
        assert len(orbits) == expected
        assert dim_A(m, n) == expected


def test_orbit_sum_bounds():
    with pytest.raises(ValueError, match="capped"):
        diagonal_orbit_sum(tuple(range(6)), tuple(range(6)))
    with pytest.raises(ValueError, match="capped"):
        subgroup_orbit_sum(tuple(range(7)), 3)


def test_tensor_and_embed():
    a = cycle_class_sum(2, 2)
    b = cycle_class_sum(3, 2)
    pair = tensor(a, b)
    assert pair.degrees == (2, 3)
    assert pair.support_size() == 3
    embedded = embed_product(pair)
    assert embedded.degrees == (5,)
    for key, v in embedded.data.items():
        assert cycle_type(key[0]) == (2, 2, 1)
        assert v == 1


def test_diagonal_map_multiplicative():
    a = cycle_class_sum(3, 2)
    b = cycle_class_sum(3, 3)
    assert diagonal_map(a * b) == diagonal_map(a) * diagonal_map(b)


def test_class_sum_action_eigenvalue():
    n = 5
    rep = (3, 2)
    p = projector_element(rep)
    t = cycle_class_sum(n, 2)
    assert t * p == normalized_character(rep, 2) * p
