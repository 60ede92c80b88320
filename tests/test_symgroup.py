"""Partition enumeration and character table checks against independent oracles."""

import json
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdetect import symgroup
from projdetect.centre import projector_state
from projdetect.detection import detect_projector
from projdetect.symgroup import (
    CharacterTable,
    as_partition,
    character,
    character_matrix,
    centralizer_order,
    class_size,
    dimension,
    format_partition,
    parse_partition,
    partitions,
)


def euler_partition_counts(n_max: int) -> list:
    """p(n) by the pentagonal-number recurrence, independent of partitions()."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def brute_involutions(n: int) -> int:
    count = 0
    for perm in _all_perms(n):
        inv = tuple(perm.index(i) for i in range(n))
        if inv == perm:
            count += 1
    return count


def _all_perms(n: int):
    from itertools import permutations as iperm

    return iperm(range(n))


def test_partition_counts_match_pentagonal_recurrence():
    counts = euler_partition_counts(26)
    for n in range(27):
        assert len(partitions(n)) == counts[n]
    assert counts[26] == 2436


def test_partition_order_reverse_lex():
    for n in range(9):
        ps = partitions(n)
        assert ps[0] == ((n,) if n else ())
        if n:
            assert ps[-1] == (1,) * n
        assert list(ps) == sorted(ps, reverse=True)


def test_parse_and_format_roundtrip():
    assert parse_partition("") == ()
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert format_partition((3, 2, 1)) == "3,2,1"
    with pytest.raises(ValueError, match="'x'"):
        parse_partition("3,x")
    with pytest.raises(ValueError):
        parse_partition("2,3")
    with pytest.raises(ValueError):
        as_partition((3, 0))


def test_non_integral_parts_are_refused():
    """A part must equal its int(): 2.5 used to be truncated to 2, and "2" read as 2."""
    for parts in ([2.5, 1], (2, 1.5), (Fraction(5, 2),), (np.float64(1.5),), ("2", "1")):
        with pytest.raises(ValueError, match="partition parts must be integers"):
            as_partition(parts)
    with pytest.raises(ValueError, match="must be integers"):
        projector_state((2.7, 1))
    with pytest.raises(ValueError, match="must be integers"):
        detect_projector((3.5, 2, 1))
    # integral input keeps its result and its messages
    assert as_partition([2.0, np.int64(1), True, Fraction(1)]) == (2, 1, 1, 1)
    assert as_partition(iter(np.array([3, 3]))) == (3, 3)
    with pytest.raises(ValueError, match=r"^partition parts must be positive: \(3, 0\)$"):
        as_partition((3.0, 0))
    with pytest.raises(ValueError, match=r"^partition parts must be weakly decreasing: \(1, 2\)$"):
        as_partition([1, 2])
    assert parse_partition(" 3, 2 ,1 ") == (3, 2, 1)


PARTITIONS_TO_20 = st.integers(min_value=0, max_value=20).flatmap(
    lambda n: st.sampled_from(partitions(n))
)


@settings(max_examples=150, deadline=None)
@given(PARTITIONS_TO_20)
def test_partition_text_round_trip(p):
    assert parse_partition(format_partition(p)) == p


def malformed(p, fault: str, where: int) -> str:
    """Text of the nonempty partition p with one fault at token position where."""
    tokens = [str(x) for x in p]
    at = where % (len(tokens) + 1)
    if fault == "increasing parts":
        tokens.append(str(p[-1] + 1))
    else:
        tokens.insert(at, {"zero part": "0", "bad token": "x", "stray comma": ""}[fault])
    return ",".join(tokens)


@settings(max_examples=150, deadline=None)
@given(
    PARTITIONS_TO_20.filter(bool),
    st.sampled_from(["zero part", "increasing parts", "bad token", "stray comma"]),
    st.integers(min_value=0, max_value=20),
)
def test_malformed_partition_text_is_refused(p, fault, where):
    with pytest.raises(ValueError, match="not a partition"):
        parse_partition(malformed(p, fault, where))


def test_dimension_examples():
    # hook lengths for [3,3]: 4,3,2 / 3,2,1 -> 720/144 = 5
    assert dimension((3, 3)) == 5
    assert dimension((6,)) == 1
    assert dimension((1, 1, 1, 1, 1, 1)) == 1
    assert dimension((3, 2, 1)) == 16
    assert dimension((4, 2)) == 9


def test_class_size_examples():
    assert class_size((2, 1, 1, 1, 1)) == 15
    assert class_size((6,)) == 120
    assert class_size((1, 1, 1)) == 1
    for n in range(1, 9):
        assert sum(class_size(mu) for mu in partitions(n)) == factorial(n)


def test_sum_of_dimensions_equals_involution_count():
    """Frobenius-Schur: every irrep of S_n is real, so sum_R d_R counts involutions."""
    sums = {n: sum(dimension(rep) for rep in partitions(n)) for n in range(1, 9)}
    assert (sums[2], sums[4], sums[6]) == (2, 10, 76)
    for n, total in sums.items():
        assert total == brute_involutions(n)


def test_sign_character():
    for n in range(1, 8):
        sign_rep = (1,) * n
        for mu in partitions(n):
            parity = (-1) ** (n - len(mu))
            assert character(sign_rep, mu) == parity


def test_trivial_character():
    for n in range(1, 8):
        for mu in partitions(n):
            assert character((n,), mu) == 1


def test_row_orthogonality():
    for n in range(1, 13):
        reps = partitions(n)
        sizes = {mu: class_size(mu) for mu in reps}
        for i, r in enumerate(reps):
            for s in reps[i:]:
                acc = sum(sizes[mu] * character(r, mu) * character(s, mu) for mu in reps)
                assert acc == (factorial(n) if r == s else 0)


def test_column_orthogonality_n7():
    n = 7
    reps = partitions(n)
    for mu in reps:
        for nu in reps:
            acc = sum(character(r, mu) * character(r, nu) for r in reps)
            expected = factorial(n) // class_size(mu) if mu == nu else 0
            assert acc == expected


def test_character_dimension_consistency():
    for n in range(1, 11):
        for r in partitions(n):
            assert character(r, (1,) * n) == dimension(r)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_character_integrality_and_bound(n, data):
    reps = partitions(n)
    r = data.draw(st.sampled_from(reps))
    mu = data.draw(st.sampled_from(reps))
    val = character(r, mu)
    assert isinstance(val, int)
    assert abs(val) <= dimension(r)


def test_table_csv_shape():
    table = CharacterTable(3)
    lines = table.to_csv().strip().splitlines()
    assert lines[0].rstrip() == 'rep,3,"2,1","1,1,1"'
    assert len(lines) == 4


def test_table_json_schema():
    blob = json.loads(CharacterTable(4).to_json())
    assert blob["schema"] == "1"
    assert blob["n"] == 4
    assert len(blob["rows"]) == 5


def test_empty_group_table():
    table = CharacterTable(0)
    assert table.labels == ((),)
    assert table.chi((), ()) == 1


def test_table_matches_character_on_every_entry():
    """The rim-hook fill against the per-entry recursion, every entry of n <= 12."""
    for n in range(13):
        table = CharacterTable(n)
        expected = [[character(r, mu) for mu in table.labels] for r in table.labels]
        assert table.matrix.tolist() == expected, n
        assert {type(x) for x in table.matrix.flat} == {int}


def test_table_columns_orthogonal_and_identity_column_is_dimension():
    """n = 13..16: sum_R chi^R(mu) chi^R(nu) = z_mu [mu == nu], and chi(e) = dim.

    Every such sum is at most n! <= 16! in size, so the int64 product is exact.
    """
    for n in range(13, 17):
        x = character_matrix(n)
        assert x.dtype == np.int64
        labels = partitions(n)
        z = np.diag([centralizer_order(mu) for mu in labels]).astype(np.int64)
        assert np.array_equal(x.T @ x, z), n
        assert x[:, -1].tolist() == [dimension(r) for r in labels], n


def test_table_builds_without_the_per_entry_route(monkeypatch):
    """CharacterTable has one fill route; character and _mn are only its referee."""

    labels = partitions(9)
    expected = [[character(r, mu) for mu in labels] for r in labels]

    def refuse(*args):
        raise AssertionError("the table fill called the per-entry route")

    monkeypatch.setattr(symgroup, "character", refuse)
    monkeypatch.setattr(symgroup, "_mn", refuse)
    character_matrix.cache_clear()
    try:
        assert CharacterTable(9).matrix.tolist() == expected
    finally:
        character_matrix.cache_clear()


def test_table_dtype_switch_is_pinned_to_the_bound():
    """int64 exactly while n times the largest dimension of S_{n-1} is below 2^63.

    With the largest dimensions from the hook length formula, the fill
    switches to Python ints at n = 35; every table the tests build is int64.
    """
    assert symgroup._table_dtype(7, (2**63 - 1) // 7) is np.int64
    assert symgroup._table_dtype(8, 2**60) is object
    assert symgroup._table_dtype(3, 2**63 // 3 + 1) is object
    largest = {n: max(dimension(r) for r in partitions(n)) for n in (33, 34)}
    assert symgroup._table_dtype(34, largest[33]) is np.int64
    assert symgroup._table_dtype(35, largest[34]) is object
    assert largest[34] == 1579812376072320000
    assert {character_matrix(n).dtype for n in range(17)} == {np.dtype(np.int64)}


def test_object_route_matches_int64_route(monkeypatch):
    """The Python-int fill, taken past the bound, gives the same tables."""
    expected = {n: character_matrix(n).tolist() for n in range(11)}
    monkeypatch.setattr(symgroup, "_table_dtype", lambda n, max_dim_below: object)
    character_matrix.cache_clear()
    try:
        for n in range(1, 11):
            x = character_matrix(n)
            assert x.dtype == object
            assert {type(v) for v in x.flat} == {int}
            assert x.tolist() == expected[n], n
    finally:
        character_matrix.cache_clear()


def test_character_matrix_is_read_only():
    with pytest.raises(ValueError):
        character_matrix(4)[0, 0] = 7
    table = CharacterTable(4)
    table.matrix[0, 0] = 7
    assert character_matrix(4)[0, 0] == 1
