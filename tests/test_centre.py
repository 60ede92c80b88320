"""Centre eigenvalues, signatures, and the k* cutoff."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdetect import centre
from projdetect.centre import (
    CentreState,
    chi_max,
    content_sum,
    content_column,
    cycle_class_size,
    eigenvalue_column,
    eigenvalue_from_contents,
    k_star,
    k_star_growth_report,
    normalized_character,
    projector_state,
    signature,
    signature_table,
    signature_table_csv,
    structure_constants,
)
from projdetect.symgroup import (
    character,
    class_size,
    conjugate,
    dimension,
    normalized_character_exact,
    partitions,
)


def test_cycle_class_size_examples():
    assert cycle_class_size(6, 2) == 15
    assert cycle_class_size(6, 3) == 40
    assert cycle_class_size(6, 6) == 120
    assert cycle_class_size(4, 2) == 6
    for n in range(2, 10):
        for k in range(2, n + 1):
            assert cycle_class_size(n, k) == class_size(
                (k,) + (1,) * (n - k)
            )


def test_content_identity_small():
    """T_2 eigenvalue equals the sum of cell contents j - i."""
    for n in range(2, 16):
        for rep in partitions(n):
            assert normalized_character(rep, 2) == content_sum(rep)


def test_content_values_n6():
    assert content_sum((6,)) == 15
    assert content_sum((3, 2, 1)) == 0
    assert content_sum((2, 2, 2)) == -3
    assert content_sum((3, 3)) == 3
    assert content_sum((4, 2)) == 5


def test_normalized_character_integral():
    for n in range(2, 11):
        for rep in partitions(n):
            for k in range(2, n + 1):
                val = normalized_character(rep, k)
                assert isinstance(val, int)
                assert abs(val) <= cycle_class_size(n, k)


def test_chi_max_examples():
    assert chi_max(6, 2) == 15
    assert chi_max(4, 2) == 6
    assert chi_max(6, 3) == 40


def test_signature_collisions_at_n6():
    """T_2 alone leaves exactly two colliding pairs at n = 6."""
    sigs = {rep: signature(rep, 2) for rep in partitions(6)}
    assert sigs[(4, 1, 1)] == sigs[(3, 3)] == (3,)
    assert sigs[(3, 1, 1, 1)] == sigs[(2, 2, 2)] == (-3,)
    values = list(sigs.values())
    assert len(values) - len(set(values)) == 2


def test_signature_table_resolves_at_kstar():
    for n in range(2, 10):
        table = signature_table(n)
        assert len(table) == len(partitions(n))
        for sig, rep in table.items():
            assert signature(rep, k_star(n)) == sig


KSTAR_ROWS = {1: 1, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 7: 2, 8: 3, 9: 3, 10: 3,
              11: 3, 12: 3, 13: 3, 14: 3, 15: 4}


def test_kstar_frozen_rows():
    for n, k in KSTAR_ROWS.items():
        assert k_star(n) == k


def test_kstar_needs_a_diagram():
    with pytest.raises(ValueError):
        k_star(0)


def test_kstar_evaluates_no_eigenvalue(monkeypatch):
    """k_star reads content power sums only; the eigenvalue route may be broken."""

    def broken(k, p):
        raise AssertionError("k_star evaluated an eigenvalue")

    monkeypatch.setattr(centre, "eigenvalue_from_contents", broken)
    k_star.cache_clear()
    eigenvalue_column.cache_clear()
    try:
        with pytest.raises(AssertionError):
            normalized_character((2, 1), 2)
        for n in range(1, 13):
            assert k_star(n) == KSTAR_ROWS[n]
    finally:
        k_star.cache_clear()
        eigenvalue_column.cache_clear()


def test_eigenvalue_triangular_in_content_power_sums():
    """T_k - p_{k-1} is a function of n and p_1..p_{k-2} alone.

    This is the theorem behind k_star: equal (p_1..p_{K-1}) prefixes and
    equal (T_2..T_K) prefixes split the diagrams of n at the same K.
    """
    for n in range(2, 15):
        for k in range(2, min(n, 8) + 1):
            rest_by_prefix = {}
            for rep in partitions(n):
                prefix = tuple(content_sum(rep, j) for j in range(1, k - 1))
                rest = normalized_character(rep, k) - content_sum(rep, k - 1)
                assert rest_by_prefix.setdefault(prefix, rest) == rest, (n, k, rep)


def test_content_columns_match_content_sum():
    """The prefix-table columns against the per-cell sums, n <= 20, p_0..p_6."""
    for n in range(1, 21):
        for power in range(7):
            column = content_column(n, power)
            assert column.tolist() == [content_sum(rep, power) for rep in partitions(n)], (n, power)


def test_eigenvalue_columns_match_beta_route():
    """Every diagram of n <= 20, T_2..T_6, against the beta-number route."""
    for n in range(2, 21):
        for k in range(2, min(n, 6) + 1):
            expected = [normalized_character_exact(rep, k) for rep in partitions(n)]
            assert eigenvalue_column(n, k).tolist() == expected, (n, k)


def test_eigenvalue_at_k_equals_n_past_int64():
    """T_n on a few diagrams of each n <= 20, where p_{n-1} outgrows int64.

    On the one-row diagram every n-cycle acts as 1, so T_n = |C_n| = (n-1)!;
    at n = 20 that is 19! = 121645100408832000.
    """
    for n in range(2, 21):
        reps = partitions(n)
        for rep in {reps[0], reps[len(reps) // 2], reps[-1], reps[-2]}:
            assert normalized_character(rep, n) == normalized_character_exact(rep, n), rep
    assert normalized_character((20,), 20) == factorial(19) == 121645100408832000
    dtypes = {content_column(20, power).dtype for power in range(20)}
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_eigenvalue_from_contents_takes_ints():
    """The scalar form of the recurrence, fed per-cell sums, gives every T_k for n <= 9."""
    for n in range(2, 10):
        for rep in partitions(n):
            p = [content_sum(rep, power) for power in range(n)]
            for k in range(2, n + 1):
                value = eigenvalue_from_contents(k, p[:k])
                assert value == normalized_character(rep, k)
                assert isinstance(value, int)


def test_eigenvalue_from_contents_refuses_a_remainder():
    """Sums that no diagram has can leave T_7 fractional; that raises."""
    with pytest.raises(ArithmeticError):
        eigenvalue_from_contents(7, [31, 8, -30, 15, 31, -14, 17])


def test_signature_table_matches_beta_rebuild():
    """n = 20..23: the column-built table, key for key and in order."""
    for n in range(20, 24):
        upto = k_star(n)
        rebuilt = {
            tuple(normalized_character_exact(rep, k) for k in range(2, upto + 1)): rep
            for rep in partitions(n)
        }
        assert list(signature_table(n).items()) == list(rebuilt.items())


def test_signature_table_refuses_a_shared_signature(monkeypatch):
    """T_2 alone leaves collisions at n = 6, so a cutoff of 2 must raise."""
    monkeypatch.setattr(centre, "k_star", lambda n: 2)
    with pytest.raises(ArithmeticError, match="share signature"):
        signature_table.__wrapped__(6)


def _frobenius_content_eigenvalue(rep, k):
    """T_k = -k^-2 [w^-1] w(w-1)..(w-k+1) prod_cells (w-c-k)(w-c+1)/((w-c-k+1)(w-c)).

    With x = 1/w the right side is w^k times a power series Q(x), Q(0) = 1,
    so [w^-1] is the x^(k+1) coefficient of Q.
    """
    deg = k + 1
    q = [1] + [0] * deg

    def times(a):  # q *= 1 - a x
        for i in range(deg, 0, -1):
            q[i] -= a * q[i - 1]

    def over(a):  # q /= 1 - a x
        for i in range(1, deg + 1):
            q[i] += a * q[i - 1]

    for j in range(k):
        times(j)
    for i, r in enumerate(rep):
        for c in range(-i, r - i):
            times(c + k)
            times(c - 1)
            over(c + k - 1)
            over(c)
    return Fraction(-q[deg], k * k)


def test_frobenius_content_formula():
    """The formula in k_star's proof sketch gives the beta-route eigenvalues."""
    for n in range(2, 11):
        for rep in partitions(n):
            for k in range(2, n + 1):
                assert _frobenius_content_eigenvalue(rep, k) == normalized_character(rep, k)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.data(), st.integers(min_value=0, max_value=7))
def test_content_sum_under_conjugation(n, data, power):
    """Transposing a diagram negates every content, so p_e picks up (-1)^e."""
    rep = data.draw(st.sampled_from(partitions(n)))
    assert content_sum(conjugate(rep), power) == (-1) ** power * content_sum(rep, power)


def test_content_sum_powers():
    assert [content_sum((3, 1), e) for e in range(4)] == [4, 2, 6, 8]
    assert (content_sum((1,), 0), content_sum((1,))) == (1, 0)


def test_kstar_growth_report_shape():
    rows = k_star_growth_report(8)
    assert [r["n"] for r in rows] == list(range(2, 9))
    assert all(set(r) >= {"n", "k_star", "heuristic"} for r in rows)


def test_structure_constants_t2_squared_s3():
    matrix = structure_constants(3, (2, 1))
    labels = partitions(3)
    col = labels.index((2, 1))
    by_label = {lam: matrix[i][col] for i, lam in enumerate(labels)}
    assert by_label == {(3,): 3, (2, 1): 0, (1, 1, 1): 3}


def test_structure_constant_spectrum_n4():
    matrix = np.array(structure_constants(4, (2, 1, 1)), dtype=float)
    eigs = sorted(np.linalg.eigvals(matrix).real)
    assert np.allclose(eigs, [-6, -2, 0, 2, 6], atol=1e-9)


def test_structure_constant_spectrum_matches_characters():
    """Eigenvalues of multiplication by T_mu are the normalized characters."""
    for n in range(2, 7):
        for mu in [(2,) + (1,) * (n - 2), (n,)]:
            matrix = np.array(structure_constants(n, mu), dtype=float)
            eigs = sorted(np.linalg.eigvals(matrix).real)
            expected = sorted(
                class_size(mu) * _chi_frac(rep, mu) for rep in partitions(n)
            )
            assert np.allclose(eigs, [float(x) for x in expected], atol=1e-8)


def _chi_frac(rep, mu):
    from projdetect.symgroup import character

    return Fraction(character(rep, mu), dimension(rep))


def test_class_sum_acts_by_normalized_character():
    """T_k P_R = chi_hat P_R in the literal group algebra, n <= 5."""
    from projdetect.groupalgebra import cycle_class_sum, projector_element

    for n in (3, 4, 5):
        for rep in partitions(n):
            for k in range(2, n + 1):
                left = cycle_class_sum(n, k) * projector_element(rep)
                expected = normalized_character(rep, k) * projector_element(rep)
                assert left == expected


def test_projector_coefficients_trivial_rep():
    from projdetect.groupalgebra import projector_element

    p = projector_element((3,))
    assert p.support_size() == 6
    assert all(v == Fraction(1, 6) for v in p.data.values())


def test_projector_g_orthogonality():
    for n in (3, 4, 5, 6):
        reps = partitions(n)
        for r in reps:
            for s in reps:
                inner = projector_state(r).g_inner(projector_state(s))
                if r == s:
                    assert inner == Fraction(dimension(r) ** 2, factorial(n))
                else:
                    assert inner == 0


def test_centre_state_roundtrip_class_sums():
    """Every class sum of n <= 7 through both products, refereed entry by entry."""
    state = CentreState.from_class_sums(4, {(2, 1, 1): Fraction(1)})
    for rep, a in state.coeffs.items():
        assert a == normalized_character(rep, 2)
    for n in range(1, 8):
        nf = factorial(n)
        for mu in partitions(n):
            state = CentreState.from_class_sums(n, {mu: Fraction(1)})
            expected = {
                rep: Fraction(class_size(mu) * character(rep, mu), dimension(rep))
                for rep in partitions(n)
            }
            assert state.coeffs == {rep: a for rep, a in expected.items() if a}
            assert list(state.coeffs) == list(CentreState(n, state.coeffs).coeffs)
            norm = abs(state.g_norm_sq()) ** 0.5
            checked = CentreState(n, {rep: a / norm for rep, a in state.coeffs.items()})
            assert state.normalized().coeffs == checked.coeffs
            back = state.class_sum_coefficients()
            assert back == {
                nu: sum(a * dimension(rep) * character(rep, nu) for rep, a in expected.items()) / nf
                for nu in partitions(n)
            }
            assert back == {nu: int(nu == mu) for nu in partitions(n)}
    with pytest.raises(ValueError, match="!= 4"):
        CentreState.from_class_sums(4, {(2, 1): 1})


def test_support_is_the_canonical_order():
    """support() lists the nonzero labels as the scan of partitions(n) did, whatever the dict order."""
    n = 8
    labels = list(partitions(n))
    weights = {rep: i % 3 for i, rep in enumerate(labels)}
    shuffled = list(weights.items())
    np.random.default_rng(8).shuffle(shuffled)
    state = CentreState(n, dict(shuffled))
    assert list(state.coeffs) != [rep for rep in labels if weights[rep]]
    assert state.support() == [rep for rep in labels if state.coeffs.get(rep)]


def test_unit_amplitudes_plancherel():
    """The identity element spreads by Plancherel weight d_R^2/n!."""
    n = 5
    state = CentreState(n, {rep: Fraction(1) for rep in partitions(n)})
    amps = state.unit_amplitudes()
    weights = np.array([dimension(rep) ** 2 / factorial(n) for rep in partitions(n)])
    assert np.allclose(np.abs(amps) ** 2, weights, atol=1e-12)


def test_signature_table_csv_header():
    first = signature_table_csv(4).splitlines()[0].rstrip()
    assert first == "partition,T_2"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_signature_prefix_property(n, data):
    rep = data.draw(st.sampled_from(partitions(n)))
    upto = data.draw(st.integers(min_value=2, max_value=n))
    sig = signature(rep, upto)
    assert len(sig) == upto - 1
    assert sig == tuple(normalized_character(rep, k) for k in range(2, upto + 1))
