"""Sampling-based eigenvalue estimation and its query accounting."""

from fractions import Fraction
from itertools import permutations as iter_permutations
from math import ceil, factorial, log

import numpy as np
import pytest

from projdetect.centre import cycle_class_size, k_star, normalized_character
from projdetect.classical import (
    CycleClassRowOracle,
    ProjectorColumnOracle,
    VectorOracle,
    classical_complexity_report,
    classical_detect,
    deterministic_queries,
    dmax_bounds,
    epsilon_star,
    epsilon_star_sq,
    estimate_eigenvalue,
    l2_inner_product,
    preg_entry,
    q_star,
    resolving_epsilon_sq,
    sample_budget,
    tk_row_entry,
)
from projdetect.groupalgebra import identity_perm
from projdetect.symgroup import dimension, partitions


def test_preg_entry_is_regular_representation():
    """Matrix entries of P_R in the regular representation, spot values."""
    n = 3
    e = identity_perm(n)
    assert preg_entry((3,), e, e) == Fraction(1, 6)
    assert preg_entry((2, 1), e, e) == Fraction(2 * 2, 6)
    swap = (1, 0, 2)
    assert preg_entry((3,), swap, e) == Fraction(1, 6)
    assert preg_entry((1, 1, 1), swap, e) == Fraction(-1, 6)


def test_projector_column_norm_lemma():
    """Column norm squared is d^2/n! for every column, n <= 5."""
    for n in (3, 4, 5):
        mus = [identity_perm(n), (1, 0) + tuple(range(2, n))]
        for rep in partitions(n):
            for mu in mus:
                acc = sum(
                    preg_entry(rep, gamma, mu) ** 2
                    for gamma in iter_permutations(range(n))
                )
                assert acc == Fraction(dimension(rep) ** 2, factorial(n))


def test_tk_row_norm_lemma():
    """Row norm squared of T_k's regular matrix is the class size."""
    for n in (3, 4, 5):
        sigmas = [identity_perm(n), (1, 0) + tuple(range(2, n))]
        for k in range(2, n + 1):
            for sigma in sigmas:
                acc = sum(
                    tk_row_entry(sigma, tau, k) ** 2
                    for tau in iter_permutations(range(n))
                )
                assert acc == cycle_class_size(n, k)


def test_oracle_norms_and_counters():
    x = ProjectorColumnOracle((3, 2, 1))
    assert x.norm_sq() == Fraction(16 * 16, 720)
    assert x.queries == 1
    y = CycleClassRowOracle(6, 2)
    assert y.norm_sq() == 15
    probs = x.class_probabilities()
    assert sum(probs.values()) == 1


def test_sample_budget_contract():
    r, s = sample_budget(epsilon_sq=Fraction(1, 4), delta=0.05)
    assert r == 6 * ceil(log(1 / 0.05))
    assert r == 18
    assert s == ceil(9 / 0.25)


def test_inner_product_exact_cases():
    """Self inner product has a constant estimator; disjoint support gives 0."""
    x = VectorOracle([3.0, 4.0])
    est = l2_inner_product(x, x, epsilon_sq=Fraction(1, 4), seed=1)
    assert est.value == pytest.approx(25.0, abs=1e-12)
    y = VectorOracle([0.0, 0.0, 5.0])
    x3 = VectorOracle([2.0, 1.0, 0.0])
    est0 = l2_inner_product(x3, y, epsilon_sq=Fraction(1, 4), seed=2)
    assert est0.value == 0
    assert est0.queries == 2 * est0.means * est0.samples_per_mean + 2


def test_inner_product_concentration_64dim():
    """Failure rate stays under delta across 1000 seeded trials."""
    rng = np.random.default_rng(99)
    xv = rng.normal(size=64)
    yv = rng.normal(size=64)
    truth = float(xv @ yv)
    eps, delta = 0.25, 0.05
    bound = eps * np.linalg.norm(xv) * np.linalg.norm(yv)
    failures = 0
    for seed in range(1000):
        est = l2_inner_product(
            VectorOracle(xv),
            VectorOracle(yv),
            epsilon_sq=Fraction(1, 16),
            delta=delta,
            seed=seed,
        )
        if abs(est.value - truth) > bound:
            failures += 1
    assert failures <= 50


def test_estimate_eigenvalue_resolving_scale():
    """At the resolving scale the rounded estimate is exact for every (R, k)."""
    n = 6
    for rep in partitions(n):
        for k in range(2, k_star(n) + 1):
            est = estimate_eigenvalue(rep, k, seed=3)
            assert est.value == normalized_character(rep, k)
            assert not est.flagged
            r, s = sample_budget(delta=0.05, epsilon_sq=resolving_epsilon_sq(rep, k))
            assert est.sample.queries == 2 * r * s + 2


def test_estimate_eigenvalue_at_epsilon_star_frozen_run():
    """The wide-diagram run at the loose scale, frozen: silently lands on 0."""
    est = estimate_eigenvalue((6,), 2, seed=0, epsilon_sq=epsilon_star_sq((6,), 2))
    assert est.value == 0
    assert est.flagged is False
    assert est.sample.queries == 38
    assert est.epsilon_star == pytest.approx(epsilon_star((6,), 2))


def test_estimate_eigenvalue_sizes_samples_exactly():
    """s = ceil(9/eps*^2) exactly: at (3,2,1), eps*^2 is 3/16 (k = 2) and
    9/128 (k = 3), so s = 48 and 128, and queries = 2 * 18 * s + 2."""
    queries = {
        k: estimate_eigenvalue(
            (3, 2, 1), k, epsilon_sq=epsilon_star_sq((3, 2, 1), k)
        ).sample.queries
        for k in (2, 3)
    }
    assert queries == {2: 1730, 3: 4610}


def test_epsilon_star_values():
    assert epsilon_star_sq((6,), 2) == Fraction(2 * 24, 1)
    assert epsilon_star_sq((3, 2, 1), 2) == Fraction(2 * 24, 16 * 16)
    assert epsilon_star((6,), 2) == pytest.approx((48.0) ** 0.5)


def test_q_star_values():
    assert q_star((6,), 2) == Fraction(36, 2 * 720)
    assert q_star((3, 2, 1), 2) == Fraction(36 * 256, 2 * 720)


def test_zero_character_class_never_sampled():
    """Classes where chi vanishes get probability 0, so Z is never evaluated there."""
    x = ProjectorColumnOracle((2, 2))
    probs = x.class_probabilities()
    from projdetect.symgroup import character

    for mu, p in probs.items():
        if character((2, 2), mu) == 0:
            assert p == 0


def test_classical_detect_roundtrip():
    for n in (4, 5, 6):
        for rep in partitions(n):
            transcript = classical_detect(rep, seed=1)
            assert transcript.detected == rep
            assert transcript.queries == sum(row["queries"] for row in transcript.per_k)


def test_classical_detect_transcript_shape():
    t = classical_detect((3, 3), seed=2)
    data = t.to_dict()
    assert data["schema"] == "1"
    assert data["true_label"] == "3,3"
    assert data["k_star"] == 3
    assert len(data["per_k"]) == 2


def test_sample_counts_past_int64_are_refused():
    """s >= 2^63 is refused before any draw: (17,) passes k = 2, then k = 3 needs
    36 17! |T_3| samples per mean; n = 16 keeps its transcripts."""
    x, y = ProjectorColumnOracle((17,)), CycleClassRowOracle(17, 3)
    with pytest.raises(ValueError, match=r"^17414456479580160000 samples .* 2\^63"):
        l2_inner_product(x, y, resolving_epsilon_sq((17,), 3))
    assert x.queries == y.queries == 0
    with pytest.raises(ValueError, match="2\\^63"):
        classical_detect((17,))
    one_row = classical_detect((16,)).to_dict()
    assert [row["queries"] for row in one_row["per_k"]] == [
        3253912283381760002,
        30369847978229760002,
        296106017787740160002,
    ]
    assert one_row["signature"] == [120, 1120, 10920] and one_row["detected"] == "16"
    square = classical_detect((4, 4, 4, 4), seed=3).to_dict()
    assert [row["queries"] for row in square["per_k"]] == [5637871910, 52620137642, 513046341830]
    assert square["signature"] == [0, -80, 0] and square["detected"] == "4,4,4,4"


def test_deterministic_queries_bound():
    """Q*_2 for the widest diagram obeys the closed-form n^2-ish bound."""
    for n in (6, 7, 8):
        rep = max(partitions(n), key=dimension)
        q = deterministic_queries(rep, 2)
        assert q == classical_detect(rep, seed=0).per_k[0]["queries"]
    n = 6
    rep = (6,)
    r, s = sample_budget(delta=0.05, epsilon_sq=resolving_epsilon_sq(rep, 2))
    assert 2 * r * s + 2 == deterministic_queries(rep, 2)


def test_reported_queries_are_the_oracle_counts():
    """l2_inner_product reports what its oracles counted, which is the closed form."""
    rep = (3, 2, 1)
    for k in (2, 3):
        x, y = ProjectorColumnOracle(rep), CycleClassRowOracle(6, k)
        est = l2_inner_product(x, y, resolving_epsilon_sq(rep, k), seed=k)
        assert est.queries == x.queries + y.queries
        r, s = est.means, est.samples_per_mean
        assert est.queries == deterministic_queries(rep, k) == 2 * r * s + 2


def test_frozen_complexity_totals():
    rows = classical_complexity_report([6, 7, 8])
    totals = {row["n"]: row["queries"] for row in rows}
    assert totals == {6: 200488, 7: 111998, 8: 903208}
    ratios = [row["ratio"] for row in rows]
    assert ratios[0] < ratios[1] < ratios[2]
    for row in rows:
        assert row["queries"] > row["quantum_queries"]


def test_dmax_bounds():
    for n in (3, 4, 6):
        lower, upper, actual = dmax_bounds(n)
        assert lower <= actual <= upper
    assert dmax_bounds(6)[2] == 16
    with pytest.raises(ValueError):
        dmax_bounds(2)


def test_charge_accounting():
    x = ProjectorColumnOracle((3, 1))
    x.norm_sq()
    before = x.queries
    rng = np.random.default_rng(0)
    x.sample_counts(10, rng)
    assert x.queries == before + 10
