"""Kronecker and restriction coefficients, their algebras, and detection."""

from fractions import Fraction
from itertools import product
from math import comb, factorial

import numpy as np
import pytest

from projdetect import kron_lr, symgroup
from projdetect.groupalgebra import delta
from projdetect.kron_lr import (
    LrState,
    TripleState,
    dim_A,
    dim_K,
    identity_lr_state,
    identity_pair_state,
    kron_detect,
    kron_labels,
    kron_projector_brute,
    kronecker,
    lr_coefficient,
    lr_coefficient_by_rule,
    lr_detect,
    lr_labels,
    lr_projector_brute,
    lr_projector_state,
    necklace_count,
    pair_projector_state,
    ribbon_count,
)
from projdetect.symgroup import conjugate, dimension, partitions


def test_kronecker_symmetry_and_values():
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker((3,), (3,), (2, 1)) == 0
    assert kronecker((2, 1), (2, 1), (3,)) == 1
    for a in partitions(4):
        for b in partitions(4):
            for c in partitions(4):
                v = kronecker(a, b, c)
                assert v == kronecker(b, a, c) == kronecker(c, b, a)
                assert v >= 0


def test_kron_table_holds_every_nonzero_coefficient():
    for n in range(9):
        table = kron_labels(n)
        coeffs = {t: kronecker(*t) for t in product(partitions(n), repeat=3)}
        assert all(table.get(t, 0) == v for t, v in coeffs.items())
        assert tuple(table) == tuple(t for t, v in coeffs.items() if v)
    assert tuple(kron_labels(2)) == (
        ((2,), (2,), (2,)),
        ((2,), (1, 1), (1, 1)),
        ((1, 1), (2,), (1, 1)),
        ((1, 1), (1, 1), (2,)),
    )


def test_lr_table_holds_every_nonzero_coefficient():
    for total in range(11):
        for m in range(total + 1):
            n = total - m
            table = lr_labels(m, n)
            triples = product(partitions(total), partitions(m), partitions(n))
            coeffs = {t: lr_coefficient(*t) for t in triples}
            assert all(table.get(t, 0) == v for t, v in coeffs.items())
            assert tuple(table) == tuple(t for t, v in coeffs.items() if v)
    assert tuple(lr_labels(1, 1)) == (((2,), (1,), (1,)), ((1, 1), (1,), (1,)))


def test_coefficient_tables_are_read_only():
    with pytest.raises(TypeError):
        kron_labels(3)[((3,), (3,), (2, 1))] = 1
    with pytest.raises(TypeError):
        lr_labels(2, 1)[((1, 1, 1), (2,), (1,))] = 1


def test_norms_refuse_mismatched_sizes():
    with pytest.raises(ValueError, match="zero Kronecker"):
        pair_projector_state((2, 1), (2,), (2, 1))
    with pytest.raises(ValueError, match="zero Kronecker"):
        pair_projector_state((2, 1), (2, 1), (4,))
    with pytest.raises(ValueError, match="zero restriction"):
        lr_projector_state((3, 1), (2,), (1,))


def counted(monkeypatch, name: str) -> list:
    """Record the arguments of every later call to kron_lr.<name>, one entry per call."""
    calls = []
    original = getattr(kron_lr, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kron_lr, name, wrapper)
    return calls


def test_each_coefficient_computed_once_per_size(monkeypatch):
    """The tables are contracted, not summed per triple, and built once per size."""
    kron_calls = counted(monkeypatch, "kronecker")
    lr_calls = counted(monkeypatch, "lr_coefficient")
    kron_labels.cache_clear()
    lr_labels.cache_clear()
    identity_pair_state(7).unit_amplitudes()
    identity_lr_state(5, 5).unit_amplitudes()
    assert kron_calls == lr_calls == []
    assert kron_labels.cache_info().misses == 1
    assert lr_labels.cache_info().misses == 1


def test_lr_labels_builds_one_character_table_per_size(monkeypatch):
    """m == n and m == 0 share a character table instead of building it twice."""
    built = []
    init = symgroup.CharacterTable.__init__

    def counting(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(symgroup.CharacterTable, "__init__", counting)
    for (m, n), sizes in {(3, 3): [3, 6], (0, 5): [0, 5]}.items():
        lr_labels.cache_clear()
        built.clear()
        lr_labels(m, n)
        assert sorted(built) == sizes
    lr_labels.cache_clear()


def test_tables_past_the_loop_obey_sum_rules_and_symmetries():
    """Where the per-triple loop is too slow to referee every entry."""
    for n in (9, 10):
        table = kron_labels(n)
        parts = partitions(n)
        for a in parts:
            for b in parts:
                assert sum(table.get((a, b, c), 0) * dimension(c) for c in parts) == (
                    dimension(a) * dimension(b)
                )
        for (a, b, c), v in table.items():
            assert table.get((b, a, c)) == table.get((c, b, a)) == table.get((a, c, b)) == v
            assert table.get((conjugate(a), conjugate(b), c)) == v
    for total in range(11, 15):
        for m in range(total + 1):
            n = total - m
            table, swapped = lr_labels(m, n), lr_labels(n, m)
            for r1 in partitions(m):
                for r2 in partitions(n):
                    induced = sum(
                        table.get((rep, r1, r2), 0) * dimension(rep)
                        for rep in partitions(total)
                    )
                    assert induced == comb(total, m) * dimension(r1) * dimension(r2)
            for (rep, r1, r2), v in table.items():
                assert swapped.get((rep, r2, r1)) == v
                assert table.get((conjugate(rep), conjugate(r1), conjugate(r2))) == v
    for label in [
        ((4, 3, 2, 1), (3, 2, 1), (2, 1, 1)),
        ((4, 3, 2, 1, 1, 1), (3, 2, 1), (3, 2, 1)),
        ((6, 4, 2, 1), (4, 2, 1), (3, 2, 1)),
        ((5, 3, 3, 2, 1), (4, 2, 1, 1), (3, 2, 1)),
        ((5, 4, 3, 2), (4, 2, 1), (3, 2, 1, 1)),
    ]:
        rep, r1, r2 = label
        assert lr_labels(sum(r1), sum(r2))[label] == lr_coefficient_by_rule(*label) > 1


def test_tables_refuse_inexact_characters(monkeypatch):
    """A single wrong character value breaks divisibility, and both builders raise."""
    original = symgroup.character_matrix

    def broken(n):
        x = original(n).copy()
        if n == 4:
            index = symgroup.partition_index(4)
            x[index[(4,)], index[(1, 1, 1, 1)]] += 1
        return x

    monkeypatch.setattr(symgroup, "character_matrix", broken)
    kron_labels.cache_clear()
    lr_labels.cache_clear()
    with pytest.raises(ArithmeticError):
        kron_labels(4)
    with pytest.raises(ArithmeticError):
        lr_labels(2, 2)
    kron_labels.cache_clear()
    lr_labels.cache_clear()


def test_ptilde_idempotent_n3():
    for label in kron_labels(3):
        p = kron_projector_brute(*label)
        assert p * p == p


def test_dim_K_equals_ribbon_count():
    for n in range(1, 9):
        assert dim_K(n) == ribbon_count(n)
    assert ribbon_count(3) == 11
    assert ribbon_count(4) == 43


def test_lr_examples():
    assert lr_coefficient((3, 1), (2,), (2,)) == 1
    assert lr_coefficient((2, 2), (2,), (2,)) == 1
    assert lr_coefficient((1, 1, 1, 1), (2,), (2,)) == 0
    assert lr_coefficient((4, 2, 1), (3, 1), (2, 1)) == 2


def test_dim_A_equals_necklace_count():
    for total in range(2, 9):
        for m in range(1, total):
            assert dim_A(m, total - m) == necklace_count(m, total - m)
    assert dim_A(2, 2) == 10
    assert dim_A(3, 2) == 18


def test_induced_dimension_identity():
    """sum_R g d_R = d1 d2 binom(m+n, n), the induced representation size."""
    for total in range(2, 8):
        for m in range(1, total):
            n = total - m
            for r1 in partitions(m):
                for r2 in partitions(n):
                    acc = sum(
                        lr_coefficient(rep, r1, r2) * dimension(rep)
                        for rep in partitions(total)
                    )
                    assert acc == dimension(r1) * dimension(r2) * comb(total, n)


def test_lr_brute_element_norm():
    for label in lr_labels(2, 2):
        element = lr_projector_brute(*label)
        rep, r1, r2 = label
        expected = Fraction(
            dimension(rep) * dimension(r1) * dimension(r2) * lr_coefficient(*label),
            factorial(4),
        )
        assert delta(element) == expected
        assert element * element == element


def test_triple_state_rejects_zero_coefficient_label():
    """The public constructors check a caller's labels: coefficient and diagrams."""
    with pytest.raises(ValueError, match="zero Kronecker"):
        TripleState(3, {((3,), (3,), (2, 1)): 1})
    with pytest.raises(ValueError, match="zero restriction"):
        LrState(2, 1, {((1, 1, 1), (2,), (1,)): 1})
    with pytest.raises(ValueError, match="weakly decreasing"):
        TripleState(3, {((1, 2), (3,), (1, 2)): 1})
    with pytest.raises(ValueError, match="positive"):
        LrState(2, 1, {((3, 0), (2,), (1,)): 1})
    with pytest.raises(ValueError, match="integers"):
        TripleState(3, {((2.5, 0.5), (2, 1), (2, 1)): 1})


def test_kron_detect_roundtrip():
    for n in range(2, 6):
        for label in kron_labels(n):
            transcript = kron_detect(pair_projector_state(*label), seed=0)
            assert transcript.detected == label


def test_lr_detect_roundtrip():
    for total in range(2, 7):
        for m in range(1, total):
            for label in lr_labels(m, total - m):
                transcript = lr_detect(lr_projector_state(*label), seed=0)
                assert transcript.detected == label


def test_lr_detect_skips_trivial_families():
    transcript = lr_detect(lr_projector_state((3, 1), (3,), (1,)), seed=0)
    by_name = {f["family"]: f for f in transcript.families}
    assert by_name["right"].get("skipped") is True
    assert by_name["right"]["rounds"] == []
    assert transcript.detected == ((3, 1), (3,), (1,))


def test_identity_pair_state_weights():
    n = 3
    state = identity_pair_state(n)
    total = sum(
        Fraction(
            dimension(a) * dimension(b) * dimension(c) * kronecker(a, b, c),
            factorial(n) ** 2,
        )
        for a, b, c in kron_labels(n)
    )
    assert total == 1
    assert state.g_inner(state) == 1


def test_identity_expansion_sampling():
    for seed in range(12):
        detected = kron_detect(identity_pair_state(2), seed=seed).detected
        assert detected in set(kron_labels(2))
    seen = set()
    for seed in range(400):
        seen.add(kron_detect(identity_pair_state(3), seed=seed).detected)
    assert seen == set(kron_labels(3))


def test_identity_lr_state_total_weight():
    state = identity_lr_state(2, 2)
    assert state.g_inner(state) == 1


def test_state_norms_read_the_table_without_revalidating(monkeypatch):
    """A state's norm_sq is d1 d2 d3 g / (n!)^2 (or / (m+n)!) and runs no as_partition."""
    states = [identity_pair_state(n) for n in (4, 5)] + [identity_lr_state(m, n) for m, n in ((2, 3), (3, 3))]
    coefficient = {TripleState: kronecker, LrState: lr_coefficient}
    expected = [
        [
            Fraction(
                dimension(a) * dimension(b) * dimension(c) * coefficient[type(state)](a, b, c),
                factorial(state.n) ** 2 if type(state) is TripleState else factorial(state.m + state.n),
            )
            for a, b, c in state.labels
        ]
        for state in states
    ]

    def refuse(parts):
        raise AssertionError("a canonical label was validated again")

    monkeypatch.setattr(kron_lr, "as_partition", refuse)
    for state, norms in zip(states, expected):
        assert [state.norm_sq(label) for label in state.labels] == norms
        assert state.g_norm_sq() == 1


def is_canonical_triple(label) -> bool:
    return type(label) is tuple and all(
        type(p) is tuple and all(type(x) is int for x in p) for p in label
    )


def test_library_built_states_match_the_validating_constructor():
    """The identity states and normalized() store what the checking constructor
    would: the same coefficients, under canonical triples of ints."""
    states = [identity_pair_state(n) for n in range(7)] + [
        identity_lr_state(m, total - m) for total in range(9) for m in range(total + 1)
    ]
    for state in states:
        kind = type(state)
        assert state.coeffs == kind(*state.sizes, dict.fromkeys(state.labels, 1)).coeffs
        first = next(iter(state.labels))
        projector = (pair_projector_state if kind is TripleState else lr_projector_state)(*first)
        for unnormalized in (state, projector):
            norm = abs(unnormalized.g_norm_sq()) ** 0.5
            checked = kind(*state.sizes, {k: v / norm for k, v in unnormalized.coeffs.items()})
            built = unnormalized.normalized()
            assert type(built) is kind and built.sizes == state.sizes
            assert built.coeffs == checked.coeffs
            assert list(built.coeffs) == list(checked.coeffs)
            assert all(is_canonical_triple(label) for label in built.coeffs)
        assert all(is_canonical_triple(label) for label in state.coeffs)


def test_amplitude_scales_match_the_fraction_route():
    """sqrt(d1 d2 d3 g / denominator) by int true division equals float(norm_sq) ** 0.5
    bit for bit, so unit_amplitudes() is byte-equal to the Fraction route."""
    states = [identity_pair_state(n) for n in range(1, 8)] + [
        identity_lr_state(m, total - m) for total in range(1, 11) for m in range(total + 1)
    ]
    for state in states:
        labels = state.support()
        scales = [float(state.norm_sq(label)) ** 0.5 for label in labels]
        assert [state.amplitude_scale(label) for label in labels] == scales
        amps = np.array([complex(state.coeffs[label]) * s for label, s in zip(labels, scales)])
        assert state.unit_amplitudes().tobytes() == (amps / np.linalg.norm(amps)).tobytes()


def test_support_is_the_table_order():
    """support() lists the nonzero labels in the order of a scan of the whole table."""
    states = [identity_pair_state(n) for n in range(1, 7)] + [
        identity_lr_state(m, total - m) for total in range(1, 9) for m in range(total + 1)
    ]
    for state in states:
        assert state.support() == [label for label in state.labels if state.coeffs.get(label)]


def test_transcript_json_shape():
    blob = kron_detect(pair_projector_state((2, 1), (2, 1), (3,)), seed=2).to_json()
    import json

    data = json.loads(blob)
    assert data["schema"] == "1"
    assert data["detected"] == ["2,1", "2,1", "3"]
    assert data["sizes"] == [3, 3, 3]
    assert {f["family"] for f in data["families"]} == {"left", "right", "diag"}
