"""Phase estimation: the statevector circuit, its schedule, and the analytic route it referees."""

import itertools
import tracemalloc
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdetect import qpe
from projdetect.qpe import (
    DiagonalUnitary,
    GateCounters,
    QpeState,
    hadamard_layer,
    inverse_qft,
    measure_register,
    offgrid_amplitude,
    phase_decode,
    phase_encode,
    phase_tail_bound,
    qft,
    qpe_outcomes,
    qpe_run,
    qpe_schedule,
    sample_outcome,
    schedule_counters,
)


def dense_dft_matrix(t: int) -> np.ndarray:
    size = 1 << t
    om = np.exp(2j * np.pi / size)
    return np.array(
        [[om ** (j * k) for k in range(size)] for j in range(size)]
    ) / sqrt(size)


def test_qft_matches_dense_dft():
    for t in range(1, 7):
        size = 1 << t
        dft = dense_dft_matrix(t)
        for col in range(size):
            state = QpeState(t, [1.0])
            state.amps[:, 0] = 0
            state.amps[col, 0] = 1.0
            qft(state)
            assert np.max(np.abs(state.amps[:, 0] - dft[:, col])) < 1e-13


def test_inverse_qft_inverts():
    rng = np.random.default_rng(3)
    for t, dim in itertools.product((1, 3, 5), (1, 3)):
        shape = (1 << t, dim)
        vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        vec /= np.linalg.norm(vec)
        state = QpeState(t, np.full(dim, dim**-0.5))
        state.amps[:] = vec
        inverse_qft(qft(state))
        assert np.max(np.abs(state.amps - vec)) < 1e-12


def test_counter_closed_forms():
    """One run costs t queries and 2t + t(t-1)/2 counted gates, and walking
    qpe_schedule(t) reads the same counters the statevector run increments.
    qpe_outcomes reports that walk, as a fresh object on every call."""
    for t in range(1, 11):
        unitary = DiagonalUnitary((Fraction(1, 4),))
        _, counters, _ = qpe_run(unitary, [1.0], t)
        assert counters.cu_queries == t
        assert counters.hadamards == 2 * t
        assert counters.controlled_rk == t * (t - 1) // 2
        assert counters.total_gates == 2 * t + t * (t - 1) // 2
        assert schedule_counters(qpe_schedule(t)) == counters
    for t in range(1, 41):
        first = qpe_outcomes([1], [1.0], t).counters
        assert first == schedule_counters(qpe_schedule(t))
        first.hadamards += 1
        first.cu_queries = 0
        assert qpe_outcomes([1], [1.0], t).counters == schedule_counters(qpe_schedule(t))


def test_qpe_run_calls_its_segments_by_name(monkeypatch):
    """qpe_run looks hadamard_layer, controlled_power_u and inverse_qft up in
    the module, so a wrapper installed there sees every call, in schedule order."""
    calls = []
    for name in ("hadamard_layer", "controlled_power_u", "inverse_qft"):
        original = getattr(qpe, name)
        monkeypatch.setattr(
            qpe, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    t = 5
    qpe_run(DiagonalUnitary((Fraction(3, 1 << t),)), [1.0], t)
    assert calls == ["hadamard_layer"] + ["controlled_power_u"] * t + ["inverse_qft"]


def test_on_grid_phase_is_read_exactly():
    t = 6
    for value in (0, 1, 17, 63):
        unitary = DiagonalUnitary((Fraction(value, 1 << t),))
        dist, _, _ = qpe_run(unitary, [1.0], t)
        assert dist[value] > 1.0 - 1e-12
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        wrong = dist.sum() - dist[value]
        assert wrong < 1e-12


def test_on_grid_phase_exact_at_long_register():
    """The 2^j-th power's angle is reduced mod 1 before it is formed, so no
    large multiple of a phase leaks amplitude off the target value."""
    t = 17
    for m in ((1 << t) - 1, (1 << t) // 3, 12345):
        dist, _, state = qpe_run(DiagonalUnitary((Fraction(m, 1 << t),)), [1.0], t)
        off_target = np.delete(np.abs(state.amps[:, 0]), m)
        assert off_target.max() < 1e-13
        assert 1.0 - dist[m] < 1e-13


def test_multi_column_run_matches_closed_form():
    """Referee for D > 1: each system column carries its own phase's kernel."""
    sys = np.array([0.6, 0.48j, -0.36 + 0.48j])
    sys /= np.linalg.norm(sys)
    for t in range(1, 9):
        phases = (1 / 3, (5 / (1 << t)) % 1.0, 0.7071)
        _, _, state = qpe_run(DiagonalUnitary(phases), sys, t)
        expected = np.array(
            [
                [sys[s] * offgrid_amplitude(phases[s], m, t) for s in range(3)]
                for m in range(1 << t)
            ]
        )
        assert np.max(np.abs(state.amps - expected)) < 1e-12


def test_eigenvalue_encode_decode_roundtrip():
    chi = 15
    t = 5
    for e in range(-chi, chi + 1):
        phase = phase_encode(e, chi, t)
        m = int(phase * (1 << t))
        assert phase_decode(m, t) == e
    with pytest.raises(ValueError, match="exceeds"):
        phase_encode(16, 15, 5)
    with pytest.raises(ValueError, match="too small"):
        phase_encode(3, 15, 4)


def test_superposition_splits_by_weight():
    t = 4
    unitary = DiagonalUnitary((Fraction(1, 16), Fraction(5, 16)))
    amp = np.array([0.6, 0.8])
    dist, _, state = qpe_run(unitary, amp, t)
    assert dist[1] == pytest.approx(0.36, abs=1e-12)
    assert dist[5] == pytest.approx(0.64, abs=1e-12)
    rng = np.random.default_rng(0)
    m, post = measure_register(state, rng)
    assert m in (1, 5)
    expected = np.array([1.0, 0.0]) if m == 1 else np.array([0.0, 1.0])
    assert np.allclose(np.abs(post), expected, atol=1e-12)


def test_offgrid_amplitude_matches_simulator():
    t = 5
    zeta = 1 / 3
    unitary = DiagonalUnitary((zeta,))
    dist, _, _ = qpe_run(unitary, [1.0], t)
    for m in range(1 << t):
        assert abs(offgrid_amplitude(zeta, m, t)) ** 2 == pytest.approx(
            dist[m], abs=1e-12
        )


def test_phase_tail_bound_values():
    assert phase_tail_bound(6, 2) == Fraction(1, 28)
    assert phase_tail_bound(8, 3) == Fraction(1, 60)
    with pytest.raises(ValueError):
        phase_tail_bound(3, 3)


def test_empirical_tail_under_bound_single_case():
    """Spot check of the tail bound; the acceptance suite sweeps the grid."""
    t, p = 6, 2
    zeta = sqrt(2) - 1
    size = 1 << t
    e = (1 << (t - p)) - 1
    dist, _, _ = qpe_run(DiagonalUnitary((zeta,)), [1.0], t)
    rng = np.random.default_rng(11)
    shots = rng.choice(size, size=10**5, p=dist / dist.sum())
    b = int(zeta * size)
    err = np.minimum((shots - b) % size, (b - shots) % size)
    fail = float(np.mean(err > e))
    assert fail < float(phase_tail_bound(t, p))


def test_hadamard_layer_uniform():
    state = QpeState(3, [1.0])
    hadamard_layer(state)
    assert np.allclose(np.abs(state.amps[:, 0]), 1 / sqrt(8), atol=1e-14)


def test_norm_guard_rejects_bad_state():
    with pytest.raises(ValueError, match="norm"):
        QpeState(2, [0.5, 0.5])


def test_statevector_preflight_refuses_before_allocating():
    # 2^40 amplitudes would be 16 TiB; the bound is checked before np.zeros
    with pytest.raises(ValueError, match="qpe_outcomes"):
        QpeState(40, [1.0])


@st.composite
def grid_rounds(draw):
    t = draw(st.integers(min_value=1, max_value=8))
    dim = draw(st.integers(min_value=1, max_value=6))
    values = draw(st.lists(st.integers(0, (1 << t) - 1), min_size=dim, max_size=dim))
    part = st.floats(min_value=-1, max_value=1, allow_nan=False)
    pairs = draw(
        st.lists(st.tuples(part, part), min_size=dim, max_size=dim).filter(
            lambda ps: sum(re * re + im * im for re, im in ps) > 1e-6
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    amps = np.array([complex(re, im) for re, im in pairs])
    return t, values, amps / np.linalg.norm(amps), seed


@settings(derandomize=True, deadline=None)
@given(grid_rounds())
def test_point_masses_match_dense_register(case):
    """The statevector referee runs the phases values/2^t of the same integers."""
    t, values, amps, seed = case
    unitary = DiagonalUnitary(tuple(Fraction(v, 1 << t) for v in values))
    dist, executed, state = qpe_run(unitary, amps, t)
    outcomes = qpe_outcomes(values, amps, t)
    assert outcomes.values == tuple(sorted(set(values)))
    for value, mass in zip(outcomes.values, outcomes.masses):
        assert abs(dist[value] - mass) < 1e-12
    assert np.delete(dist, outcomes.values).max(initial=0.0) < 1e-12
    assert outcomes.counters == executed
    m_dense, post_dense = measure_register(state, np.random.default_rng(seed))
    m, post = sample_outcome(outcomes, np.random.default_rng(seed))
    assert m == m_dense
    assert np.max(np.abs(post - post_dense)) < 1e-12


def test_qpe_outcomes_refuses_bad_input():
    with pytest.raises(ValueError, match="integers"):
        qpe_outcomes([0.5], [1.0], 5)
    with pytest.raises(ValueError, match="integers"):
        qpe_outcomes([Fraction(1, 2)], [1.0], 70)
    with pytest.raises(ValueError, match="outside"):
        qpe_outcomes([-1], [1.0], 5)
    with pytest.raises(ValueError, match="outside"):
        qpe_outcomes([32], [1.0], 5)
    with pytest.raises(ValueError, match="outside"):
        qpe_outcomes([1 << 70], [1.0], 70)
    with pytest.raises(ValueError, match="dimension"):
        qpe_outcomes([0, 16], [1.0], 5)
    with pytest.raises(ValueError, match="norm"):
        qpe_outcomes([0, 16], [0.5, 0.5], 5)
    with pytest.raises(ValueError, match="t >= 1"):
        qpe_outcomes([0], [1.0], 0)


@pytest.mark.parametrize("t", (61, 70))
def test_qpe_outcomes_reads_long_registers_exactly(t):
    """2^(t-1) + 1 is read as itself; as a float phase it would round to 2^(t-1)."""
    value = (1 << (t - 1)) + 1
    assert float(Fraction(value, 1 << t)) * (1 << t) != value
    outcomes = qpe_outcomes([value, 1], [0.6, 0.8], t)
    assert outcomes.values == (1, value)
    assert all(type(v) is int for v in outcomes.values)
    assert np.allclose(outcomes.masses, [0.64, 0.36], atol=1e-12)
    assert sample_outcome(outcomes, np.random.default_rng(0))[0] in (1, value)


def test_qpe_outcomes_reaches_past_the_statevector():
    """t = 40 on a 3-column system: the dense register would be 16 TiB."""
    t = 40
    values = ((1 << t) - 1, 12345678901, (1 << t) - 1)
    amps = np.array([0.6, 0.64j, -0.48])
    tracemalloc.start()
    try:
        outcomes = qpe_outcomes(values, amps, t)
        m, post = sample_outcome(outcomes, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert outcomes.values == (12345678901, (1 << t) - 1)
    assert np.allclose(outcomes.masses, [0.4096, 0.5904], atol=1e-12)
    assert outcomes.counters == GateCounters(
        hadamards=2 * t, controlled_rk=t * (t - 1) // 2, cu_queries=t
    )
    assert m in outcomes.values
    assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-12)
