"""Exact statevector simulation of phase estimation for diagonal unitaries.

The register holds t qubits, the system is a D-dimensional space on which the
unitary acts diagonally.  Gates are applied literally (no closed-form
shortcut) so the query and gate counters are meaningful; the closed forms
offgrid_amplitude and phase_tail_bound are kept only as the tests' referees.
Each gate acts in place on a reshaped view of the 2^t x D amplitude array,
and the QFT's wire swaps are one bit-reversal copy of the register axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

NORM_TOL = 1e-12


@dataclass
class DiagonalUnitary:
    """diag(e^{2 pi i phase_s}) over system basis states s.

    Phases are fractions of a full turn and must lie in [0, 1).
    """

    phases: tuple

    def __post_init__(self):
        self.phases = tuple(float(p) for p in self.phases)
        if not self.phases:
            raise ValueError("empty unitary")
        for p in self.phases:
            if not 0.0 <= p < 1.0:
                raise ValueError(f"phase {p} outside [0, 1)")

    @property
    def dim(self) -> int:
        return len(self.phases)


@dataclass
class GateCounters:
    hadamards: int = 0
    controlled_rk: int = 0
    cu_queries: int = 0

    @property
    def total_gates(self) -> int:
        # controlled-U applications are tracked separately as queries
        return self.hadamards + self.controlled_rk


class QpeState:
    """Register tensor system statevector with mutable gate application.

    amps[l, s] is the amplitude of register value l and system basis state s.
    Register bit j of l carries significance 2^j.  amps stays C-contiguous,
    so each gate's reshape is a view and the gate writes through it.
    """

    def __init__(self, t: int, system_amplitudes):
        if t <= 0:
            raise ValueError("need at least one register qubit")
        sys = np.asarray(system_amplitudes, dtype=complex)
        if sys.ndim != 1 or sys.size == 0:
            raise ValueError("system state must be a nonempty vector")
        norm = np.linalg.norm(sys)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"system state norm {norm} is not 1")
        self.t = t
        self.dim = sys.size
        self.amps = np.zeros((1 << t, sys.size), dtype=complex)
        self.amps[0] = sys
        self.counters = GateCounters()

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def register_distribution(self) -> np.ndarray:
        return np.abs(self.amps) ** 2 @ np.ones(self.dim)


def _hadamard(state: QpeState, wire: int) -> None:
    a = state.amps.reshape(-1, 2, 1 << wire, state.dim)
    lo, hi = a[:, 0], a[:, 1]
    total = lo + hi
    np.subtract(lo, hi, out=hi)
    r = np.sqrt(0.5)
    hi *= r
    np.multiply(total, r, out=lo)
    state.counters.hadamards += 1


def _controlled_phase(state: QpeState, wire_a: int, wire_b: int, turn: float) -> None:
    # wire_a > wire_b; the view's axes 1 and 3 are bits wire_a and wire_b
    shape = (-1, 2, 1 << (wire_a - wire_b - 1), 2, (1 << wire_b) * state.dim)
    state.amps.reshape(shape)[:, 1, :, 1] *= np.exp(2j * np.pi * turn)
    state.counters.controlled_rk += 1


def _reverse_wires(state: QpeState) -> None:
    # relabeling only, not counted as a gate; axis 0 of the view is wire t-1
    t = state.t
    bits = state.amps.reshape((2,) * t + (state.dim,))
    reversed_axes = tuple(range(t - 1, -1, -1)) + (t,)
    state.amps = bits.transpose(reversed_axes).reshape(-1, state.dim)


def hadamard_layer(state: QpeState) -> QpeState:
    """Put the whole register into the uniform superposition."""
    for wire in range(state.t):
        _hadamard(state, wire)
    return state


def controlled_power_u(state: QpeState, unitary: DiagonalUnitary, j: int) -> QpeState:
    """Apply U^(2^j) controlled on register bit j; one oracle query."""
    if not 0 <= j < state.t:
        raise ValueError("control bit out of range")
    if unitary.dim != state.dim:
        raise ValueError("system dimension mismatch")
    # a float phase is dyadic, so scaling it by 2^j and reducing mod 1 is exact
    turns = (np.asarray(unitary.phases) * (1 << j)) % 1.0
    state.amps.reshape(-1, 2, 1 << j, state.dim)[:, 1] *= np.exp(2j * np.pi * turns)
    state.counters.cu_queries += 1
    return state


def qft(state: QpeState) -> QpeState:
    """Forward transform; wire t-1 is the most significant bit."""
    for j in range(state.t - 1, -1, -1):
        _hadamard(state, j)
        for k in range(2, j + 2):
            _controlled_phase(state, j, j - k + 1, 1.0 / (1 << k))
    _reverse_wires(state)
    return state


def inverse_qft(state: QpeState) -> QpeState:
    """Inverse of qft: undo the bit reversal, then the conjugated gates in reverse."""
    _reverse_wires(state)
    for j in range(state.t):
        for k in range(j + 1, 1, -1):
            _controlled_phase(state, j, j - k + 1, -1.0 / (1 << k))
        _hadamard(state, j)
    return state


def qpe_run(unitary: DiagonalUnitary, system_state, t: int):
    """One full phase-estimation circuit.

    Returns (register distribution, counters, final state).  The state is
    left unmeasured so callers can collapse it themselves.
    """
    if t <= 0:
        raise ValueError("register needs t >= 1 qubits")
    state = QpeState(t, system_state)
    hadamard_layer(state)
    for j in range(t):
        controlled_power_u(state, unitary, j)
    inverse_qft(state)
    if abs(state.norm() - 1.0) > NORM_TOL:
        raise ArithmeticError("norm drifted beyond tolerance")
    return state.register_distribution(), state.counters, state


def measure_register(state: QpeState, rng: np.random.Generator):
    """Sample a register value and collapse the system accordingly."""
    dist = state.register_distribution()
    total = dist.sum()
    m = int(rng.choice(dist.size, p=dist / total))
    post = state.amps[m]
    post = post / np.linalg.norm(post)
    return m, post


def phase_encode(eigenvalue: int, chi_max: int, t: int) -> Fraction:
    """Signed integer eigenvalue to a register phase, two's-complement style."""
    if abs(eigenvalue) > chi_max:
        raise ValueError(f"|{eigenvalue}| exceeds the stated bound {chi_max}")
    if (1 << t) < 2 * chi_max + 2:
        raise ValueError(f"register of {t} bits too small for bound {chi_max}")
    return Fraction(eigenvalue % (1 << t), 1 << t)


def phase_decode(m: int, t: int) -> int:
    half = 1 << (t - 1)
    return m if m < half else m - (1 << t)


def phase_tail_bound(t: int, precision_bits: int) -> Fraction:
    """P(|m - b| > e) < 1/(2(e-1)) with e = 2^(t-p) - 1."""
    e = (1 << (t - precision_bits)) - 1
    if e < 2:
        raise ValueError("tail bound needs e >= 2")
    return Fraction(1, 2 * (e - 1))


def offgrid_amplitude(zeta: float, m: int, t: int) -> complex:
    """Closed-form register amplitude when the phase zeta is not a t-bit grid point."""
    size = 1 << t
    delta = zeta - m / size
    num = 1.0 - np.exp(2j * np.pi * size * delta)
    den = 1.0 - np.exp(2j * np.pi * delta)
    if abs(den) < 1e-300:
        return complex(1.0)
    return complex(num / den / size)
