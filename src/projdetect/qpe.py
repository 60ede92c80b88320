"""Phase estimation for diagonal unitaries: one gate schedule, two routes.

The register holds t qubits, the system is a D-dimensional space on which the
unitary acts diagonally. qpe_schedule(t) lists one round's ops in circuit
order: t Hadamards, t controlled-U^(2^j) queries, the bit reversal, then the
inverse QFT's controlled-R_k gates and Hadamards.

- The statevector route (qpe_run, measure_register) executes that schedule
  gate by gate, in place on reshaped views of the 2^t x D amplitude array,
  and counts each gate as it runs. It is the referee, and refuses a register
  above STATEVECTOR_BYTES_BOUND before allocating it.
- The analytic route (qpe_outcomes, sample_outcome) is what the detectors
  run. It takes one integer register value m per system column, the phase
  m/2^t on the t-bit grid, so each column lands on its value with
  probability 1 and the register law is a sum of point masses; no 2^t array
  and no float phase is built. Its counters come from walking the same
  schedule, once per register size.

DiagonalUnitary, phase_encode and float phases are the statevector route's
input. The closed forms offgrid_amplitude and phase_tail_bound are kept only
as the tests' referees for off-grid input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

import numpy as np

NORM_TOL = 1e-12
STATEVECTOR_BYTES_BOUND = 1 << 30


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


def _system_vector(system_amplitudes) -> np.ndarray:
    sys = np.asarray(system_amplitudes, dtype=complex)
    if sys.ndim != 1 or sys.size == 0:
        raise ValueError("system state must be a nonempty vector")
    norm = np.linalg.norm(sys)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"system state norm {norm} is not 1")
    return sys


class QpeState:
    """Register tensor system statevector with mutable gate application.

    amps[l, s] is the amplitude of register value l and system basis state s.
    Register bit j of l carries significance 2^j.  amps stays C-contiguous,
    so each gate's reshape is a view and the gate writes through it.
    """

    def __init__(self, t: int, system_amplitudes):
        if t <= 0:
            raise ValueError("need at least one register qubit")
        sys = _system_vector(system_amplitudes)
        nbytes = (1 << t) * sys.size * 16
        if nbytes > STATEVECTOR_BYTES_BOUND:
            raise ValueError(
                f"a {t}-qubit register on a {sys.size}-dimensional system needs "
                f"{nbytes} bytes, above STATEVECTOR_BYTES_BOUND = "
                f"{STATEVECTOR_BYTES_BOUND}; qpe_outcomes reads register values "
                "without the register"
            )
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


def _layer_ops(t: int) -> list[tuple]:
    return [("h", wire) for wire in range(t)]


def _qft_ops(t: int) -> list[tuple]:
    ops = []
    for j in range(t - 1, -1, -1):
        ops.append(("h", j))
        ops.extend(("rk", j, j - k + 1, 1.0 / (1 << k)) for k in range(2, j + 2))
    ops.append(("reverse",))
    return ops


def _inverse_qft_ops(t: int) -> list[tuple]:
    # H and the bit reversal are their own inverses; R_k's inverse negates its turn
    return [op[:3] + (-op[3],) if op[0] == "rk" else op for op in reversed(_qft_ops(t))]


def qpe_schedule(t: int) -> list[tuple]:
    """One round's ops in circuit order.

    ("h", wire) is a Hadamard, ("cu", j) the query U^(2^j) controlled on bit
    j, ("reverse",) the bit reversal (relabelling, not a gate) and
    ("rk", a, b, turn) the phase e^(2 pi i turn) on bits a and b both set.
    """
    return _layer_ops(t) + [("cu", j) for j in range(t)] + _inverse_qft_ops(t)


def schedule_counters(ops) -> GateCounters:
    """The counters a statevector run of ops increments, read by walking them."""
    kinds = Counter(op[0] for op in ops)
    return GateCounters(hadamards=kinds["h"], controlled_rk=kinds["rk"], cu_queries=kinds["cu"])


@cache
def _round_counters(t: int) -> GateCounters:
    """schedule_counters(qpe_schedule(t)), walked once per t; callers copy it."""
    return schedule_counters(qpe_schedule(t))


def _execute(state: QpeState, ops) -> QpeState:
    for op in ops:
        if op[0] == "h":
            _hadamard(state, op[1])
        elif op[0] == "rk":
            _controlled_phase(state, *op[1:])
        else:
            _reverse_wires(state)
    return state


def hadamard_layer(state: QpeState) -> QpeState:
    """Put the whole register into the uniform superposition."""
    return _execute(state, _layer_ops(state.t))


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
    return _execute(state, _qft_ops(state.t))


def inverse_qft(state: QpeState) -> QpeState:
    """Inverse of qft: undo the bit reversal, then the conjugated gates in reverse."""
    return _execute(state, _inverse_qft_ops(state.t))


def qpe_run(unitary: DiagonalUnitary, system_state, t: int):
    """One full phase-estimation circuit: qpe_schedule(t) executed gate by gate.

    Returns (register distribution, counters, final state).  The state is
    left unmeasured so callers can collapse it themselves.
    """
    if t <= 0:
        raise ValueError("register needs t >= 1 qubits")
    # the three segments of qpe_schedule(t), each run by its named function
    state = hadamard_layer(QpeState(t, system_state))
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


@dataclass(frozen=True)
class QpeOutcomes:
    """The register law of one round as point masses.

    values are the distinct register values in increasing order, masses[i]
    is the probability of reading values[i], and system column s lands on
    values[column_value[s]].
    """

    values: tuple
    masses: np.ndarray
    column_value: np.ndarray
    system: np.ndarray
    counters: GateCounters


def qpe_outcomes(values, system_state, t: int) -> QpeOutcomes:
    """qpe_run's register law in closed form, from one register value per column.

    System column s carries the phase values[s]/2^t, so its whole column
    lands on register value values[s] and each value's mass is the summed
    |amplitude|^2 of its columns. The counters are those of qpe_schedule(t),
    a fresh GateCounters per call. Costs O(D log D).
    """
    if t <= 0:
        raise ValueError("register needs t >= 1 qubits")
    sys = _system_vector(system_state)
    # int64 while 2^t < 2^63; Python ints past that, as 1 << 63 overflows an int64
    values = np.asarray(values, dtype=None if t < 63 else object)
    if values.ndim != 1 or not (
        values.dtype.kind in "iu" or all(isinstance(v, (int, np.integer)) for v in values)
    ):
        raise ValueError("register values must be a vector of integers")
    if np.any(values < 0) or np.any(values >= 1 << t):
        raise ValueError(f"register value outside [0, 2^{t})")
    if values.size != sys.size:
        raise ValueError("system dimension mismatch")
    grid, column_value = np.unique(values, return_inverse=True)
    return QpeOutcomes(
        values=tuple(int(v) for v in grid),
        masses=np.bincount(column_value, weights=np.abs(sys) ** 2, minlength=grid.size),
        column_value=column_value,
        system=sys,
        counters=replace(_round_counters(t)),
    )


def sample_outcome(outcomes: QpeOutcomes, rng: np.random.Generator):
    """Read the register once and collapse the system, as measure_register does.

    Draws exactly as Generator.choice(p=...): one rng.random() searched
    (side="right") in the normalized cumulative masses.
    """
    cdf = np.cumsum(outcomes.masses)
    cdf /= cdf[-1]
    i = int(cdf.searchsorted(rng.random(), side="right"))
    post = np.where(outcomes.column_value == i, outcomes.system, 0)
    return outcomes.values[i], post / np.linalg.norm(post)


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
