"""Projector detection over the centre of C[S_n] by phase estimation.

Bob prepares a unit-norm projector state; Alice runs one phase-estimation
round per cycle class sum T_k, k = 2..k_star(n), decodes the integer
eigenvalues, and looks the resulting signature up in the table. In the
exact-phase regime every round measures its eigenvalue with probability 1,
so detection never fails and the counters are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json

import numpy as np

from .centre import (
    CentreState,
    cycle_class_size,
    eigenvalue_column,
    k_star,
    projector_state,
    signature_table,
)
from .qpe import GateCounters, phase_decode, qpe_outcomes, sample_outcome
from .symgroup import Partition, as_partition, format_partition, partition_index


def t_bits(n: int, k: int) -> int:
    """Register size for one T_k round: ceil(log2(2 |T_k| + 2)).

    Signed eigenvalues lie in [-|T_k|, |T_k|], and two's-complement encoding
    needs one value of headroom on each side. For k = 2 this is
    ceil(log2(n(n-1) + 2)).
    """
    bound = cycle_class_size(n, k)
    return (2 * bound + 1).bit_length()


def bob_prepare(rep: Partition) -> CentreState:
    """The projector state for rep, g-normalized to a unit state."""
    return projector_state(as_partition(rep)).normalized()


@dataclass
class DetectionTranscript:
    n: int
    seed: int
    true_label: Partition | None = None
    identified_label: Partition | None = None
    rounds: list[dict] = field(default_factory=list)
    counters: GateCounters = field(default_factory=GateCounters)

    @property
    def query_total(self) -> int:
        return self.counters.cu_queries

    @property
    def gate_total(self) -> int:
        return self.counters.total_gates

    def to_dict(self) -> dict:
        return {
            "schema": "1",
            "n": self.n,
            "seed": self.seed,
            "true_label": None if self.true_label is None else format_partition(self.true_label),
            "identified_label": format_partition(self.identified_label),
            "rounds": self.rounds,
            "query_total": self.query_total,
            "gate_total": self.gate_total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def round_values(parts, size: int, k: int) -> tuple[int, np.ndarray]:
    """(t, m) for the T_k round: m[i] is parts[i]'s eigenvalue mod 2^t.

    That is the register value two's-complement coding reads, phase_encode's
    numerator; an eigenvalue past |T_k| raises as it does there.
    """
    t = t_bits(size, k)
    bound = cycle_class_size(size, k)
    at = partition_index(size)
    column = eigenvalue_column(size, k)[[at[rep] for rep in parts]]
    if np.any(np.abs(column) > bound):
        raise ValueError(f"a T_{k} eigenvalue exceeds its bound {bound} at n={size}")
    return t, column.astype(np.int64 if t < 63 else object) % (1 << t)


def run_family(amps, parts, size: int, rng, counters: GateCounters):
    """Run the rounds k = 2..k_star(size) of one signature family.

    System component i carries the T_k eigenvalue of parts[i], a diagram of
    size, as an integer register value, so each round is read from
    qpe_outcomes' point masses and sampled by sample_outcome, with no
    register array. The post-measurement system state carries over between
    rounds, which in the exact-phase regime leaves it untouched; there is no
    early exit, so the counters match the closed-form sums. Each round's
    gates and queries are added to counters. Returns (round records,
    measured signature, collapsed system amplitudes).
    """
    rounds = []
    for k in range(2, k_star(size) + 1):
        t, values = round_values(parts, size, k)
        outcomes = qpe_outcomes(values, amps, t)
        m, amps = sample_outcome(outcomes, rng)
        run = outcomes.counters
        rounds.append(
            {
                "k": k,
                "t": t,
                "measured": m,
                "eigenvalue": phase_decode(m, t),
                "queries": run.cu_queries,
                "gates": run.total_gates,
            }
        )
        counters.hadamards += run.hadamards
        counters.controlled_rk += run.controlled_rk
        counters.cu_queries += run.cu_queries
    return rounds, tuple(r["eigenvalue"] for r in rounds), amps


def alice_detect(state: CentreState, n: int, seed: int = 0) -> DetectionTranscript:
    """Run the k = 2..k_star(n) rounds and identify the projector label.

    Projector-basis components with exactly zero coefficient are dropped
    before the first round.

    Raises ValueError when the measured signature is not in the table, i.e.
    the input was not a projector state.
    """
    if state.n != n:
        raise ValueError(f"state lives over S_{state.n}, asked about S_{n}")
    labels = state.support()
    rng = np.random.default_rng(seed)
    transcript = DetectionTranscript(n=n, seed=seed)
    transcript.rounds, key, _ = run_family(
        state.unit_amplitudes(), labels, n, rng, transcript.counters
    )
    table = signature_table(n)
    if key not in table:
        raise ValueError(f"not a projector state: signature {key} unknown for n={n}")
    transcript.identified_label = table[key]
    return transcript


def detect_projector(rep: Partition, seed: int = 0) -> DetectionTranscript:
    """End-to-end run: Bob prepares P_rep, Alice identifies it blind."""
    rep = as_partition(rep)
    transcript = alice_detect(bob_prepare(rep), sum(rep), seed=seed)
    transcript.true_label = rep
    return transcript


def complexity_report(n: int) -> dict:
    """Deterministic per-round and total counter values for size n.

    query_total = sum of t_k and gate_total = sum of 2 t_k + t_k (t_k - 1)/2
    over k = 2..k_star(n). Not monotone in n: k_star(7) = 2 < k_star(6) = 3,
    so n = 7 needs fewer queries than n = 6.
    """
    ks = k_star(n)
    per_k = []
    for k in range(2, ks + 1):
        t = t_bits(n, k)
        per_k.append({"k": k, "t": t, "queries": t, "gates": 2 * t + t * (t - 1) // 2})
    return {
        "n": n,
        "k_star": ks,
        "per_k": per_k,
        "query_total": sum(r["queries"] for r in per_k),
        "gate_total": sum(r["gates"] for r in per_k),
    }


def complexity_table(n_values) -> list[dict]:
    """Flat rows of complexity_report for several sizes."""
    rows = []
    for n in n_values:
        rep = complexity_report(n)
        rows.append(
            {
                "n": n,
                "k_star": rep["k_star"],
                "register_bits": [r["t"] for r in rep["per_k"]],
                "query_total": rep["query_total"],
                "gate_total": rep["gate_total"],
            }
        )
    return rows
