"""Tensor-square and restriction algebras over S_n, with their detectors.

Two commutative algebras extend the centre story. In C[S_n x S_n], the
products ptilde = Delta(P_R3)(P_R1 x P_R2) are orthogonal idempotents indexed
by triples with nonzero Kronecker coefficient, and they resolve the identity
1 x 1. In C[S_{m+n}], the products P_R emb(P_R1 x P_R2) do the same for
triples with nonzero restriction (Littlewood-Richardson) coefficient. Both
coefficient tables are contracted exactly from one character matrix per size
and refereed by the per-triple class sums (and the LR one by the tableau
rule), and both algebras admit the same phase-estimation detection as the
centre, with one signature family per tensor slot.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial
from types import MappingProxyType
import json

import numpy as np

from .centre import LabelledState, signature_table
from .detection import run_family
from .qpe import GateCounters
from .symgroup import (
    CharacterTable,
    Partition,
    as_partition,
    centralizer_order,
    character,
    class_size,
    dimension,
    format_partition,
    partitions,
)

BRUTE_BUILD_BOUND = 5


def kronecker(r1: Partition, r2: Partition, r3: Partition) -> int:
    """Kronecker coefficient: (1/n!) sum_mu |C_mu| chi1 chi2 chi3 (mu).

    Fully symmetric in its three arguments; always a nonnegative integer, and
    a non-integral sum raises because it can only mean broken characters.
    """
    r1, r2, r3 = as_partition(r1), as_partition(r2), as_partition(r3)
    n = sum(r1)
    if sum(r2) != n or sum(r3) != n:
        raise ValueError("all three diagrams must have the same size")
    acc = 0
    for mu in partitions(n):
        acc += class_size(mu) * character(r1, mu) * character(r2, mu) * character(r3, mu)
    q, r = divmod(acc, factorial(n))
    if r:
        raise ArithmeticError(f"non-integral Kronecker sum for {r1},{r2},{r3}")
    if q < 0:
        raise ArithmeticError(f"negative Kronecker value for {r1},{r2},{r3}")
    return q


def _exact_table(triples, sums, divisor: int, what: str) -> MappingProxyType:
    """{triple: sum // divisor} over the nonzero quotients, in the order given.

    Each sum must be a nonnegative multiple of divisor; anything else can
    only mean broken characters, so it raises.
    """
    table = {}
    for t, acc in zip(triples, sums):
        q, r = divmod(acc, divisor)
        if r:
            raise ArithmeticError(f"non-integral {what} sum for {t}")
        if q < 0:
            raise ArithmeticError(f"negative {what} value for {t}")
        if q:
            table[t] = q
    return MappingProxyType(table)


@cache
def kron_labels(n: int) -> MappingProxyType[tuple[Partition, Partition, Partition], int]:
    """Nonzero Kronecker coefficients keyed by triple (R1, R2, R3), canonical order.

    The one coefficient table of the tensor-square algebra, contracted from
    the character matrix X and class sizes w of S_n: the block of R1 is
    X diag(w X[R1]) X^T / n!. Zeros are left out, and the table is built once
    per n and read-only because every caller in the process shares it.
    """
    chars = CharacterTable(n)
    x, w = chars.matrix, chars.class_sizes
    sums = np.stack([(x * (w * row)) @ x.T for row in x])
    triples = product(chars.labels, repeat=3)
    return _exact_table(triples, sums.flat, factorial(n), "Kronecker")


def ribbon_count(n: int) -> int:
    """Burnside count of diagonal-conjugation orbits on pairs: sum over mu of z_mu."""
    return sum(centralizer_order(mu) for mu in partitions(n))


def dim_K(n: int) -> int:
    """Dimension of the tensor-square algebra: sum of squared Kronecker coefficients."""
    return sum(v * v for v in kron_labels(n).values())


def kron_projector_brute(r1: Partition, r2: Partition, r3: Partition):
    """ptilde built literally in C[S_n x S_n]; referee for the closed forms."""
    from .groupalgebra import diagonal_map, projector_element, tensor

    r1, r2, r3 = as_partition(r1), as_partition(r2), as_partition(r3)
    n = sum(r1)
    if n > BRUTE_BUILD_BOUND:
        raise ValueError(f"literal pair-algebra build capped at n <= {BRUTE_BUILD_BOUND}")
    return diagonal_map(projector_element(r3)) * tensor(
        projector_element(r1), projector_element(r2)
    )


def _as_triple(label) -> tuple[Partition, Partition, Partition]:
    return tuple(as_partition(p) for p in label)


class _TripleTableState(LabelledState):
    """A state over triples whose idempotents have squared g-norm d1 d2 d3 g / denominator.

    g is the triple's entry in the label map; a subclass sets denominator.
    """

    as_label = staticmethod(_as_triple)

    def _weight(self, label) -> int:
        r1, r2, r3 = label
        return dimension(r1) * dimension(r2) * dimension(r3) * self.labels.get(label, 0)

    def norm_sq(self, label) -> Fraction:
        return Fraction(self._weight(label), self.denominator)

    def amplitude_scale(self, label) -> float:
        # int true division rounds the same rational that float(norm_sq) rounds,
        # and both round correctly, so the two agree bit for bit
        return (self._weight(label) / self.denominator) ** 0.5


class TripleState(_TripleTableState):
    """Element of the tensor-square algebra over the ptilde basis."""

    label_error = "{label} has zero Kronecker coefficient; no projector to carry it"

    def __init__(self, n: int, coeffs: dict):
        self.n = n
        self.denominator = factorial(n) ** 2
        super().__init__((n,), kron_labels(n), coeffs)


def pair_projector_state(r1, r2, r3) -> TripleState:
    label = _as_triple((r1, r2, r3))
    return TripleState(sum(label[0]), {label: Fraction(1)})


def identity_pair_state(n: int) -> TripleState:
    """1 x 1 expanded over the ptilde basis: every coefficient is one.

    Detection on this state therefore samples the triple (R1, R2, R3) with
    probability d1 d2 d3 C / (n!)^2, and those weights sum to exactly 1.
    """
    return TripleState._canonical((n,), dict.fromkeys(kron_labels(n), Fraction(1)))


@dataclass
class MultiFamilyTranscript:
    sizes: tuple[int, ...]
    seed: int
    families: list[dict] = field(default_factory=list)
    detected: tuple | None = None
    counters: GateCounters = field(default_factory=GateCounters)

    def to_dict(self) -> dict:
        return {
            "schema": "1",
            "sizes": list(self.sizes),
            "seed": self.seed,
            "families": self.families,
            "detected": [format_partition(p) for p in self.detected],
            "cu_queries": self.counters.cu_queries,
            "total_gates": self.counters.total_gates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _detect_slots(state, families, what: str, seed: int) -> MultiFamilyTranscript:
    """Resolve a labelled triple one tensor slot at a time.

    families lists (name, size) per slot: slot i of every label is a diagram
    of that size, and its family runs the rounds k = 2..k_star(size) on the
    system state the earlier families left behind. A slot whose group has
    fewer than two diagrams is resolved for free and runs no circuit. Labels
    with exactly zero coefficient are dropped up front, so a projector state
    runs on a one-dimensional system.
    """
    labels = state.support()
    rng = np.random.default_rng(seed)
    transcript = MultiFamilyTranscript(sizes=tuple(s for _, s in families), seed=seed)
    amps = state.unit_amplitudes()
    detected = []
    for slot, (name, size) in enumerate(families):
        if len(partitions(size)) < 2:
            detected.append(partitions(size)[0])
            transcript.families.append(
                {"family": name, "rounds": [], "signature": [], "skipped": True}
            )
            continue
        parts = [label[slot] for label in labels]
        rounds, sig, amps = run_family(amps, parts, size, rng, transcript.counters)
        transcript.families.append(
            {"family": name, "rounds": rounds, "signature": list(sig)}
        )
        table = signature_table(size)
        if sig not in table:
            raise ValueError(f"not {what} projector: {name} signature {sig}")
        detected.append(table[sig])
    transcript.detected = tuple(detected)
    if transcript.detected not in state.labels:
        raise ValueError(f"detected triple {transcript.detected} is not a valid label")
    return transcript


def kron_detect(state: TripleState, seed: int = 0) -> MultiFamilyTranscript:
    """Identify a ptilde component with three signature families.

    Family "left" estimates T_k x 1 (eigenvalue from R1), "right" estimates
    1 x T_k (from R2), "diag" estimates Delta(T_k) (from R3); each family runs
    k = 2..k_star(n) and the three signatures are resolved independently.
    """
    families = [("left", state.n), ("right", state.n), ("diag", state.n)]
    return _detect_slots(state, families, "a Kronecker", seed)


def lr_coefficient(rep: Partition, r1: Partition, r2: Partition) -> int:
    """Restriction multiplicity of R1 x R2 in R over S_m x S_n, by characters.

    (1/(m! n!)) sum over class pairs of |C_mu1| |C_mu2| chi^R(mu1 merge mu2)
    chi^R1(mu1) chi^R2(mu2); equals the Littlewood-Richardson coefficient.
    """
    rep, r1, r2 = as_partition(rep), as_partition(r1), as_partition(r2)
    m, n = sum(r1), sum(r2)
    if sum(rep) != m + n:
        raise ValueError(f"|{rep}| != {m} + {n}")
    acc = 0
    for mu1 in partitions(m):
        for mu2 in partitions(n):
            merged = tuple(sorted(mu1 + mu2, reverse=True))
            acc += (
                class_size(mu1)
                * class_size(mu2)
                * character(rep, merged)
                * character(r1, mu1)
                * character(r2, mu2)
            )
    q, r = divmod(acc, factorial(m) * factorial(n))
    if r:
        raise ArithmeticError(f"non-integral restriction sum for {rep},{r1},{r2}")
    if q < 0:
        raise ArithmeticError(f"negative restriction value for {rep},{r1},{r2}")
    return q


def lr_coefficient_by_rule(rep: Partition, r1: Partition, r2: Partition) -> int:
    """The same coefficient by the tableau rule, as an independent route.

    Counts fillings of the skew diagram rep/r1 with content r2 that are
    weakly increasing along rows, strictly increasing down columns, and whose
    reverse reading word is a ballot sequence.
    """
    rep, r1, r2 = as_partition(rep), as_partition(r1), as_partition(r2)
    if sum(rep) != sum(r1) + sum(r2):
        raise ValueError("sizes must satisfy |rep| = |r1| + |r2|")
    if len(r1) > len(rep) or any(r1[i] > rep[i] for i in range(len(r1))):
        return 0
    inner = list(r1) + [0] * (len(rep) - len(r1))
    cells = [
        (r, c)
        for r in range(len(rep))
        for c in range(rep[r] - 1, inner[r] - 1, -1)
    ]
    maxv = len(r2)
    counts = [0] * (maxv + 2)
    values: dict[tuple[int, int], int] = {}

    def fill(i: int) -> int:
        if i == len(cells):
            return 1
        r, c = cells[i]
        lo = 1
        if r > 0 and c >= inner[r - 1]:
            lo = values[(r - 1, c)] + 1
        hi = values.get((r, c + 1), maxv)
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= r2[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            values[(r, c)] = v
            total += fill(i + 1)
            counts[v] -= 1
            del values[(r, c)]
        return total

    return fill(0)


@cache
def lr_labels(m: int, n: int) -> MappingProxyType[tuple[Partition, Partition, Partition], int]:
    """Nonzero restriction coefficients keyed by triple (R, R1, R2), canonical order.

    The one coefficient table of the restriction algebra, shared as
    kron_labels is. The merged-class tensor Y[R, mu1, mu2] = chi^R(mu1 merge
    mu2) w1[mu1] w2[mu2] is contracted with the S_n characters over mu2 and
    then with the S_m characters over mu1, and divided by m! n!.
    """
    tables = {size: CharacterTable(size) for size in {m + n, m, n}}
    whole, left, right = tables[m + n], tables[m], tables[n]
    merged = [
        [whole.index[tuple(sorted(mu1 + mu2, reverse=True))] for mu2 in right.labels]
        for mu1 in left.labels
    ]
    y = whole.matrix[:, merged] * np.multiply.outer(left.class_sizes, right.class_sizes)
    sums = left.matrix @ (y @ right.matrix.T)
    triples = product(whole.labels, left.labels, right.labels)
    return _exact_table(triples, sums.flat, factorial(m) * factorial(n), "restriction")


def dim_A(m: int, n: int) -> int:
    """Dimension of the restriction algebra: sum of squared coefficients."""
    return sum(v * v for v in lr_labels(m, n).values())


def necklace_count(m: int, n: int) -> int:
    """Combinatorial route to dim A(m, n): two-color the parts of each mu.

    sum over (mu1, mu2) of z_{mu1 merge mu2} / (z_{mu1} z_{mu2}); each term is
    the product of binomials counting which parts of the merged type came
    from the m side, so the total counts part-colored diagrams of m + n.
    """
    acc = Fraction(0)
    for mu1 in partitions(m):
        for mu2 in partitions(n):
            merged = tuple(sorted(mu1 + mu2, reverse=True))
            acc += Fraction(
                centralizer_order(merged),
                centralizer_order(mu1) * centralizer_order(mu2),
            )
    if acc.denominator != 1:
        raise ArithmeticError("part-coloring count came out non-integral")
    return int(acc)


def lr_projector_brute(rep, r1, r2):
    """The restriction projector built literally in C[S_{m+n}]."""
    from .groupalgebra import embed_product, projector_element, tensor

    rep, r1, r2 = as_partition(rep), as_partition(r1), as_partition(r2)
    if sum(rep) > BRUTE_BUILD_BOUND:
        raise ValueError(f"literal build capped at m + n <= {BRUTE_BUILD_BOUND}")
    return projector_element(rep) * embed_product(
        tensor(projector_element(r1), projector_element(r2))
    )


class LrState(_TripleTableState):
    """Element of the restriction algebra over its idempotent basis."""

    label_error = "{label} has zero restriction coefficient"
    size_error = "mismatched sizes"

    def __init__(self, m: int, n: int, coeffs: dict):
        self.m = m
        self.n = n
        self.denominator = factorial(m + n)
        super().__init__((m, n), lr_labels(m, n), coeffs)


def lr_projector_state(rep, r1, r2) -> LrState:
    label = _as_triple((rep, r1, r2))
    return LrState(sum(label[1]), sum(label[2]), {label: Fraction(1)})


def identity_lr_state(m: int, n: int) -> LrState:
    """The identity of C[S_{m+n}] over the restriction idempotents, all ones."""
    return LrState._canonical((m, n), dict.fromkeys(lr_labels(m, n), Fraction(1)))


def lr_detect(state: LrState, seed: int = 0) -> MultiFamilyTranscript:
    """Identify a restriction idempotent with up to three signature families.

    Family "whole" estimates T_k of S_{m+n} (eigenvalue from R), "left" the
    embedded T_k of S_m (from R1), "right" the embedded T_k of S_n (from R2).
    """
    families = [("whole", state.m + state.n), ("left", state.m), ("right", state.n)]
    return _detect_slots(state, families, "an LR", seed)
