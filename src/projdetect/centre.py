"""The centre of the symmetric group algebra in two bases.

Class sums T_k (all permutations of cycle type [k,1^{n-k}]) and the primitive
central idempotents P_R are both bases of the centre; the change of basis is
the character table. Class-sum eigenvalues on P_R are the normalized
characters, exact integers, and short prefixes of them separate the
idempotents: k_star(n) is the shortest prefix length that works.
"""

from fractions import Fraction
from functools import cache
from math import factorial, log
from types import MappingProxyType
import csv
import io

from .symgroup import (
    Partition,
    as_partition,
    character,
    class_size,
    dimension,
    format_partition,
    normalized_character_exact,
    partitions,
)

STRUCTURE_CONSTANT_BOUND = 8


def cycle_class_size(n: int, k: int) -> int:
    """|T_k| = n!/(k (n-k)!), the number of k-cycles in S_n."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    return factorial(n) // (k * factorial(n - k))


def normalized_character(rep: Partition, k: int) -> int:
    """Eigenvalue of the k-cycle class sum on the projector labelled rep."""
    return normalized_character_exact(as_partition(rep), k)


def content_sum(rep: Partition, power: int = 1) -> int:
    """p_power: the sum of (j - i)**power over diagram cells (i, j), 0-based."""
    rep = as_partition(rep)
    return sum(c**power for i, r in enumerate(rep) for c in range(-i, r - i))


def chi_max(n: int, k: int) -> int:
    """Largest T_k eigenvalue over all diagrams with n boxes.

    Computed by scanning every diagram, then asserted equal to the closed
    form |T_k|, attained on the one-row diagram. A mismatch means the
    character machinery is broken, so it raises rather than returns.
    """
    best = max(normalized_character(rep, k) for rep in partitions(n))
    if best != cycle_class_size(n, k):
        raise ArithmeticError(
            f"scan maximum {best} != |T_{k}| = {cycle_class_size(n, k)} at n={n}"
        )
    return best


def signature(rep: Partition, upto: int) -> tuple[int, ...]:
    """Eigenvalues (T_2, ..., T_upto) on the projector labelled rep."""
    rep = as_partition(rep)
    n = sum(rep)
    if not 2 <= upto <= n:
        raise ValueError(f"need 2 <= upto <= n, got {upto}, n={n}")
    return tuple(normalized_character(rep, k) for k in range(2, upto + 1))


@cache
def signature_table(n: int) -> MappingProxyType[tuple[int, ...], Partition]:
    """Map from (T_2..T_k*) eigenvalue tuples to the diagram carrying them.

    Built once per n, in partitions(n) order, and read-only because every
    caller in the process shares it. k_star(n) separates every diagram by
    definition, so a shared signature means the cutoff or the characters
    are broken, and it raises rather than returns.
    """
    upto = k_star(n)
    table: dict[tuple[int, ...], Partition] = {}
    for rep in partitions(n):
        sig = signature(rep, upto)
        if sig in table:
            raise ArithmeticError(
                f"{table[sig]} and {rep} share signature {sig} at k*={upto}, n={n}"
            )
        table[sig] = rep
    return MappingProxyType(table)


def signature_table_csv(n: int) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["partition"] + [f"T_{k}" for k in range(2, k_star(n) + 1)])
    for sig, rep in signature_table(n).items():
        w.writerow([format_partition(rep)] + list(sig))
    return buf.getvalue()


@cache
def k_star(n: int) -> int:
    """Least K with (T_2..T_K) eigenvalues distinct across diagrams.

    Computed without one eigenvalue, from the content power sums
    p_j = content_sum(rep, j): (T_2..T_K) separates exactly where
    (p_1..p_{K-1}) does, because T_k = p_{k-1} + f_k(n, p_1..p_{k-2}) for a
    polynomial f_k. Proof sketch: by Frobenius' formula in contents,
        T_k = -k^-2 [w^-1] w(w-1)...(w-k+1)
              prod_cells (w-c-k)(w-c+1) / ((w-c-k+1)(w-c)).
    The log of the product's cell factor, expanded in 1/w, has w^-m term
    -(1/m) [(c+k)^m - (c+k-1)^m - c^m + (c-1)^m], a second difference of
    c^m of degree m-2 in c. So p_j first appears in the w^-(j+2) term, and
    p_{k-1} reaches [w^-1] only through m = k+1, linearly and with
    coefficient -k^2 before the -k^-2 prefactor; everything else is a
    polynomial in n and lower p_j. Group refinement keeps the work lazy: p_K
    is only summed for diagrams still sharing a prefix with something else.
    k*(1) = 1, since one diagram is separated by the empty prefix; for
    n >= 2, 2 <= k*(n) <= n because the cycle class sums generate the centre.
    """
    if n < 1:
        raise ValueError("cutoff needs n >= 1")
    k, groups = 1, [partitions(n)]
    while groups := [g for g in groups if len(g) > 1]:
        k += 1
        if k > n:
            raise AssertionError(f"no separating prefix up to T_{n} for n={n}")
        refined: list[list[Partition]] = []
        for group in groups:
            buckets: dict[int, list[Partition]] = {}
            for rep in group:
                buckets.setdefault(content_sum(rep, k - 1), []).append(rep)
            refined.extend(buckets.values())
        groups = refined
    return k


def k_star_growth_report(n_max: int) -> list[dict]:
    """Rows (n, k_star, n^{1/4}/log n) for eyeballing the growth heuristic."""
    rows = []
    for n in range(2, n_max + 1):
        rows.append({"n": n, "k_star": k_star(n), "heuristic": n**0.25 / log(n)})
    return rows


def structure_constants(n: int, mu: Partition):
    """Matrix of multiplication by T_mu on the class-sum basis, exact integers.

    Entry [lam][nu] is the coefficient of T_lam in T_mu * T_nu, found by
    counting, for one representative s of class lam, the a in C_mu with
    a^{-1} s in C_nu. Brute force over C_mu, so capped at n <= 8.
    """
    from .groupalgebra import (
        canonical_permutation,
        compose,
        cycle_type,
        inverse,
        permutations_of_type,
    )

    mu = as_partition(mu)
    if sum(mu) != n:
        raise ValueError(f"|{mu}| != {n}")
    if n > STRUCTURE_CONSTANT_BOUND:
        raise ValueError(
            f"structure constants are brute-force counted, capped at n <= {STRUCTURE_CONSTANT_BOUND}"
        )
    labels = partitions(n)
    index = {lam: i for i, lam in enumerate(labels)}
    c_mu = list(permutations_of_type(n, mu))
    matrix = [[0] * len(labels) for _ in labels]
    for lam in labels:
        rep = canonical_permutation(lam)
        row = matrix[index[lam]]
        for a in c_mu:
            row[index[cycle_type(compose(inverse(a), rep))]] += 1
    return tuple(tuple(r) for r in matrix)


class LabelledState:
    """A state stored by its coefficients over a g-orthogonal idempotent basis.

    A subclass passes its constructor's size arguments and its label set, in
    canonical order, and supplies the canonical form of one label
    (`as_label`), the text of the error raised for a label outside the set
    (`label_error`) and the squared g-norm of each basis idempotent
    (`norm_sq`). Coefficients stay exact (ints or Fractions) when the state
    is built from projectors; QPE-facing helpers convert to floats. Because
    the basis is g-orthogonal, the g inner product delta(conj(antipode(a)) b)
    collapses to sum conj(a_L) b_L norm_sq(L).
    """

    size_error = "mismatched n"

    def __init__(self, sizes: tuple[int, ...], labels: tuple, coeffs: dict):
        self.sizes = sizes
        self.labels = labels
        valid = set(labels)
        self.coeffs = {}
        for label, val in coeffs.items():
            label = self.as_label(label)
            if label not in valid:
                raise ValueError(self.label_error.format(label=label, n=self.n))
            if val != 0:
                self.coeffs[label] = val

    def amplitude_scale(self, label) -> float:
        """The l2 weight of a label's amplitude: sqrt(norm_sq)."""
        return float(self.norm_sq(label)) ** 0.5

    def g_inner(self, other: "LabelledState"):
        if self.sizes != other.sizes:
            raise ValueError(self.size_error)
        acc = 0
        for label, a in self.coeffs.items():
            b = other.coeffs.get(label)
            if b is None:
                continue
            a_c = a.conjugate() if isinstance(a, complex) else a
            acc += a_c * b * self.norm_sq(label)
        return acc

    def g_norm_sq(self):
        return self.g_inner(self)

    def normalized(self):
        """Scale to unit g-norm (float coefficients in general)."""
        norm = abs(self.g_norm_sq()) ** 0.5
        if norm == 0:
            raise ValueError("cannot normalize the zero state")
        return type(self)(*self.sizes, {r: v / norm for r, v in self.coeffs.items()})

    def unit_amplitudes(self, order=None):
        """Unit vector of amplitudes over the g-orthonormal idempotent basis.

        The orthonormal basis vectors are the idempotents scaled to unit
        g-norm, so the amplitude carried by label L is a_L sqrt(norm_sq(L)).
        This is the system state the QPE simulator consumes.
        """
        import numpy as np

        if order is None:
            order = self.labels
        amps = np.array(
            [
                complex(self.coeffs.get(label, 0)) * self.amplitude_scale(label)
                for label in order
            ],
            dtype=complex,
        )
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValueError("zero state has no amplitude vector")
        return amps / norm


class CentreState(LabelledState):
    """A centre element stored by its coefficients over the projectors P_R.

    The P_R are g-orthogonal with squared norm d_R^2/n!.
    """

    label_error = "{label} is not a diagram of {n}"
    as_label = staticmethod(as_partition)

    def __init__(self, n: int, coeffs: dict):
        self.n = n
        super().__init__((n,), partitions(n), coeffs)

    def norm_sq(self, rep: Partition) -> Fraction:
        return Fraction(dimension(rep) ** 2, factorial(self.n))

    def amplitude_scale(self, rep: Partition) -> int:
        # d_R, exact as a float where sqrt(d_R^2/n!) is not; the common
        # 1/sqrt(n!) drops out in the l2 normalization
        return dimension(rep)

    @classmethod
    def from_class_sums(cls, n: int, class_coeffs: dict) -> "CentreState":
        """Build from coefficients over the class sums T_mu.

        a_R = sum_mu c_mu |C_mu| chi^R(mu) / d_R, the g-projection onto P_R.
        """
        cleaned = {as_partition(mu): v for mu, v in class_coeffs.items()}
        coeffs = {}
        for rep in partitions(n):
            d = dimension(rep)
            acc = 0
            for mu, c in cleaned.items():
                if sum(mu) != n:
                    raise ValueError(f"|{mu}| != {n}")
                acc += c * class_size(mu) * character(rep, mu)
            val = Fraction(acc, d) if isinstance(acc, int) else acc / d
            coeffs[rep] = val
        return cls(n, coeffs)

    def class_sum_coefficients(self) -> dict[Partition, object]:
        """Coefficients over the class-sum basis: c_mu = sum_R a_R d_R chi^R(mu)/n!."""
        nf = factorial(self.n)
        out = {}
        for mu in partitions(self.n):
            acc = 0
            for rep, a in self.coeffs.items():
                acc += a * dimension(rep) * character(rep, mu)
            out[mu] = Fraction(acc, nf) if isinstance(acc, int) else acc / nf
        return out


def projector_state(rep: Partition) -> CentreState:
    """The projector P_R itself: coefficient one on R, zero elsewhere."""
    rep = as_partition(rep)
    return CentreState(sum(rep), {rep: Fraction(1)})
