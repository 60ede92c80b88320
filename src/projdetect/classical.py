"""Classical eigenvalue estimation by l2-sampling the regular representation.

The normalized character of T_k on the diagram R is the ratio <X, Y>/|X|^2,
where X is the projector column over group elements, X_gamma = (d_R/n!)
chi^R(gamma), and Y is the 0/1 indicator row of the k-cycle class. A sampler
that draws gamma with probability X_gamma^2/|X|^2 and evaluates the importance
ratio Y_gamma |X|^2 / X_gamma gives an unbiased inner-product estimate with
variance at most |X|^2 |Y|^2, and a median of means pins the value down.

Both X and Y are class functions, so s independent draws aggregate into one
multinomial over conjugacy classes; the sampler uses that aggregation (it is
distribution-identical to element-level sampling and keeps the arithmetic
exact) while the query ledger still charges every sampled index and every
row-entry read, as the element-level algorithm would.

Two accuracy scales matter and they are far apart. epsilon_star = 1/(|X||Y|)
is the scale at which a single Chebyshev mean becomes informative about the
inner product; resolving the eigenvalue by integer rounding needs
inner-product error below |X|^2/2, which is the relative scale
epsilon = |X|/(2|Y|), a factor 2 n!/d_R^2 smaller. Estimation defaults to the
resolving scale; the epsilon_star scale can be requested explicitly and its
failure to resolve integers observed.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, factorial, floor, log
from statistics import median

import numpy as np

from .centre import (
    cycle_class_size,
    eigenvalue_column,
    k_star,
    normalized_character,
    signature_table,
)
from .symgroup import (
    Partition,
    as_partition,
    character,
    class_size,
    dimension,
    format_partition,
    partitions,
)

MEANS_FACTOR = 6
SAMPLES_NUMERATOR = 9
# rng.multinomial takes its draw count as an int64
SAMPLE_COUNT_LIMIT = 2**63


def preg_entry(rep: Partition, gamma, mu) -> Fraction:
    """Regular-representation projector matrix entry (d_R/n!) chi^R(gamma mu^-1)."""
    from .groupalgebra import compose, cycle_type, inverse

    rep = as_partition(rep)
    n = sum(rep)
    gamma, mu = tuple(gamma), tuple(mu)
    if len(gamma) != n or len(mu) != n:
        raise ValueError(f"permutations must lie in S_{n}")
    typ = cycle_type(compose(gamma, inverse(mu)))
    return Fraction(dimension(rep) * character(rep, typ), factorial(n))


def tk_row_entry(sigma, tau, k: int) -> int:
    """1 iff sigma tau^-1 is a k-cycle (cycle type [k, 1^{n-k}]), else 0."""
    from .groupalgebra import compose, cycle_type, inverse

    sigma, tau = tuple(sigma), tuple(tau)
    n = len(sigma)
    if len(tau) != n:
        raise ValueError("permutations must have equal degree")
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}")
    target = as_partition([k] + [1] * (n - k))
    return int(cycle_type(compose(sigma, inverse(tau))) == target)


class ProjectorColumnOracle:
    """l2-sampling access to the column X_gamma = (d_R/n!) chi^R(gamma).

    This is the mu = identity column of the projector matrix. Entries are
    read by cycle type (entry_by_key), charged once per group element that
    the element-level oracle model would read; the query counter also charges
    every norm read and every sampled index, even though sampling is
    simulated class-wise. Sampling returns the drawn key along with access to
    its value, so a draw is one query and the ratio evaluation needs no
    second read.
    """

    def __init__(self, rep: Partition):
        self.rep = as_partition(rep)
        self.n = sum(self.rep)
        self.dim = dimension(self.rep)
        self.queries = 0
        self._chi = {mu: character(self.rep, mu) for mu in partitions(self.n)}
        nf = factorial(self.n)
        self._norm_sq = Fraction(self.dim**2, nf)
        self._probs = {
            mu: Fraction(class_size(mu) * self._chi[mu] ** 2, nf)
            for mu in partitions(self.n)
        }

    def _entry(self, mu: Partition) -> Fraction:
        return Fraction(self.dim * self._chi[mu], factorial(self.n))

    def entry_by_key(self, mu: Partition, charge: int = 1) -> Fraction:
        self.queries += charge
        return self._entry(as_partition(mu))

    def norm_sq(self) -> Fraction:
        """|X|^2 = d_R^2/n! (column orthogonality of characters)."""
        self.queries += 1
        return self._norm_sq

    def class_probabilities(self) -> dict[Partition, Fraction]:
        """P(type gamma = mu) under X^2/|X|^2 sampling: |C_mu| chi(mu)^2 / n!."""
        return dict(self._probs)

    def sample_counts(self, count: int, rng: np.random.Generator) -> dict[Partition, int]:
        """Aggregate of `count` iid index draws, bucketed by cycle type."""
        self.queries += count
        labels = [mu for mu in partitions(self.n) if self._probs[mu]]
        probs = np.array([float(self._probs[mu]) for mu in labels])
        draws = rng.multinomial(count, probs / probs.sum())
        return {mu: int(c) for mu, c in zip(labels, draws) if c}


class CycleClassRowOracle:
    """The 0/1 row of T_k in the regular representation: membership in C_k."""

    def __init__(self, n: int, k: int):
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}")
        self.n = n
        self.k = k
        self.cycle_type = as_partition([k] + [1] * (n - k))
        self.queries = 0

    def _entry(self, mu: Partition) -> int:
        return int(mu == self.cycle_type)

    def entry_by_key(self, mu: Partition, charge: int = 1) -> int:
        self.queries += charge
        return self._entry(as_partition(mu))

    def norm_sq(self) -> int:
        """|Y|^2 = |T_k| = n!/(k (n-k)!)."""
        self.queries += 1
        return cycle_class_size(self.n, self.k)


class VectorOracle:
    """l2-sampling access to an explicit vector, for generic estimator checks.

    Keys are plain indices; sampling aggregates into a multinomial over them,
    distribution-identical to drawing indices one at a time.
    """

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)
        if self.vector.ndim != 1:
            raise ValueError("oracle wants a flat vector")
        self.queries = 0
        self._norm_sq = float(self.vector @ self.vector)

    def _entry(self, i: int) -> float:
        return float(self.vector[i])

    def entry_by_key(self, i: int, charge: int = 1) -> float:
        self.queries += charge
        return self._entry(i)

    def norm_sq(self) -> float:
        self.queries += 1
        return self._norm_sq

    def sample_counts(self, count: int, rng: np.random.Generator) -> dict[int, int]:
        if self._norm_sq == 0:
            raise ValueError("cannot l2-sample a zero vector")
        self.queries += count
        probs = self.vector**2 / self._norm_sq
        draws = rng.multinomial(count, probs / probs.sum())
        return {int(i): int(c) for i, c in enumerate(draws) if c}


@dataclass
class SampleEstimate:
    value: object
    epsilon: float
    delta: float
    queries: int
    means: int
    samples_per_mean: int


def sample_budget(epsilon_sq, delta: float = 0.05) -> tuple[int, int]:
    """(means r, samples per mean s) = (6 ceil(ln(1/delta)), ceil(9/epsilon^2)).

    epsilon_sq is the exact square of the accuracy scale (the resolving
    epsilon is an irrational square root, but its square is rational), so s
    carries no rounding error.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if epsilon_sq <= 0:
        raise ValueError("epsilon must be positive")
    r = MEANS_FACTOR * ceil(-log(delta))  # 1 / delta overflows for a subnormal delta
    s = ceil(SAMPLES_NUMERATOR / Fraction(epsilon_sq))
    return r, s


def l2_inner_product(
    x_oracle, y_oracle, epsilon_sq, delta: float = 0.05, seed: int = 0, rng=None
) -> SampleEstimate:
    """Median-of-means estimate of <X, Y> from l2-samples of X.

    Draws r = 6 ceil(ln(1/delta)) means of s = ceil(9/epsilon^2) samples; a
    single sample at index i contributes Z = Y_i |X|^2 / X_i, unbiased with
    variance at most |X|^2 |Y|^2, so each mean misses <X, Y> by more than
    epsilon |X||Y| with probability at most 1/9 (Chebyshev) and the median of
    r means fails with probability well under delta. queries is what the
    oracles counted over the call: one per sampled index, one per Y-entry
    read, one per norm, 2 r s + 2 in total. An s of 2^63 or more is refused
    before any query or draw, as the sampler cannot count that many.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    oracles = (x_oracle,) if y_oracle is x_oracle else (x_oracle, y_oracle)
    start = sum(o.queries for o in oracles)
    r, s = sample_budget(epsilon_sq, delta)
    if s >= SAMPLE_COUNT_LIMIT:
        raise ValueError(f"{s} samples per mean reach the sampler's limit of 2^63")
    x_norm_sq = x_oracle.norm_sq()
    if x_norm_sq == 0:
        raise ValueError("cannot l2-sample a zero vector")
    y_oracle.norm_sq()
    means = []
    for _ in range(r):
        counts = x_oracle.sample_counts(s, rng)
        acc = 0 * x_norm_sq
        for key, c in counts.items():
            y_val = y_oracle.entry_by_key(key, charge=c)
            if y_val:
                acc += c * y_val * x_norm_sq / x_oracle._entry(key)
        means.append(acc / s)
    return SampleEstimate(
        value=median(means),
        epsilon=float(epsilon_sq) ** 0.5,
        delta=delta,
        queries=sum(o.queries for o in oracles) - start,
        means=r,
        samples_per_mean=s,
    )


def epsilon_star(rep: Partition, k: int) -> float:
    """The single-Chebyshev scale 1/(|X||Y|) = sqrt(n!/d^2) sqrt(k(n-k)!/n!).

    At this scale l2_inner_product promises an additive error of at most
    epsilon_star |X||Y| = 1 on <X, Y>, which is n!/d_R^2 on the eigenvalue,
    with probability at least 1 - delta. That does not resolve integers.
    """
    return float(epsilon_star_sq(rep, k)) ** 0.5


def epsilon_star_sq(rep: Partition, k: int) -> Fraction:
    """Exact square of epsilon_star: k (n-k)!/d_R^2."""
    rep = as_partition(rep)
    n = sum(rep)
    return Fraction(k * factorial(n - k), dimension(rep) ** 2)


def resolving_epsilon_sq(rep: Partition, k: int) -> Fraction:
    """Square of epsilon = |X|/(2|Y|), the scale that resolves integers."""
    rep = as_partition(rep)
    n = sum(rep)
    return Fraction(dimension(rep) ** 2, factorial(n)) / (4 * cycle_class_size(n, k))


def _round_half_up(value) -> int:
    if isinstance(value, Fraction):
        return floor(value + Fraction(1, 2))
    return floor(value + 0.5)


@dataclass
class EigenvalueEstimate:
    rep: Partition
    k: int
    value: int
    raw: object
    epsilon: float
    epsilon_star: float
    flagged: bool
    sample: SampleEstimate


def estimate_eigenvalue(
    rep: Partition,
    k: int,
    delta: float = 0.05,
    seed: int = 0,
    rng=None,
    epsilon_sq=None,
) -> EigenvalueEstimate:
    """Estimate the T_k eigenvalue on diagram rep by l2-sampling.

    X is the identity column of the projector matrix, Y the T_k indicator
    row; the eigenvalue is <X, Y>/|X|^2, and the diagonal entry
    preg_entry(R, e, e) equals |X|^2, so the already-read norm serves as the
    divisor. epsilon_sq, the exact squared scale, defaults to the resolving
    scale (|X|/(2|Y|))^2, under which the rounded integer is exact with
    probability at least 1 - delta. Passing epsilon_star_sq(rep, k) instead
    promises only an additive error of at most epsilon_star |X||Y| = 1 on
    <X, Y>, which is n!/d_R^2 on the eigenvalue, with probability at least
    1 - delta; that does not resolve integers, so the rounded value is
    unreliable there. The estimate is flagged when the rounded value is not
    an eigenvalue any diagram of n takes on T_k.
    """
    rep = as_partition(rep)
    n = sum(rep)
    if rng is None:
        rng = np.random.default_rng(seed)
    if epsilon_sq is None:
        epsilon_sq = resolving_epsilon_sq(rep, k)
    x = ProjectorColumnOracle(rep)
    y = CycleClassRowOracle(n, k)
    sample = l2_inner_product(x, y, epsilon_sq, delta=delta, rng=rng)
    ratio = sample.value / x._norm_sq
    value = _round_half_up(ratio)
    return EigenvalueEstimate(
        rep=rep,
        k=k,
        value=value,
        raw=ratio,
        epsilon=sample.epsilon,
        epsilon_star=epsilon_star(rep, k),
        flagged=not (eigenvalue_column(n, k) == value).any(),
        sample=sample,
    )


def q_star(rep: Partition, k: int) -> Fraction:
    """Headline per-k query scale n^k d_R^2/(k n!)."""
    rep = as_partition(rep)
    n = sum(rep)
    return Fraction(n**k * dimension(rep) ** 2, k * factorial(n))


@dataclass
class ClassicalTranscript:
    n: int
    k_star: int
    delta: float
    seed: int
    true_label: Partition | None = None
    per_k: list[dict] = field(default_factory=list)
    signature: tuple[int, ...] = ()
    detected: Partition | None = None
    queries: int = 0

    def to_dict(self) -> dict:
        return {
            "schema": "1",
            "n": self.n,
            "k_star": self.k_star,
            "delta": self.delta,
            "seed": self.seed,
            "true_label": None if self.true_label is None else format_partition(self.true_label),
            "per_k": self.per_k,
            "signature": list(self.signature),
            "detected": format_partition(self.detected) if self.detected else None,
            "queries": self.queries,
        }


def classical_detect(rep: Partition, delta: float = 0.05, seed: int = 0) -> ClassicalTranscript:
    """Estimate the signature (T_2..T_k*) by sampling and look it up.

    One shared generator drives all rounds. detected stays None when the
    estimated signature matches no diagram; a wrong-but-valid signature comes
    back as a wrong diagram. Both count as detection failures. Each per-k row
    carries the measured queries, the estimate, the true eigenvalue, and the
    q_star scale it is compared against.
    """
    rep = as_partition(rep)
    n = sum(rep)
    cutoff = k_star(n)
    rng = np.random.default_rng(seed)
    transcript = ClassicalTranscript(
        n=n, k_star=cutoff, delta=delta, seed=seed, true_label=rep
    )
    sig = []
    for k in range(2, cutoff + 1):
        est = estimate_eigenvalue(rep, k, delta=delta, rng=rng)
        sig.append(est.value)
        transcript.queries += est.sample.queries
        transcript.per_k.append(
            {
                "k": k,
                "queries": est.sample.queries,
                "estimate": est.value,
                "truth": normalized_character(rep, k),
                "q_star": float(q_star(rep, k)),
            }
        )
    transcript.signature = tuple(sig)
    transcript.detected = signature_table(n).get(transcript.signature)
    return transcript


def dmax_bounds(n: int) -> tuple[float, float, int]:
    """(lower, upper, actual) bracket for the largest irrep dimension.

    Exactly two diagrams are one-dimensional (one-row and one-column), so the
    remaining p(n) - 2 share n! - 2 between their squared dimensions: the
    largest is at least the root-mean share and at most the root of the whole
    remainder.
    """
    if n < 3:
        raise ValueError("bounds need n >= 3")
    reps = partitions(n)
    dims = [dimension(r) for r in reps]
    if sum(1 for d in dims if d == 1) != 2:
        raise AssertionError("expected exactly two one-dimensional diagrams")
    lower = ((factorial(n) - 2) / (len(reps) - 2)) ** 0.5
    upper = (factorial(n) - 2) ** 0.5
    return lower, upper, max(dims)


def deterministic_queries(rep: Partition, k: int, delta: float = 0.05) -> int:
    """Query count of estimate_eigenvalue at the resolving scale, no sampling."""
    r, s = sample_budget(resolving_epsilon_sq(rep, k), delta)
    return 2 * r * s + 2


def classical_complexity_report(n_values, delta: float = 0.05) -> list[dict]:
    """Deterministic detection query totals for the widest diagram of each n.

    Sample counts depend only on the diagram and k, so totals are exact
    without running the sampler. The ratio column divides by n^{k_star}/k_star,
    the headline classical rate; the quantum column is the phase-estimation
    query total for the same n.
    """
    from .detection import complexity_report

    rows = []
    for n in n_values:
        cutoff = k_star(n)
        reps = partitions(n)
        dmax = max(dimension(r) for r in reps)
        rep = next(r for r in reps if dimension(r) == dmax)
        total = sum(deterministic_queries(rep, k, delta) for k in range(2, cutoff + 1))
        rate = n**cutoff / cutoff
        rows.append(
            {
                "n": n,
                "k_star": cutoff,
                "rep": format_partition(rep),
                "d_max": dmax,
                "queries": total,
                "rate": rate,
                "ratio": total / rate,
                "quantum_queries": complexity_report(n)["query_total"],
            }
        )
    return rows
