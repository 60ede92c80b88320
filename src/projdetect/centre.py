"""The centre of the symmetric group algebra in two bases.

Class sums T_k (all permutations of cycle type [k,1^{n-k}]) and the primitive
central idempotents P_R are both bases of the centre; the change of basis is
the character table. Class-sum eigenvalues on P_R are the normalized
characters, exact integers, and short prefixes of them separate the
idempotents: k_star(n) is the shortest prefix length that works.

Every eigenvalue here is read from one cached column per (n, k) over
partitions(n). content_column(n, j) holds the content power sums p_j, and
eigenvalue_column(n, k) derives T_k from p_0..p_{k-1} by an integer
recurrence (eigenvalue_from_contents). k_star refines on the p-columns
alone; signature_table, chi_max, normalized_character and the detectors'
round register values read the T-columns. The per-cell content_sum and
symgroup.normalized_character_exact are the tests' referees.
"""

from collections.abc import Mapping
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, chain
from math import comb, factorial, log, perm
from types import MappingProxyType
import csv
import io

import numpy as np

from .symgroup import (
    Partition,
    as_partition,
    character_matrix,
    class_size,
    dimension,
    format_partition,
    partition_index,
    partitions,
)

STRUCTURE_CONSTANT_BOUND = 8

# Diagrams per block when content_column sums rows; it bounds the per-row
# temporaries, which at n = 38 would otherwise reach a few MB per column.
_BLOCK = 4096


def cycle_class_size(n: int, k: int) -> int:
    """|T_k| = n!/(k (n-k)!), the number of k-cycles in S_n."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    return factorial(n) // (k * factorial(n - k))


def content_sum(rep: Partition, power: int = 1) -> int:
    """p_power: the sum of (j - i)**power over diagram cells (i, j), 0-based.

    One diagram, cell by cell; the referee of content_column.
    """
    rep = as_partition(rep)
    return sum(c**power for i, r in enumerate(rep) for c in range(-i, r - i))


@lru_cache(maxsize=1)
def _rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The parts of every diagram of n back to back, and each diagram's part count.

    One byte per row and one per diagram, as uint8: a part or a part count
    of n fits below 256 wherever partitions(n) fits in memory. Only the
    last n's rows are kept, which is what k_star and then signature_table
    read one content column after another.
    """
    reps = partitions(n)
    return (
        np.frombuffer(bytes(chain.from_iterable(reps)), np.uint8),
        np.frombuffer(bytes(map(len, reps)), np.uint8),
    )


def _row_blocks(n: int):
    """The rows of partitions(n), up to _BLOCK diagrams at a time.

    Yields (first diagram, hi, lo, first row of each diagram): row i of
    length r holds the contents -i..r-1-i, which are the prefix-table
    entries lo = n - i up to hi = n - i + r, exclusive. The int32 arrays
    have one entry per row of the block, none per cell.
    """
    parts, counts = _rows(n)
    first_row = 0
    for start in range(0, len(counts), _BLOCK):
        block = counts[start : start + _BLOCK].astype(np.int32)
        heads = np.zeros(len(block), np.int32)
        np.cumsum(block[:-1], out=heads[1:])
        end_row = first_row + int(heads[-1] + block[-1])
        lo = n - (np.arange(end_row - first_row, dtype=np.int32) - np.repeat(heads, block))
        yield start, lo + parts[first_row:end_row], lo, heads
        first_row = end_row


@cache
def content_column(n: int, power: int) -> np.ndarray:
    """p_power of every diagram of n, in partitions(n) order; read-only.

    A row's sum is a difference of two entries of the prefix sums of
    c**power over c in [-n, n], and reduceat adds each diagram's rows. Every
    prefix entry is at most (2n+1) n**power in size and every partial sum
    at most n**(power+1), so int64 is exact below that bound; past it the
    column holds Python ints (dtype object).
    """
    if n < 1 or power < 0:
        raise ValueError(f"need n >= 1 and power >= 0, got n={n}, power={power}")
    dtype = np.int64 if (2 * n + 1) * n**power < 2**63 else object
    prefix = np.array([0, *accumulate(c**power for c in range(-n, n + 1))], dtype=dtype)
    column = np.empty(len(partitions(n)), dtype)
    for start, hi, lo, heads in _row_blocks(n):
        column[start : start + len(heads)] = np.add.reduceat(prefix[hi] - prefix[lo], heads)
    column.flags.writeable = False
    return column


def eigenvalue_from_contents(k: int, p):
    """T_k from the content power sums p = (p_0, ..., p_{k-1}), in integers.

    Frobenius' formula in contents (see k_star) with x = 1/w: the cell
    product is exp(sum_m l_m x^m / m), where, with
    a_e = k^e + (-1)^e - (k-1)^e,
        l_m = -sum_{j <= m-2} C(m, j) a_{m-j} p_j.
    G_r = r! [x^r] exp(...) obeys G_0 = 1 and
        G_r = sum_{m=2}^{r} l_m (r-1)!/(r-m)! G_{r-m},
    and w(w-1)...(w-k+1) = sum_j s(k, j) w^j with s the signed Stirling
    numbers of the first kind, so
        T_k = -sum_j s(k, j) (k+1)!/(j+1)! G_{j+1} / (k^2 (k+1)!).
    The p_j may be ints or integer arrays, one entry per diagram; the result
    is of the same kind. A remainder in the last division means the formula
    or its input is wrong, so it raises.
    """
    if k < 2 or len(p) < k:
        raise ValueError(f"need k >= 2 and p_0..p_{k - 1}, got k={k}, {len(p)} sums")
    num, den = _frobenius(k, p)
    if np.any(num % den):
        raise ArithmeticError(f"T_{k} from content power sums is not an integer")
    return num // den


def _frobenius(k: int, p, sign=int):
    """(numerator, denominator) of T_k in eigenvalue_from_contents.

    sign is applied to every signed coefficient: int keeps it. abs, given
    bounds on the |p_j|, makes the numerator a bound on every value the int
    version computes, since each is a sum of products that the abs version
    adds without cancellation.
    """
    a = [sign(k**e + (-1) ** e - (k - 1) ** e) for e in range(k + 2)]
    ell = [0, 0] + [
        sign(-1) * sum(comb(m, j) * a[m - j] * p[j] for j in range(m - 1))
        for m in range(2, k + 2)
    ]
    g = [1]
    for r in range(1, k + 2):
        g.append(sum(ell[m] * perm(r - 1, m - 1) * g[r - m] for m in range(2, r + 1)))
    stirling = [1]  # s(k, 0..k), the coefficients of w(w-1)...(w-k+1)
    for i in range(k):
        stirling = [
            (stirling[j - 1] if j else 0) - (i * stirling[j] if j < len(stirling) else 0)
            for j in range(len(stirling) + 1)
        ]
    top = factorial(k + 1)
    terms = (sign(s) * (top // factorial(j + 1)) * g[j + 1] for j, s in enumerate(stirling) if s)
    return sign(-1) * sum(terms), k * k * top


@cache
def eigenvalue_column(n: int, k: int) -> np.ndarray:
    """T_k eigenvalue of every diagram of n, in partitions(n) order; read-only.

    eigenvalue_from_contents on content_column(n, 1..k-1), with p_0 = n. It
    runs in int64 when _frobenius bounds every intermediate value below 2^63
    from |p_j| <= n (n-1)^j, and on Python ints (dtype object) otherwise. The
    column is int64 where |T_k| <= |C_k| fits.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    bound, den = _frobenius(k, [n * (n - 1) ** j for j in range(k)], abs)
    dtype = np.int64 if max(bound, den) < 2**63 else object
    p = [n] + [content_column(n, j).astype(dtype) for j in range(1, k)]
    fits = cycle_class_size(n, k) < 2**63
    column = np.asarray(eigenvalue_from_contents(k, p), dtype=np.int64 if fits else object)
    column.flags.writeable = False
    return column


def normalized_character(rep: Partition, k: int) -> int:
    """Eigenvalue of the k-cycle class sum on the projector labelled rep."""
    rep = as_partition(rep)
    n = sum(rep)
    return int(eigenvalue_column(n, k)[partition_index(n)[rep]])


def chi_max(n: int, k: int) -> int:
    """Largest T_k eigenvalue over all diagrams with n boxes.

    Computed by scanning the eigenvalue column, then asserted equal to the
    closed form |T_k|, attained on the one-row diagram. A mismatch means the
    eigenvalue machinery is broken, so it raises rather than returns.
    """
    best = int(eigenvalue_column(n, k).max())
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

    Built once per n by zipping the eigenvalue columns in partitions(n)
    order, and read-only because every caller in the process shares it.
    k_star(n) separates every diagram by definition, so a shared signature
    means the cutoff or the eigenvalues are broken, and it raises rather
    than returns.
    """
    upto = k_star(n)
    if upto < 2:
        raise ValueError(f"need 2 <= upto <= n, got {upto}, n={n}")
    columns = [eigenvalue_column(n, k).tolist() for k in range(2, upto + 1)]
    table: dict[tuple[int, ...], Partition] = {}
    for rep, sig in zip(partitions(n), zip(*columns)):
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

    Computed without one eigenvalue, from the content power sums p_j, one
    content_column at a time: (T_2..T_K) separates exactly where
    (p_1..p_{K-1}) does, because T_k = p_{k-1} + f_k(n, p_1..p_{k-2}) for a
    polynomial f_k. Proof sketch: by Frobenius' formula in contents,
        T_k = -k^-2 [w^-1] w(w-1)...(w-k+1)
              prod_cells (w-c-k)(w-c+1) / ((w-c-k+1)(w-c)).
    The log of the product's cell factor, expanded in 1/w, has w^-m term
    -(1/m) [(c+k)^m - (c+k-1)^m - c^m + (c-1)^m], a second difference of
    c^m of degree m-2 in c. So p_j first appears in the w^-(j+2) term, and
    p_{k-1} reaches [w^-1] only through m = k+1, linearly and with
    coefficient -k^2 before the -k^-2 prefactor; everything else is a
    polynomial in n and lower p_j. eigenvalue_from_contents evaluates the
    same formula. Each diagram carries an integer group id, refined by
    np.unique over (id, p_K) pairs until the ids are distinct, so p_K is
    only built while some diagrams still share a prefix.
    k*(1) = 1, since one diagram is separated by the empty prefix; for
    n >= 2, 2 <= k*(n) <= n because the cycle class sums generate the centre.
    """
    if n < 1:
        raise ValueError("cutoff needs n >= 1")
    ids = np.zeros(len(partitions(n)), np.int64)
    k, groups = 1, 1
    while groups < len(ids):
        k += 1
        if k > n:
            raise AssertionError(f"no separating prefix up to T_{n} for n={n}")
        _, values = np.unique(content_column(n, k - 1), return_inverse=True)
        pairs, ids = np.unique(ids * len(ids) + values, return_inverse=True)
        groups = len(pairs)
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
    index = partition_index(n)
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

    A subclass passes its constructor's size arguments and its cached label
    map, whose keys are the labels in canonical order, and supplies the
    canonical form of one label
    (`as_label`), the text of the error raised for a label outside the set
    (`label_error`) and the squared g-norm of each basis idempotent
    (`norm_sq`). Coefficients stay exact (ints or Fractions) when the state
    is built from projectors; QPE-facing helpers convert to floats. Because
    the basis is g-orthogonal, the g inner product delta(conj(antipode(a)) b)
    collapses to sum conj(a_L) b_L norm_sq(L).
    """

    size_error = "mismatched n"

    def __init__(self, sizes: tuple[int, ...], labels: Mapping, coeffs: dict):
        self.sizes = sizes
        self.labels = labels
        self.coeffs = {}
        for label, val in coeffs.items():
            label = self.as_label(label)
            if label not in labels:
                raise ValueError(self.label_error.format(label=label, n=self.n))
            if val != 0:
                self.coeffs[label] = val

    @classmethod
    def _canonical(cls, sizes: tuple[int, ...], coeffs: dict) -> "LabelledState":
        """A state whose labels are already canonical keys of its label map.

        The library's own builders pass coefficients keyed by labels read
        from the label map, so nothing is validated again; zeros are still
        dropped. A caller's labels go through the constructor, which checks
        each one.
        """
        state = cls(*sizes, {})
        state.coeffs = {label: val for label, val in coeffs.items() if val != 0}
        return state

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
        return self._canonical(self.sizes, {r: v / norm for r, v in self.coeffs.items()})

    def support(self) -> list:
        """The labels with a nonzero coefficient, in canonical (descending) order."""
        return sorted(self.coeffs, reverse=True)

    def unit_amplitudes(self):
        """Unit vector of amplitudes over the support's g-orthonormal idempotents.

        The orthonormal basis vectors are the idempotents scaled to unit
        g-norm, so the amplitude carried by label L is a_L sqrt(norm_sq(L)).
        This is the system state the QPE simulator consumes.
        """
        amps = np.array(
            [complex(self.coeffs[label]) * self.amplitude_scale(label) for label in self.support()],
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
        super().__init__((n,), partition_index(n), coeffs)

    def norm_sq(self, rep: Partition) -> Fraction:
        return Fraction(dimension(rep) ** 2, factorial(self.n))

    def amplitude_scale(self, rep: Partition) -> int:
        # d_R, exact as a float where sqrt(d_R^2/n!) is not; the common
        # 1/sqrt(n!) drops out in the l2 normalization
        return dimension(rep)

    @classmethod
    def from_class_sums(cls, n: int, class_coeffs: dict) -> "CentreState":
        """Build from coefficients over the class sums T_mu.

        a_R = sum_mu c_mu |C_mu| chi^R(mu) / d_R, the g-projection onto P_R:
        one product of the character matrix with the weighted coefficients.
        """
        index = partition_index(n)
        weighted = np.zeros(len(index), dtype=object)
        for mu, c in {as_partition(mu): c for mu, c in class_coeffs.items()}.items():
            if sum(mu) != n:
                raise ValueError(f"|{mu}| != {n}")
            weighted[index[mu]] = c * class_size(mu)
        sums = character_matrix(n).astype(object) @ weighted
        coeffs = {rep: _over(acc, dimension(rep)) for rep, acc in zip(index, sums)}
        return cls._canonical((n,), coeffs)

    def class_sum_coefficients(self) -> dict[Partition, object]:
        """Coefficients over the class-sum basis: c_mu = sum_R a_R d_R chi^R(mu)/n!."""
        index = partition_index(self.n)
        weighted = np.zeros(len(index), dtype=object)
        for rep, a in self.coeffs.items():
            weighted[index[rep]] = a * dimension(rep)
        sums = weighted @ character_matrix(self.n).astype(object)
        return {mu: _over(acc, factorial(self.n)) for mu, acc in zip(index, sums)}


def _over(acc, divisor: int):
    """acc / divisor, as a Fraction when acc is an int."""
    return Fraction(acc, divisor) if isinstance(acc, int) else acc / divisor


def projector_state(rep: Partition) -> CentreState:
    """The projector P_R itself: coefficient one on R, zero elsewhere."""
    rep = as_partition(rep)
    return CentreState(sum(rep), {rep: Fraction(1)})
