"""The benchmark's own symmetric-group arithmetic, independent of projdetect.

Input generation and the meaning checks both run in the benchmark's parent
process, which never imports the library. Everything here is exact integer
or rational arithmetic, small and slow on purpose: it only has to cover the
sizes the workloads use.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial

# Frozen cutoffs k*(n), the acceptance table of the test suite.
KSTAR = {}
for _n in (2, 3, 4, 5, 7):
    KSTAR[_n] = 2
for _n in (6, *range(8, 15)):
    KSTAR[_n] = 3
for _n in (*range(15, 24), 25, 26):
    KSTAR[_n] = 4
for _n in (24, *range(27, 42)):
    KSTAR[_n] = 5
for _n in (*range(42, 80), 81):
    KSTAR[_n] = 6


def fmt(p) -> str:
    return ",".join(map(str, p))


def parse(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


@cache
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n in reverse-lexicographic order, [n] first."""
    if largest is None:
        largest = n
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in partitions(n - first, first)
    )


@cache
def dimension(p: tuple[int, ...]) -> int:
    """Hook length formula."""
    n = sum(p)
    conj = [sum(1 for r in p if r > j) for j in range(p[0])] if p else []
    hooks = 1
    for i, r in enumerate(p):
        for j in range(r):
            hooks *= (r - j) + (conj[j] - i) - 1
    return factorial(n) // hooks


def class_size_k(n: int, k: int) -> int:
    """|T_k| = n!/(k (n-k)!), the number of k-cycles."""
    return factorial(n) // (k * factorial(n - k))


def t_bits(n: int, k: int) -> int:
    """Register bits for one T_k round: ceil(log2(2 |T_k| + 2))."""
    size = 2 * class_size_k(n, k) + 2
    return (size - 1).bit_length()


def round_cost(t: int) -> tuple[int, int]:
    """(queries, gates) of one phase-estimation round on t bits."""
    return t, 2 * t + t * (t - 1) // 2


def _beta(p) -> list[int]:
    return [p[i] + len(p) - 1 - i for i in range(len(p))]


def _from_beta(beta) -> tuple[int, ...]:
    bs = sorted(beta, reverse=True)
    m = len(bs)
    return tuple(x for i, b in enumerate(bs) if (x := b - (m - 1 - i)) > 0)


@cache
def character(rep: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^rep(mu) by Murnaghan-Nakayama on beta numbers, largest part first."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    beta = _beta(rep)
    present = set(beta)
    total = 0
    for b in beta:
        c = b - k
        if c < 0 or c in present:
            continue
        height = sum(1 for x in beta if c < x < b)
        total += (-1) ** height * character(_from_beta([x for x in beta if x != b] + [c]), rest)
    return total


@cache
def eigenvalue(rep: tuple[int, ...], k: int) -> int:
    """T_k eigenvalue on P_rep: |T_k| chi^rep(k-cycle) / dim(rep).

    One k-strip is removed by hand and the remainder is a hook-length
    dimension, so this stays cheap at any n the workloads reach.
    """
    n = sum(rep)
    beta = _beta(rep)
    present = set(beta)
    chi = 0
    for b in beta:
        c = b - k
        if c < 0 or c in present:
            continue
        height = sum(1 for x in beta if c < x < b)
        chi += (-1) ** height * dimension(_from_beta([x for x in beta if x != b] + [c]))
    value = Fraction(class_size_k(n, k) * chi, dimension(rep))
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral eigenvalue for {rep} at k={k}")
    return int(value)


def centralizer(mu) -> int:
    """z_mu = prod k^{m_k} m_k!, the order of the centralizer of cycle type mu."""
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part**m * factorial(m)
    return z


@cache
def kronecker(a, b, c) -> int:
    n = sum(a)
    acc = sum(
        factorial(n) // centralizer(mu) * character(a, mu) * character(b, mu) * character(c, mu)
        for mu in partitions(n)
    )
    return acc // factorial(n)


@cache
def kron_triples(n: int) -> tuple:
    """Triples with nonzero Kronecker coefficient, canonical order."""
    reps = partitions(n)
    return tuple((a, b, c) for a in reps for b in reps for c in reps if kronecker(a, b, c))


@cache
def lr(rep, r1, r2) -> int:
    m, n = sum(r1), sum(r2)
    acc = 0
    for mu1 in partitions(m):
        for mu2 in partitions(n):
            merged = tuple(sorted(mu1 + mu2, reverse=True))
            acc += (
                factorial(m) // centralizer(mu1)
                * (factorial(n) // centralizer(mu2))
                * character(rep, merged)
                * character(r1, mu1)
                * character(r2, mu2)
            )
    return acc // (factorial(m) * factorial(n))


@cache
def lr_triples(m: int, n: int) -> tuple:
    return tuple(
        (rep, r1, r2)
        for rep in partitions(m + n)
        for r1 in partitions(m)
        for r2 in partitions(n)
        if lr(rep, r1, r2)
    )


def induced_dimension(m: int, n: int, r1, r2) -> int:
    """dim Ind_{S_m x S_n}^{S_{m+n}} (R1 x R2) = C(m+n, m) d1 d2."""
    return comb(m + n, m) * dimension(r1) * dimension(r2)


def pair_identity_coefficient(a, b, c) -> Fraction:
    """delta(ptilde) = d_a d_b d_c g(a, b, c) / (n!)^2."""
    n = sum(a)
    num = dimension(a) * dimension(b) * dimension(c) * kronecker(a, b, c)
    return Fraction(num, factorial(n) ** 2)
