"""Partitions of n and exact character theory of the symmetric group.

Everything here is integer-exact: partitions are plain tuples in
reverse-lexicographic order, dimensions come from the hook length formula,
and ordinary characters from the Murnaghan-Nakayama rule. The whole table
of S_n is filled a block of columns at a time from the tables of smaller
groups (character_matrix); the per-entry border-strip recursion
(character) is the single-entry route and the table's test-held referee.
No floating point enters this module: table entries are int64 only where a
bound proves them exact, and Python ints otherwise.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial
import csv
import io
import json

import numpy as np

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate and canonicalize a partition given as any iterable of ints.

    Parts must be integers (a part equal to its int(), so 2.0 passes and 2.5
    or "2" does not), positive and weakly decreasing. Zero parts are rejected
    rather than stripped so malformed input surfaces early.
    """
    given = tuple(parts)
    p = tuple(map(int, given))
    if p != given:
        raise ValueError(f"partition parts must be integers: {given}")
    if p and min(p) <= 0:
        raise ValueError(f"partition parts must be positive: {p}")
    if list(p) != sorted(p, reverse=True):
        raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


def parse_partition(text: str) -> Partition:
    """Parse a comma-joined partition string such as "3,2,1". "" is empty."""
    text = text.strip()
    if not text:
        return ()
    parts = []
    for tok in text.split(","):
        try:
            parts.append(int(tok))
        except ValueError:
            raise ValueError(f"not a partition: bad token {tok.strip()!r} in {text!r}") from None
    try:
        return as_partition(parts)
    except ValueError:
        raise ValueError(f"not a partition: {text!r}") from None


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p)


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, [n] first, [1^n] last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partitions_below(n, n)


@cache
def partition_index(n: int) -> dict[Partition, int]:
    """Position of each partition of n in partitions(n); shared, so never mutate it."""
    return {p: i for i, p in enumerate(partitions(n))}


@cache
def _partitions_below(n: int, mx: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, mx), 0, -1):
        out.extend((first,) + rest for rest in _partitions_below(n - first, first))
    return tuple(out)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not p:
        return ()
    return tuple(sum(1 for r in p if r > j) for j in range(p[0]))


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod k^{m_k} m_k! over cycle lengths k with multiplicity m_k."""
    z = 1
    for k, m in Counter(mu).items():
        z *= k**m * factorial(m)
    return z


@cache
def class_size(mu: Partition) -> int:
    """Number of permutations with cycle type mu: n!/z_mu."""
    n = sum(mu)
    return factorial(n) // centralizer_order(mu)


def beta_numbers(p: Partition) -> list[int]:
    """First-column hook lengths p_i + (rows - i), a strictly decreasing list."""
    rows = len(p)
    return [p[i] + rows - 1 - i for i in range(rows)]


def _partition_from_beta(beta: list[int]) -> Partition:
    bs = sorted(beta, reverse=True)
    m = len(bs)
    return tuple(x for i, b in enumerate(bs) if (x := b - (m - 1 - i)) > 0)


@cache
def dimension(p: Partition) -> int:
    """Dimension of the irreducible labelled by p, via the hook length formula."""
    n = sum(p)
    if n == 0:
        return 1
    conj = conjugate(p)
    hooks = 1
    for i, r in enumerate(p):
        for j in range(r):
            hooks *= (r - j) + (conj[j] - i) - 1
    d, rem = divmod(factorial(n), hooks)
    if rem:
        raise ArithmeticError(f"hook product does not divide n! for {p}")
    return d


@cache
def character(rep: Partition, mu: Partition) -> int:
    """Ordinary irreducible character chi^rep evaluated on cycle type mu.

    Murnaghan-Nakayama recursion over border strips, implemented on beta
    numbers: removing a strip of length k replaces a beta number b by b-k,
    with sign (-1)^{number of beta numbers strictly between}. When the
    remaining cycle type is all ones the recursion bottoms out at the
    dimension, which the hook length formula gives directly.
    """
    if sum(rep) != sum(mu):
        raise ValueError(f"weight mismatch: |{rep}| != |{mu}|")
    return _mn(rep, mu)


@cache
def _mn(rep: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    if all(x == 1 for x in mu):
        return dimension(rep)
    k, rest = mu[0], mu[1:]
    beta = beta_numbers(rep)
    present = set(beta)
    total = 0
    for b in beta:
        c = b - k
        if c < 0 or c in present:
            continue
        height = sum(1 for x in beta if c < x < b)
        leftover = [x for x in beta if x != b] + [c]
        total += (-1) ** height * _mn(_partition_from_beta(leftover), rest)
    return total


def normalized_character_exact(rep: Partition, k: int) -> int:
    """|C_{[k,1^{n-k}]}| * chi^rep([k,1^{n-k}]) / dim(rep), exactly.

    Uses the border-strip ratio form: each removable strip (a beta number b
    with b-k >= 0 and b-k free) contributes b!/(b-k)! times the product over
    the other beta numbers c of (c-b+k)/(c-b); the sum divided by k is the
    eigenvalue of the k-cycle class sum on the rep. The Murnaghan-Nakayama
    sign cancels against the re-sorting sign of the beta Vandermonde, which
    is what makes each term a plain signed rational. Exactness is enforced:
    a non-integer result raises, it would mean the implementation is wrong.
    """
    n = sum(rep)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    beta = beta_numbers(rep)
    present = set(beta)
    total = Fraction(0)
    for b in beta:
        if b - k < 0 or (b - k) in present:
            continue
        num = 1
        for j in range(k):
            num *= b - j
        den = 1
        for c in beta:
            if c == b:
                continue
            num *= c - b + k
            den *= c - b
        total += Fraction(num, den)
    value = total / k
    if value.denominator != 1:
        raise ArithmeticError(
            f"normalized character of {rep} at k={k} is not an integer: {value}"
        )
    return int(value)


def _rim_hooks(n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The rim hooks of every diagram of n, grouped by length k = 1..n.

    Entry k - 1 holds three arrays, one item per k-rim hook: the diagram's row
    in partitions(n), in ascending order; the row of what is left in
    partitions(n - k); and whether the hook's height is odd. On beta
    numbers, a hook moves one beta number b down to a free c < b, and its
    height is the count of beta numbers strictly between c and b.
    """
    below = [partition_index(m) for m in range(n)]
    hooks = [([], [], []) for _ in range(n)]
    for row, rep in enumerate(partitions(n)):
        beta = beta_numbers(rep)
        rows = len(beta)
        for pos, b in enumerate(beta):
            height = 0
            for c in range(b - 1, -1, -1):
                if height < rows - 1 - pos and beta[pos + 1 + height] == c:
                    height += 1
                    continue
                # rows pos .. pos + height - 1 take the next row's length less
                # one, and row pos + height ends where c lands; rows left
                # empty are the last ones
                cut = pos + height
                last = c - (rows - 1 - cut)
                part = (
                    rep[:pos]
                    + tuple(x - 1 for x in rep[pos + 1 : cut + 1] if x > 1)
                    + ((last,) if last else ())
                    + rep[cut + 1 :]
                )
                where, into, odd = hooks[b - c - 1]
                where.append(row)
                into.append(below[n - b + c][part])
                odd.append(height & 1)
    return [tuple(np.array(a, dtype=np.int64) for a in group) for group in hooks]


def _table_dtype(n: int, max_dim_below: int):
    """int64 when n * (largest dimension of S_{n-1}) < 2^63, else object.

    Every entry of X_n, and every partial sum of the rim-hook fill, is a sum
    of at most n entries of smaller tables, each at most the largest
    dimension of S_{n-1} in size (that maximum never decreases with n).
    """
    return np.int64 if n * max_dim_below < 2**63 else object


@cache
def character_matrix(n: int) -> np.ndarray:
    """chi^R(mu) for R, mu in partitions(n), exact; read-only and shared.

    Filled by the Murnaghan-Nakayama rule a block of columns at a time: for
    mu = (k, rho), chi^R(mu) is the sum over the k-rim hooks h of R of
    (-1)^ht(h) chi^(R - h)(rho). The classes whose first part is k are
    contiguous in partitions(n), and their rho are, in the same order, the
    last classes of partitions(n - k); so that block is S_k X_{n-k}[:, tail],
    with S_k the signed hook-removal matrix from _rim_hooks. Entries are
    int64 where _table_dtype proves it exact, and Python ints otherwise.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        out = np.ones((1, 1), dtype=np.int64)
        out.flags.writeable = False
        return out
    # the last class of n - 1, the identity, holds its dimensions
    dtype = _table_dtype(n, int(character_matrix(n - 1)[:, -1].max()))
    size = len(partitions(n))
    out = np.zeros((size, size), dtype=dtype)
    stop = size
    for k, (where, into, odd) in enumerate(_rim_hooks(n), start=1):
        small = character_matrix(n - k)
        # classes (k, rho) run from the last class down to the first (n)
        width = sum(1 for rho in partitions(n - k) if not rho or rho[0] <= k)
        terms = small[into, small.shape[1] - width :].astype(dtype)
        terms[odd == 1] *= -1
        firsts = np.flatnonzero(np.diff(where, prepend=-1))
        out[where[firsts], stop - width : stop] = np.add.reduceat(terms, firsts, axis=0)
        stop -= width
    out.flags.writeable = False
    return out


class CharacterTable:
    """Full character table of S_n as one exact integer matrix.

    Rows (diagrams) and columns (classes) are both indexed by partitions of
    n in canonical (reverse-lexicographic) order. `matrix` is the p(n) x p(n)
    numpy object array X of Python ints with X[R, mu] = chi^R(mu), copied
    from character_matrix(n), the one fill route, and refereed in the tests
    entry by entry against character. `class_sizes` is the object vector w
    of |C_mu| in column order, so that sum(w) == n!. Object arrays keep every
    product exact at any n.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        self.labels = partitions(n)
        self.index = partition_index(n)
        self.matrix = character_matrix(n).astype(object)
        self.class_sizes = np.array([class_size(mu) for mu in self.labels], dtype=object)

    def chi(self, rep: Partition, mu: Partition) -> int:
        return self.matrix[self.index[as_partition(rep)], self.index[as_partition(mu)]]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["rep"] + [format_partition(mu) for mu in self.labels])
        for r, row in zip(self.labels, self.matrix.tolist()):
            w.writerow([format_partition(r)] + row)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "1",
                "n": self.n,
                "classes": [format_partition(mu) for mu in self.labels],
                "rows": {
                    format_partition(r): row
                    for r, row in zip(self.labels, self.matrix.tolist())
                },
            },
            sort_keys=True,
        )
