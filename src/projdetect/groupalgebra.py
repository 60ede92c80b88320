"""Exact, literal group-algebra arithmetic for S_n and S_n x S_n.

An element is one exact integer vector over the group index and one common
denominator. Every operation (convolution, antipode, the g pairing, tensor,
coproduct, embedding) is performed by definition as an index operation on that
vector, with no character shortcuts. That makes this module the independent
referee for the centre and Kronecker layers, at the price of factorial blowup.
A product runs one symmetric-group factor at a time: a gather through the
first factor's left table and one matmul, then a gather through the other
factors' left tables. With a first factor S_{n1} it holds at most two arrays
of n1! x |G| numbers, so pair groups are practical to n <= 5 (|G| = 14400). A
one-factor S_n product holds two |support of the left operand| x n! arrays, up
to twice S_n's cached n! x n! left table: 8 MB at n = 6, 400 MB at n = 7. The
library's own one-factor products stop at n = 5 (kron_lr.BRUTE_BUILD_BOUND).

Permutations are tuples of images on 0..n-1. Elements of a product group are
tuples of such tuples; a plain S_n element uses a 1-tuple key so the same
code path serves both.
"""

from fractions import Fraction
from functools import cache
from itertools import permutations as iter_permutations
from itertools import product
from math import factorial, gcd, lcm
from numbers import Rational
from types import MappingProxyType

import numpy as np

from .symgroup import Partition, as_partition, character_matrix, dimension, partition_index

Perm = tuple[int, ...]

DIAGONAL_ORBIT_BOUND = 5
SUBGROUP_ORBIT_BOUND = 6

# int64 arithmetic below this bound on every entry and sum, Python ints from it up
INT64_BOUND = 2**62
# float64 holds every integer below this bound exactly, so a product whose
# entries and partial sums all stay below it may run on float64 BLAS
FLOAT64_BOUND = 2**53


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p.q)(i) = p[q[i]]."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycle_type(p: Perm) -> Partition:
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        lengths.append(ln)
    lengths.sort(reverse=True)
    return tuple(lengths)


def canonical_permutation(lam: Partition) -> Perm:
    """One fixed representative of cycle type lam: consecutive blocks."""
    lam = as_partition(lam)
    img = []
    start = 0
    for ln in lam:
        img.extend(start + ((i + 1) % ln) for i in range(ln))
        start += ln
    return tuple(img)


def permutations_of_type(n: int, mu: Partition):
    mu = as_partition(mu)
    if sum(mu) != n:
        raise ValueError(f"|{mu}| != {n}")
    for p in iter_permutations(range(n)):
        if cycle_type(p) == mu:
            yield p


@cache
def _group_index(degrees: tuple[int, ...]):
    """Sorted element list and index lookup for a (product of) symmetric group(s).

    The index is mixed radix over the factors, first most significant; the
    identity is index 0.
    """
    pools = [sorted(iter_permutations(range(d))) for d in degrees]
    elems = [tuple(t) for t in product(*pools)]
    return elems, {g: i for i, g in enumerate(elems)}


@cache
def _tables(d: int):
    """S_d's left table, [i, j] = index of p_i.p_j, and the index of each p_i^-1."""
    elems, index = _group_index((d,))
    table = np.array([[index[(compose(p, q),)] for (q,) in elems] for (p,) in elems])
    inv = np.array([index[(inverse(p),)] for (p,) in elems])
    table.flags.writeable = inv.flags.writeable = False
    return table, inv


@cache
def _class_column(n: int) -> np.ndarray:
    """partition_index(n) of each element's cycle type, over _group_index((n,))."""
    index = partition_index(n)
    column = np.array([index[cycle_type(p)] for (p,) in _group_index((n,))[0]])
    column.flags.writeable = False
    return column


def _mixed_radix(rows: list, count: int) -> np.ndarray:
    """Join `count` per-factor index rows, row by row, into product-group indices."""
    out = np.zeros((count, 1), dtype=np.intp)
    for row in rows:
        width = out.shape[1] * row.shape[1]
        out = (out[:, :, None] * row.shape[1] + row[:, None, :]).reshape(count, width)
    return out


def _left_rows(degrees: tuple[int, ...], indices: np.ndarray) -> np.ndarray:
    """[i, g] = index of h^-1 g for h = indices[i], in the product group over degrees.

    With no degrees the group is trivial and each row is [0].
    """
    tables = [_tables(d) for d in degrees]
    digits = np.unravel_index(indices, [len(inv) for _, inv in tables]) if tables else ()
    return _mixed_radix([table[inv[h]] for (table, inv), h in zip(tables, digits)], len(indices))


def _peak(num: np.ndarray) -> int:
    return int(np.abs(num).max())


def _widen(num: np.ndarray, bound: int) -> np.ndarray:
    """num on Python ints when bound, a bound on what is computed from it, may pass int64."""
    return num.astype(object) if bound >= INT64_BOUND else num


def _rational(value):
    if not isinstance(value, Rational):
        raise TypeError(f"group-algebra coefficients must be rational, got {value!r}")
    return value


class GroupAlgebraElement:
    """Element of C[S_{d1} x ... x S_{dk}] with exact rational coefficients.

    `num` is a read-only integer vector over _group_index(degrees), `den` a
    positive denominator, in lowest terms so equal elements have equal fields.
    Caller keys and coefficients are checked only where they come in.
    """

    __slots__ = ("degrees", "num", "den", "_data")

    def __init__(self, degrees, data: dict | None = None):
        self.degrees = (degrees,) if isinstance(degrees, int) else tuple(degrees)
        total = {}
        for key, val in (data or {}).items():
            i = self._index(key)
            total[i] = total.get(i, 0) + _rational(val)
        den = lcm(*(v.denominator for v in total.values()))
        num = np.zeros(len(_group_index(self.degrees)[0]), dtype=object)
        num[list(total)] = [v.numerator * (den // v.denominator) for v in total.values()]
        self._set(num, den)

    def _set(self, num: np.ndarray, den: int) -> None:
        """Store num / den in lowest terms; the zero element gets den 1."""
        g = gcd(den, int(np.gcd.reduce(num)))
        if g > 1 and num.any():
            num = num // g
        self.num = num.astype(np.int64) if _peak(num) < INT64_BOUND else num
        self.num.flags.writeable = False
        self.den = den // g
        self._data = None

    def _index(self, key) -> int:
        if len(self.degrees) == 1 and key and isinstance(key[0], int):
            key = (tuple(key),)
        i = _group_index(self.degrees)[1].get(tuple(tuple(p) for p in key))
        if i is None:
            raise ValueError(f"bad group element {key} for degrees {self.degrees}")
        return i

    @property
    def data(self):
        """Read-only {group element: Fraction} over the support, built on first read."""
        if self._data is None:
            elems = _group_index(self.degrees)[0]
            self._data = MappingProxyType(
                {elems[i]: Fraction(int(self.num[i]), self.den) for i in np.flatnonzero(self.num)}
            )
        return self._data

    def coefficient(self, key) -> Fraction:
        return Fraction(int(self.num[self._index(key)]), self.den)

    def support_size(self) -> int:
        return int(np.count_nonzero(self.num))

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.degrees != other.degrees:
            raise ValueError("mismatched groups")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        bound = _peak(self.num) * fa + _peak(other.num) * fb
        num = _widen(self.num, bound) * fa + _widen(other.num, bound) * fb
        return _element(self.degrees, num, den)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "GroupAlgebraElement":
        s = Fraction(_rational(scalar))
        num = _widen(self.num, _peak(self.num) * abs(s.numerator)) * s.numerator
        return _element(self.degrees, num, self.den * s.denominator)

    def __mul__(self, other):
        """Exact convolution (a.b)[g] = sum_h a[h] b[h^-1 g], one factor at a time.

        G = S_{n1} x R, with R the remaining factors (trivial for one factor),
        and a, b are read as n1! x |R| matrices A, B. Over the rows h1 and the
        columns h2 where A is nonzero, stage 1 gathers B through S_{n1}'s left
        table and is one matmul, E[h2, g1, y2] = sum_h1 A[h1, h2] B[h1^-1 g1, y2];
        stage 2 gathers through R's left table, c[g1, g2] = sum_h2 E[h2, g1, h2^-1 g2].
        E is held as [h2, y2, g1], so stage 2 gathers whole rows. With one
        factor, stage 1 is a gather and a vector-matrix product and stage 2
        copies its one row.

        Every partial sum adds at most |support of a| nonzero products, so
        |support| peak_a peak_b bounds it; with peak_a and peak_b themselves,
        that bounds every number the product holds (a zero operand beside
        entries past float64's range included). Below 2^53 the product runs
        on float64, where each partial sum is an integer held exactly in
        whatever order BLAS adds; below INT64_BOUND on int64, and on Python
        ints above it. The sparse convolution in the tests is this product's
        referee.
        """
        if not isinstance(other, GroupAlgebraElement):
            return self.__rmul__(other)
        if self.degrees != other.degrees:
            raise ValueError("mismatched groups")
        peak_a, peak_b = _peak(self.num), _peak(other.num)
        bound = max(self.support_size() * peak_a * peak_b, peak_a, peak_b)
        dtype = np.float64 if bound < FLOAT64_BOUND else np.int64 if bound < INT64_BOUND else object
        table, inv = _tables(self.degrees[0])
        a = self.num.astype(dtype).reshape(len(inv), -1)
        b = other.num.astype(dtype).reshape(len(inv), -1)
        rows, cols = np.flatnonzero(a.any(1)), np.flatnonzero(a.any(0))
        shifted = b.take(table[inv[rows]], 0).transpose(0, 2, 1).reshape(len(rows), b.size)
        e = (a[np.ix_(rows, cols)].T @ shifted).reshape(len(cols), *b.shape[::-1])
        c = e[np.arange(len(cols))[:, None], _left_rows(self.degrees[1:], cols)].sum(0).T.ravel()
        num = c.astype(np.int64) if dtype is np.float64 else c
        return _element(self.degrees, num, self.den * other.den)

    def antipode(self) -> "GroupAlgebraElement":
        """Linear extension of g -> g^{-1}: the vector read through the inverse index."""
        inverse_index = _mixed_radix([_tables(d)[1][None] for d in self.degrees], 1)[0]
        return _element(self.degrees, self.num[inverse_index], self.den)

    def identity_coefficient(self) -> Fraction:
        """The delta functional: coefficient of the group identity, index 0."""
        return Fraction(int(self.num[0]), self.den)

    def __eq__(self, other) -> bool:
        same = isinstance(other, GroupAlgebraElement) and self.degrees == other.degrees
        return same and self.den == other.den and np.array_equal(self.num, other.num)

    def __repr__(self) -> str:
        return f"GroupAlgebraElement(degrees={self.degrees}, terms={self.support_size()})"


def _element(degrees: tuple[int, ...], num: np.ndarray, den: int) -> GroupAlgebraElement:
    """The element num / den over _group_index(degrees)."""
    out = object.__new__(GroupAlgebraElement)
    out.degrees = degrees
    out._set(num, den)
    return out


def identity_element(degrees) -> GroupAlgebraElement:
    degrees = (degrees,) if isinstance(degrees, int) else tuple(degrees)
    return GroupAlgebraElement(degrees, {tuple(identity_perm(d) for d in degrees): 1})


def g_pair(a: GroupAlgebraElement, b: GroupAlgebraElement) -> Fraction:
    """The pairing delta(conj(antipode(a)) . b), by definition: [a == b] on
    basis elements, so the dot product over den_a den_b (rationals need no conj).
    """
    if a.degrees != b.degrees:
        raise ValueError("mismatched groups")
    bound = len(a.num) * _peak(a.num) * _peak(b.num)
    return Fraction(int(_widen(a.num, bound) @ _widen(b.num, bound)), a.den * b.den)


def delta(a: GroupAlgebraElement):
    """The delta functional: picks out the coefficient of the identity."""
    return a.identity_coefficient()


def diagonal_orbit_sum(p: Perm, q: Perm) -> GroupAlgebraElement:
    """Sum of the distinct diagonal conjugates (g p g^-1, g q g^-1), each once.

    These sums are a basis of the algebra of diagonal-invariant pair elements;
    distinct orbits have disjoint supports, hence independence for free. Orbit
    enumeration walks all g, so the degree is capped.
    """
    p, q = tuple(p), tuple(q)
    n = len(p)
    if len(q) != n:
        raise ValueError("pair components must share a degree")
    if n > DIAGONAL_ORBIT_BOUND:
        raise ValueError(f"diagonal orbits are enumerated, capped at n <= {DIAGONAL_ORBIT_BOUND}")
    orbit = set()
    for g in iter_permutations(range(n)):
        gi = inverse(g)
        orbit.add((compose(g, compose(p, gi)), compose(g, compose(q, gi))))
    return GroupAlgebraElement((n, n), {pair: Fraction(1) for pair in orbit})


def subgroup_orbit_sum(sigma: Perm, m: int) -> GroupAlgebraElement:
    """Sum of distinct conjugates of sigma by the block subgroup S_m x S_rest.

    sigma lives in S_{m+n}; conjugators are p on the first m points joined
    with q shifted onto the last n. These orbit sums are a basis of the
    subgroup-invariant subalgebra.
    """
    sigma = tuple(sigma)
    total = len(sigma)
    if not 0 <= m <= total:
        raise ValueError(f"block size {m} out of range for degree {total}")
    if total > SUBGROUP_ORBIT_BOUND:
        raise ValueError(f"subgroup orbits are enumerated, capped at m+n <= {SUBGROUP_ORBIT_BOUND}")
    orbit = set()
    for p in iter_permutations(range(m)):
        for q in iter_permutations(range(total - m)):
            g = tuple(p) + tuple(m + x for x in q)
            orbit.add(compose(g, compose(sigma, inverse(g))))
    return GroupAlgebraElement(total, {(s,): Fraction(1) for s in orbit})


def class_sum(n: int, mu: Partition) -> GroupAlgebraElement:
    """Sum of all permutations of cycle type mu, coefficient one each."""
    mu = as_partition(mu)
    return GroupAlgebraElement(n, {(p,): 1 for p in permutations_of_type(n, mu)})


def cycle_class_sum(n: int, k: int) -> GroupAlgebraElement:
    """T_k: the sum of all k-cycles in S_n."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got {k}")
    return class_sum(n, as_partition([k] + [1] * (n - k)))


def projector_element(rep: Partition) -> GroupAlgebraElement:
    """P_R = (d_R/n!) sum_sigma chi^R(type sigma) sigma, exact.

    One gather: d_R times rep's row of character_matrix(n), read through each
    element's class.
    """
    rep = as_partition(rep)
    n = sum(rep)
    chi = character_matrix(n)[partition_index(n)[rep]]
    return _element((n,), (dimension(rep) * chi)[_class_column(n)], factorial(n))


def tensor(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Outer tensor: the raveled outer product, as the pair index is mixed radix."""
    bound = _peak(a.num) * _peak(b.num)
    num = np.outer(_widen(a.num, bound), _widen(b.num, bound)).ravel()
    return _element(a.degrees + b.degrees, num, a.den * b.den)


def diagonal_map(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Coproduct on the group basis: sigma -> sigma x sigma, index i -> i |G| + i."""
    size = len(a.num)
    num = np.zeros(size * size, dtype=a.num.dtype)
    num[np.arange(size) * (size + 1)] = a.num
    return _element(a.degrees + a.degrees, num, a.den)


def embed_product(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Push C[S_m x S_n] into C[S_{m+n}]: (p, q) acts on blocks {0..m-1}, {m..m+n-1}."""
    if len(a.degrees) != 2:
        raise ValueError("expected a two-factor element")
    m, n = a.degrees
    index = _group_index((m + n,))[1]
    joined = [index[(p + tuple(m + x for x in q),)] for p, q in _group_index(a.degrees)[0]]
    num = np.zeros(len(index), dtype=a.num.dtype)
    num[joined] = a.num
    return _element((m + n,), num, a.den)
