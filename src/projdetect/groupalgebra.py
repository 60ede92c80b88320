"""Exact, literal group-algebra arithmetic for S_n and S_n x S_n.

Elements are sparse dicts from group elements to exact coefficients, and every
operation (convolution, antipode, the g pairing) is performed by definition,
with no character shortcuts. That makes this module the independent referee
for the centre and Kronecker layers, at the price of factorial blowup. A
product is one integer-scaled convolution over vectors of length |G|, with
one left-multiplication row per support element, so pair groups are
practical to n <= 5 (|G| = 14400; a full-support square takes about a second).

Permutations are tuples of images on 0..n-1. Elements of a product group are
tuples of such tuples; a plain S_n element uses a 1-tuple key internally so
the same code path serves both.
"""

from fractions import Fraction
from functools import cache
from itertools import permutations as iter_permutations
from math import factorial, lcm
from numbers import Rational

import numpy as np

from .symgroup import Partition, as_partition, character, dimension, partitions

Perm = tuple[int, ...]

DIAGONAL_ORBIT_BOUND = 5
SUBGROUP_ORBIT_BOUND = 6


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


def _key_inverse(a):
    return tuple(inverse(x) for x in a)


def _conj(v):
    return v.conjugate() if isinstance(v, complex) else v


@cache
def _group_index(degrees: tuple[int, ...]):
    """Sorted element list and index lookup for a (product of) symmetric group(s)."""
    from itertools import product

    pools = [sorted(iter_permutations(range(d))) for d in degrees]
    elems = [tuple(t) for t in product(*pools)]
    return elems, {g: i for i, g in enumerate(elems)}


@cache
def _left_row(p: Perm):
    """Index of p.b for each b of _group_index((len(p),)), in that order."""
    elems, index = _group_index((len(p),))
    row = np.array([index[(compose(p, b),)] for (b,) in elems], dtype=np.intp)
    row.flags.writeable = False
    return row


def _left_rows(key):
    """Index of key.b for every b of the product group, in _group_index order.

    The factor rows combine in mixed radix, first factor most significant,
    which is the order itertools.product gives the group elements.
    """
    row = _left_row(key[0])
    for p in key[1:]:
        factor = _left_row(p)
        row = (row[:, None] * len(factor) + factor).ravel()
    return row


def _scaled(data: dict) -> tuple[int, dict]:
    """Common denominator of the coefficients and the integer numerators over it."""
    for v in data.values():
        if not isinstance(v, Rational):
            raise TypeError(f"group-algebra products need rational coefficients, got {v!r}")
    den = lcm(*(v.denominator for v in data.values()))
    return den, {k: v.numerator * (den // v.denominator) for k, v in data.items()}


class GroupAlgebraElement:
    """Sparse element of C[S_{d1} x ... x S_{dk}] with exact coefficients."""

    __slots__ = ("degrees", "data")

    def __init__(self, degrees, data: dict | None = None):
        if isinstance(degrees, int):
            degrees = (degrees,)
        self.degrees = tuple(degrees)
        clean = {}
        if data:
            for key, val in data.items():
                key = self._as_key(key)
                if val != 0:
                    clean[key] = clean.get(key, 0) + val
        self.data = {k: v for k, v in clean.items() if v != 0}

    def _as_key(self, key):
        if len(self.degrees) == 1 and key and isinstance(key[0], int):
            key = (tuple(key),)
        key = tuple(tuple(p) for p in key)
        if len(key) != len(self.degrees) or any(
            sorted(p) != list(range(d)) for p, d in zip(key, self.degrees)
        ):
            raise ValueError(f"bad group element {key} for degrees {self.degrees}")
        return key

    def coefficient(self, key):
        return self.data.get(self._as_key(key), 0)

    def support_size(self) -> int:
        return len(self.data)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.degrees != other.degrees:
            raise ValueError("mismatched groups")
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0) + v
        return GroupAlgebraElement(self.degrees, out)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "GroupAlgebraElement":
        return GroupAlgebraElement(
            self.degrees, {k: scalar * v for k, v in self.data.items()}
        )

    def __mul__(self, other):
        """Exact convolution, done as one integer-scaled dense product.

        Both operands are scaled to integers over their common denominators.
        For fixed a the map b -> a.b is a bijection of the group, so a's
        left-multiplication row is a permutation of indices and the
        fancy-indexed adds accumulate without collisions. The row is built
        from cached per-factor rows, so the cache grows with the rows read,
        at most d!^2 entries per factor degree d, never with |G|^2.
        The sparse convolution in the tests is this product's referee.
        """
        if not isinstance(other, GroupAlgebraElement):
            return GroupAlgebraElement(
                self.degrees, {k: v * other for k, v in self.data.items()}
            )
        if self.degrees != other.degrees:
            raise ValueError("mismatched groups")
        if not self.data or not other.data:
            return GroupAlgebraElement(self.degrees)
        elems, index = _group_index(self.degrees)
        den_a, ints_a = _scaled(self.data)
        den_b, ints_b = _scaled(other.data)
        big = max(map(abs, ints_a.values())) * max(map(abs, ints_b.values())) * len(elems)
        dtype = np.int64 if big < 2**62 else object
        b_vec = np.zeros(len(elems), dtype=dtype)
        for k, v in ints_b.items():
            b_vec[index[k]] = v
        acc = np.zeros(len(elems), dtype=dtype)
        for k, v in ints_a.items():
            acc[_left_rows(k)] += v * b_vec
        den = den_a * den_b
        # keys come from the group index and values are nonzero: skip __init__
        out = object.__new__(GroupAlgebraElement)
        out.degrees = self.degrees
        out.data = {elems[i]: Fraction(int(acc[i]), den) for i in np.nonzero(acc)[0]}
        return out

    def antipode(self) -> "GroupAlgebraElement":
        """Linear extension of g -> g^{-1}; coefficients are not conjugated."""
        return GroupAlgebraElement(
            self.degrees, {_key_inverse(k): v for k, v in self.data.items()}
        )

    def identity_coefficient(self):
        """The delta functional: coefficient of the group identity."""
        e = tuple(identity_perm(d) for d in self.degrees)
        return self.data.get(e, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and self.degrees == other.degrees
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"GroupAlgebraElement(degrees={self.degrees}, terms={len(self.data)})"


def identity_element(degrees) -> GroupAlgebraElement:
    if isinstance(degrees, int):
        degrees = (degrees,)
    e = tuple(identity_perm(d) for d in degrees)
    return GroupAlgebraElement(degrees, {e: Fraction(1)})


def g_pair(a: GroupAlgebraElement, b: GroupAlgebraElement):
    """The sesquilinear pairing delta(conj(antipode(a)) . b), by definition.

    On basis elements this is [a == b], so for sparse a, b it reduces to
    sum over shared support of conj(a_g) b_g; the full product is formed
    anyway only when supports are tiny, so take the direct route.
    """
    if a.degrees != b.degrees:
        raise ValueError("mismatched groups")
    acc = 0
    small, big = (a, b) if len(a.data) <= len(b.data) else (b, a)
    for k in small.data:
        if k in big.data:
            acc += _conj(a.data[k]) * b.data[k]
    return acc


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
        raise ValueError(
            f"diagonal orbits are enumerated, capped at n <= {DIAGONAL_ORBIT_BOUND}"
        )
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
        raise ValueError(
            f"subgroup orbits are enumerated, capped at m+n <= {SUBGROUP_ORBIT_BOUND}"
        )
    orbit = set()
    for p in iter_permutations(range(m)):
        for q in iter_permutations(range(total - m)):
            g = tuple(p) + tuple(m + x for x in q)
            orbit.add(compose(g, compose(sigma, inverse(g))))
    return GroupAlgebraElement(total, {(s,): Fraction(1) for s in orbit})


def class_sum(n: int, mu: Partition) -> GroupAlgebraElement:
    """Sum of all permutations of cycle type mu, coefficient one each."""
    mu = as_partition(mu)
    return GroupAlgebraElement(
        n, {(p,): Fraction(1) for p in permutations_of_type(n, mu)}
    )


def cycle_class_sum(n: int, k: int) -> GroupAlgebraElement:
    """T_k: the sum of all k-cycles in S_n."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got {k}")
    return class_sum(n, as_partition([k] + [1] * (n - k)))


def projector_element(rep: Partition) -> GroupAlgebraElement:
    """P_R = (d_R/n!) sum_sigma chi^R(type sigma) sigma, exact Fractions."""
    rep = as_partition(rep)
    n = sum(rep)
    d = dimension(rep)
    nf = factorial(n)
    chi = {mu: character(rep, mu) for mu in partitions(n)}
    data = {}
    for p in iter_permutations(range(n)):
        c = chi[cycle_type(p)]
        if c:
            data[(p,)] = Fraction(d * c, nf)
    return GroupAlgebraElement(n, data)


def tensor(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Outer tensor: lives in the product group algebra."""
    data = {}
    for ka, va in a.data.items():
        for kb, vb in b.data.items():
            data[ka + kb] = va * vb
    return GroupAlgebraElement(a.degrees + b.degrees, data)


def diagonal_map(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Coproduct on the group basis: sigma -> sigma x sigma."""
    data = {k + k: v for k, v in a.data.items()}
    return GroupAlgebraElement(a.degrees + a.degrees, data)


def embed_product(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Push C[S_m x S_n] into C[S_{m+n}]: (p, q) acts on blocks {0..m-1}, {m..m+n-1}."""
    if len(a.degrees) != 2:
        raise ValueError("expected a two-factor element")
    m, n = a.degrees
    data = {}
    for (p, q), v in a.data.items():
        joined = tuple(p) + tuple(m + x for x in q)
        data[(joined,)] = v
    return GroupAlgebraElement(m + n, data)
