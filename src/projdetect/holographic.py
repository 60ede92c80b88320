"""Diagram recovery through a sampled geometry profile.

Forward pipeline: a diagram with n boxes and a fermion count N fix energies
f_i = R_{N+1-i} + i - 1; Casimir sums A_l = sum_f A^l(f) weight a Legendre
series u(rho, theta) = sum_l U(l, rho) P_l(cos 2theta) with
U(l, rho) = (-1)^l (l+1) A_l / rho^{2l+2}. The profile is sampled on a
uniform theta-grid, a DFT (radix-2 FFT when the grid length is a power of
two) extracts the Fourier coefficients, a triangular back-substitution
through the Legendre coefficient table returns the U(l, rho) and hence the
A_l as exact integers, a Stirling-triangular solve converts them to power
sums M_k of the energies, and the diagram is read off by matching the moment
vector against the finite table of diagrams with n boxes.

Grid choice: P_l(cos 2theta) spans modes e^{2 i m theta} for -l <= m <= l, so
a profile cut at Lambda holds 2 Lambda + 1 modes. Sampling at Lambda + 1
points theta_l = pi l/(Lambda + 1) aliases mode m with m - (Lambda + 1),
folding distinct coefficients into shared bins; the extraction matrix drops
rank (4 of 6 already at Lambda = 5) and no solve can undo it. The grid here
uses L = 2 (Lambda + 1) points theta_j = pi j / L, under which bin m equals
the true coefficient exactly for 0 <= m <= Lambda and the back-substitution
is genuinely triangular.

Exactness firewall: everything upstream of the profile (A_l) and downstream
of the transform (rounded A_l, M_k, table match) is integer or rational; only
the sampling and the transform run in floats, and each recovered A_l is
checked against hard thresholds on its size and its integer rounding residual.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, pi
from types import MappingProxyType
import cmath

import numpy as np
from numpy.polynomial import legendre

from .centre import k_star
from .symgroup import Partition, as_partition, partitions

# Largest rounding residual |A_l - round(A_l)| solve_U accepts. Over n <= 7,
# N <= n + 4 and lam <= 30, every recovery that came out wrong while all |A_l|
# stayed below 2^53 had a residual of at least 0.278; the golden and benchmark
# roundtrips stay below 1e-10.
RESIDUAL_LIMIT = 0.1
# From 2^53 up a float holds only even integers, so rounding recovers nothing.
EXACT_FLOAT_BOUND = 2**53


@dataclass(frozen=True)
class FermionConfig:
    energies: tuple[int, ...]

    def __post_init__(self):
        e = self.energies
        if any(v < 0 for v in e) or any(a >= b for a, b in zip(e, e[1:])):
            raise ValueError(f"energies must strictly increase from 0 or above: {e}")


def fermion_config(rep: Partition, capital_n: int) -> FermionConfig:
    """Energies f_i = R_{N+1-i} + i - 1 with the diagram padded by zero rows."""
    rep = as_partition(rep)
    if len(rep) > capital_n:
        raise ValueError(f"{rep} has more rows than {capital_n} fermions")
    padded = list(rep) + [0] * (capital_n - len(rep))
    return FermionConfig(
        tuple(padded[capital_n - i] + i - 1 for i in range(1, capital_n + 1))
    )


def diagram_from_fermions(config: FermionConfig) -> Partition:
    """Inverse of fermion_config: rows R_{N+1-i} = f_i - i + 1, zeros stripped."""
    rows = [f - i for i, f in enumerate(config.energies)]
    rows.reverse()
    if any(r < 0 for r in rows) or any(a < b for a, b in zip(rows, rows[1:])):
        raise ValueError(f"{config.energies} is not a diagram shifted by stairs")
    return as_partition([r for r in rows if r])


def a_poly(l: int, f: int) -> int:
    """The degree-l Casimir polynomial l! sum_r C(l,r) C(f,r) 2^r, exactly."""
    if l < 0 or f < 0:
        raise ValueError("need l, f >= 0")
    return factorial(l) * sum(comb(l, r) * comb(f, r) * (1 << r) for r in range(l + 1))


def casimir_sums(config: FermionConfig, lam: int) -> list[int]:
    """A_l = sum over energies of a_poly(l, f), for l = 0..lam."""
    return [sum(a_poly(l, f) for f in config.energies) for l in range(lam + 1)]


def moments(config: FermionConfig, upto: int) -> list[int]:
    """Power sums M_k = sum f^k for k = 0..upto (M_0 is the fermion count)."""
    return [sum(f**k for f in config.energies) for k in range(upto + 1)]


@cache
def _legendre_monomial(l: int) -> tuple[Fraction, ...]:
    """Monomial coefficients of P_l by the three-term recurrence, exact."""
    if l == 0:
        return (Fraction(1),)
    if l == 1:
        return (Fraction(0), Fraction(1))
    prev2 = _legendre_monomial(l - 2)
    prev1 = _legendre_monomial(l - 1)
    out = [Fraction(0)] * (l + 1)
    for k, c in enumerate(prev1):
        out[k + 1] += Fraction(2 * l - 1, l) * c
    for k, c in enumerate(prev2):
        out[k] -= Fraction(l - 1, l) * c
    return tuple(out)


@dataclass(frozen=True)
class JacobiCoeffTable:
    """Exact Legendre coefficient tables up to degree lam.

    monomial[l][k] is the x^k coefficient of P_l; fourier[l][m], 0 <= m <= l,
    is the coefficient of e^{2 i m theta} in P_l(cos 2theta), the m < 0 half
    implied by symmetry. The monomial leading term is (2l)!/(2^l (l!)^2);
    folding cos^k into exponentials costs another 2^{-k}, so the Fourier
    diagonal is C(2l, l)/4^l, strictly smaller for l >= 1.
    """

    lam: int
    monomial: tuple[tuple[Fraction, ...], ...]
    fourier: tuple[tuple[Fraction, ...], ...]

    def fourier_at(self, l: int, m: int) -> Fraction:
        m = abs(m)
        if m > l:
            return Fraction(0)
        return self.fourier[l][m]


def jacobi_coeffs(lam: int) -> JacobiCoeffTable:
    """Build the monomial and Fourier tables for l = 0..lam, exact rationals.

    With x = cos 2theta = (e^{2 i theta} + e^{-2 i theta})/2, the power x^k
    spreads into modes m = -k..k of the same parity with weight
    2^{-k} C(k, (k-m)/2); parity makes fourier[l][m] vanish unless
    l = m mod 2.
    """
    if lam < 0:
        raise ValueError("need lam >= 0")
    monomial = []
    fourier = []
    for l in range(lam + 1):
        mono = _legendre_monomial(l)
        row = []
        for m in range(l + 1):
            acc = Fraction(0)
            for k in range(m, l + 1):
                if (k - m) % 2:
                    continue
                acc += mono[k] * Fraction(comb(k, (k - m) // 2), 1 << k)
            row.append(acc)
        monomial.append(mono)
        fourier.append(tuple(row))
    return JacobiCoeffTable(lam=lam, monomial=tuple(monomial), fourier=tuple(fourier))


def jacobi_via_hypergeometric(l: int, theta: float) -> float:
    """P_l(cos 2theta) as the terminating series 2F1(-l, l+1; 1; sin^2 theta)."""
    z = np.sin(theta) ** 2
    term = 1.0
    total = 1.0
    for j in range(l):
        term *= (j - l) * (l + 1 + j) / ((1 + j) * (1 + j)) * z
        total += term
    return float(total)


@dataclass(frozen=True)
class GeometryProfile:
    """Real samples of the profile on the doubled uniform theta-grid."""

    rho: float
    lam: int
    samples: tuple[float, ...]

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if len(self.samples) != 2 * (self.lam + 1):
            raise ValueError(
                f"grid for cutoff {self.lam} needs {2 * (self.lam + 1)} samples"
            )

    @property
    def grid_size(self) -> int:
        return 2 * (self.lam + 1)

    def thetas(self) -> tuple[float, ...]:
        size = self.grid_size
        return tuple(pi * j / size for j in range(size))

    def samples_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["theta", "u"])
        for theta, u in zip(self.thetas(), self.samples):
            w.writerow([repr(theta), repr(u)])
        return buf.getvalue()


def u_series(config: FermionConfig, rho: float, lam: int) -> list[float]:
    """The Legendre weights U(l, rho) = (-1)^l (l+1) A_l / rho^{2l+2}."""
    return [
        (-1) ** l * (l + 1) * a / rho ** (2 * l + 2)
        for l, a in enumerate(casimir_sums(config, lam))
    ]


def u_profile(config: FermionConfig, rho: float, lam: int) -> GeometryProfile:
    """Sample u(rho, theta) = sum_l U(l, rho) P_l(cos 2theta) on the grid."""
    if lam < 0:
        raise ValueError("need lam >= 0")
    weights = u_series(config, rho, lam)
    size = 2 * (lam + 1)
    thetas = np.array([pi * j / size for j in range(size)])
    values = legendre.legval(np.cos(2 * thetas), weights)
    return GeometryProfile(rho=rho, lam=lam, samples=tuple(float(v) for v in values))


@dataclass
class DftResult:
    bins: tuple[complex, ...]
    direct_mults: int
    fft_butterflies: int | None


def _fft_radix2(values: list[complex]) -> tuple[list[complex], int]:
    """Iterative decimation-in-time radix-2 transform; returns butterfly count."""
    size = len(values)
    if size & (size - 1):
        raise ValueError("radix-2 transform needs a power-of-two length")
    data = list(values)
    j = 0
    for i in range(1, size):
        bit = size >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            data[i], data[j] = data[j], data[i]
    butterflies = 0
    span = 2
    while span <= size:
        root = cmath.exp(-2j * pi / span)
        for start in range(0, size, span):
            w = 1.0 + 0j
            for off in range(span // 2):
                a = data[start + off]
                b = data[start + off + span // 2] * w
                data[start + off] = a + b
                data[start + off + span // 2] = a - b
                butterflies += 1
                w *= root
        span *= 2
    return data, butterflies


def dft_extract(profile: GeometryProfile) -> DftResult:
    """Fourier bins C_m = (1/L) sum_j u(theta_j) e^{-2 pi i j m / L}, m = 0..lam.

    On this grid the bin equals the true mode-m coefficient of the profile
    for every m up to the cutoff, which is what the triangular solve needs.
    The direct quadratic transform always runs; when the grid length is a
    power of two the radix-2 path runs too and the two must agree to 1e-10.
    Returns the bins with the operation ledger (complex multiplies for the
    direct path, butterflies for the fast one).
    """
    size = profile.grid_size
    values = [complex(v) for v in profile.samples]
    direct = []
    for m in range(size):
        acc = 0j
        for j, v in enumerate(values):
            acc += v * cmath.exp(-2j * pi * j * m / size)
        direct.append(acc / size)
    direct_mults = size * size
    butterflies = None
    if size & (size - 1) == 0:
        fast, butterflies = _fft_radix2(values)
        # 1e-10 at the scale of the data; profiles can reach 1e10 before
        # normalization and the two summation orders differ in roundoff
        scale = max(1.0, max(abs(a) for a in direct))
        for a, b in zip(direct, fast):
            if abs(a - b / size) > 1e-10 * scale:
                raise ArithmeticError("fast and direct transforms disagree")
    return DftResult(
        bins=tuple(direct[: profile.lam + 1]),
        direct_mults=direct_mults,
        fft_butterflies=butterflies,
    )


@dataclass
class SolveResult:
    u_values: tuple[float, ...]
    casimirs: tuple[int, ...]
    residual_max: float
    mults: int


def _back_substitute(bins, table: JacobiCoeffTable) -> tuple[list[float], int]:
    """(U_0..U_lam, multiplications) from the Fourier bins and the Legendre table.

    From l = lam down: U_l = (C_l - sum_{l' > l} U_{l'} fourier[l'][l])
    divided by the diagonal fourier[l][l].
    """
    lam = len(bins) - 1
    if lam < 0:
        raise ValueError("need at least one bin")
    if table.lam < lam:
        raise ValueError("coefficient table shorter than the bin vector")
    u_values = [0.0] * (lam + 1)
    mults = 0
    for l in range(lam, -1, -1):
        acc = complex(bins[l])
        for upper in range(l + 1, lam + 1):
            coeff = table.fourier_at(upper, l)
            if coeff:
                acc -= u_values[upper] * float(coeff)
                mults += 1
        u_values[l] = acc.real / float(table.fourier[l][l])
        mults += 1
    return u_values, mults


def solve_U(bins, table: JacobiCoeffTable, rho: float) -> SolveResult:
    """Back-substitute the Fourier bins through the Legendre table.

    Each A_l = (-1)^l rho^{2l+2} U_l/(l+1) must be below EXACT_FLOAT_BOUND in
    size and sit within RESIDUAL_LIMIT of an integer, or the solve aborts.
    """
    u_values, mults = _back_substitute(bins, table)
    casimirs = []
    residual_max = 0.0
    for l, u in enumerate(u_values):
        a_float = (-1) ** l * rho ** (2 * l + 2) * u / (l + 1)
        if not abs(a_float) < EXACT_FLOAT_BOUND:
            raise ArithmeticError(
                f"Casimir A_{l} = {a_float:.3g} is past 2^53, so a float cannot pin its integer"
            )
        a_int = round(a_float)
        residual_max = max(residual_max, abs(a_float - a_int))
        casimirs.append(int(a_int))
    if residual_max >= RESIDUAL_LIMIT:
        raise ArithmeticError(
            f"Casimir recovery residual {residual_max:.3g} exceeds {RESIDUAL_LIMIT}"
        )
    return SolveResult(
        u_values=tuple(u_values),
        casimirs=tuple(casimirs),
        residual_max=residual_max,
        mults=mults,
    )


@cache
def _stirling_first(r: int, k: int) -> int:
    """Signed Stirling numbers of the first kind, [x]_r = sum_k s(r,k) x^k."""
    if r == k == 0:
        return 1
    if r == 0 or k == 0:
        return 0
    return _stirling_first(r - 1, k - 1) - (r - 1) * _stirling_first(r - 1, k)


def casimir_coeffs(l: int) -> tuple[int, ...]:
    """c^l_k with A_l = sum_k c^l_k M_k; c^l_l = 2^l makes the system triangular."""
    return tuple(
        sum(
            _stirling_first(r, k) * (1 << r) * (factorial(l) // factorial(r)) * comb(l, r)
            for r in range(k, l + 1)
        )
        for k in range(l + 1)
    )


def moments_from_casimirs(a_values) -> list[int]:
    """Invert the triangular Casimir system to exact integer power sums."""
    a_values = list(a_values)
    if not a_values or a_values[0] < 1:
        raise ValueError("need A_0 >= 1 (at least one fermion)")
    m_values: list[int] = []
    for l, a in enumerate(a_values):
        coeffs = casimir_coeffs(l)
        rest = a - sum(c * m for c, m in zip(coeffs, m_values))
        lead = coeffs[l]
        if rest % lead:
            raise ArithmeticError(f"Casimir vector is inconsistent at level {l}")
        m_values.append(rest // lead)
    return m_values


def casimirs_from_moments(m_values) -> list[int]:
    """Forward map A_l = sum_k c^l_k M_k, for consistency checks."""
    m_values = list(m_values)
    return [
        sum(c * m for c, m in zip(casimir_coeffs(l), m_values))
        for l in range(len(m_values))
    ]


def fermions_from_moments(m_values) -> FermionConfig:
    """Rebuild the energy set from power sums M_0..M_N (Newton's identities).

    Power sums to elementary symmetric functions, then the monic polynomial
    prod (x - f) is peeled off by scanning integer roots downward. Needs all
    N+1 moments, unlike the table match, which needs far fewer.
    """
    m_values = list(m_values)
    count = m_values[0]
    if len(m_values) < count + 1:
        raise ValueError(f"need M_0..M_{count} to invert {count} energies")
    elem = [1]
    for k in range(1, count + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * elem[k - i] * m_values[i]
        if acc % k:
            raise ArithmeticError("moments are not power sums of integers")
        elem.append(acc // k)
    remaining = [(-1) ** k * elem[k] for k in range(count + 1)]
    energies = []
    bound = max(m_values[1], 0) if count else 0
    for _ in range(count):
        root = None
        for candidate in range(bound, -1, -1):
            acc = 0
            for c in remaining:
                acc = acc * candidate + c
            if acc == 0:
                root = candidate
                break
        if root is None:
            raise ArithmeticError("moment polynomial has a non-integer root")
        quotient = [remaining[0]]
        for c in remaining[1:-1]:
            quotient.append(c + quotient[-1] * root)
        remaining = quotient
        energies.append(root)
        bound = root
    return FermionConfig(tuple(sorted(energies)))


@cache
def moment_table(n: int, capital_n: int) -> MappingProxyType[tuple[int, ...], Partition]:
    """Map (M_1..M_K) at K = k_star(n) to the diagram of n producing it.

    Each cell with content c adds (N+c)^k - (N+c-1)^k to M_k over the empty
    diagram's M_k, a degree k-1 polynomial in c with leading coefficient k,
    so M_k is p_{k-1} times k plus terms in N, n and lower content power
    sums. (M_1..M_K) therefore separates the diagrams exactly where
    (p_1..p_{K-1}) does, which is where (T_2..T_K) does: K = k_star(n),
    whatever N > n. Built once per (n, N) and read-only because every caller
    in the process shares it; a shared key means that argument or the
    moments are broken, and it raises rather than returns.
    """
    if capital_n <= n:
        raise ValueError("need more fermions than boxes")
    if n < 1:
        raise ValueError("need n >= 1")
    cutoff = k_star(n)
    table: dict[tuple[int, ...], Partition] = {}
    for rep in partitions(n):
        key = tuple(moments(fermion_config(rep, capital_n), cutoff)[1:])
        if key in table:
            raise ArithmeticError(f"{table[key]} and {rep} share moments {key} at N={capital_n}")
        table[key] = rep
    return MappingProxyType(table)


def moment_cutoff(n: int, capital_n: int) -> int:
    """The moment table's key length: the least K >= 1 with (M_1..M_K) distinct, k_star(n)."""
    return len(next(iter(moment_table(n, capital_n))))


def recover_diagram(m_values, n: int, capital_n: int) -> Partition:
    """Match a moment vector against the diagrams of n at this fermion count."""
    cutoff = moment_cutoff(n, capital_n)
    m_values = list(m_values)
    if len(m_values) < cutoff + 1:
        raise ValueError(
            f"need moments M_0..M_{cutoff} to separate diagrams of {n},"
            f" got M_0..M_{len(m_values) - 1}"
        )
    if m_values[0] != capital_n:
        raise ValueError(f"M_0 = {m_values[0]} does not match {capital_n} fermions")
    key = tuple(m_values[1 : cutoff + 1])
    try:
        return moment_table(n, capital_n)[key]
    except KeyError:
        raise ValueError(f"inconsistent moments {key} for n={n}") from None


def holographic_roundtrip(
    rep: Partition, capital_n: int, lam: int | None = None, rho: float = 1.0
) -> dict:
    """Full pipeline: diagram to profile to bins to Casimirs to moments to diagram.

    lam defaults to moment_cutoff(n, N), the shortest prefix the table match
    needs; small cutoffs also keep the float magnitudes far from the integer
    rounding threshold. An exact A_l past 2^53 is refused before sampling.
    """
    rep = as_partition(rep)
    n = sum(rep)
    if lam is None:
        lam = moment_cutoff(n, capital_n)
    config = fermion_config(rep, capital_n)
    a_input = casimir_sums(config, lam)
    for l, a in enumerate(a_input):
        if abs(a) >= EXACT_FLOAT_BOUND:
            raise ArithmeticError(
                f"exact Casimir A_{l} is past 2^53, so a float cannot pin its integer"
            )
    profile = u_profile(config, rho, lam)
    dft = dft_extract(profile)
    solved = solve_U(dft.bins, jacobi_coeffs(lam), rho)
    m_values = moments_from_casimirs(solved.casimirs)
    recovered = recover_diagram(m_values, n, capital_n)
    return {
        "rep": rep,
        "n": n,
        "capital_n": capital_n,
        "lam": lam,
        "rho": rho,
        "energies": config.energies,
        "casimirs_in": a_input,
        "casimirs_out": list(solved.casimirs),
        "residual_max": solved.residual_max,
        "moments": m_values,
        "recovered": recovered,
        "match": recovered == rep,
        "ops": {
            "grid": profile.grid_size,
            "direct_mults": dft.direct_mults,
            "fft_butterflies": dft.fft_butterflies,
            "solve_mults": solved.mults,
        },
    }


def cutoff_comparison_table(n_max: int) -> list[dict]:
    """Rows (n, moment_cutoff at N = n+1, k_star), equal in every row.

    Both cutoffs are the separating length of the content power sums: T_k
    and M_k are each triangular in p_{k-1} over n, N and lower p_j (see
    k_star and moment_table), so the two columns agree for every n and
    every N > n. The table shows the two pipelines reading the same number.
    """
    rows = []
    for n in range(2, n_max + 1):
        rows.append(
            {
                "n": n,
                "moment_cutoff": moment_cutoff(n, n + 1),
                "k_star": k_star(n),
            }
        )
    return rows


def holographic_complexity_report(lam: int, beta: float) -> dict:
    """Measured transform/solve operation counts plus a modeled readout term.

    The readout cost is modeled as lam^(1+beta) for a user-chosen exponent
    beta. beta <= 1 leaves the quadratic direct transform dominant (total
    O(lam^2)); beta > 1 puts the readout on top (O(lam^{1+beta})). The solve
    is counted without rounding: from lam = 12 up the A_l of this all-levels
    configuration pass 2^53, and counting needs no exact values.
    """
    if lam < 1:
        raise ValueError("need lam >= 1")
    if beta < 0:
        raise ValueError("need beta >= 0")
    config = FermionConfig(tuple(range(lam + 1)))
    profile = u_profile(config, 1.0, lam)
    dft = dft_extract(profile)
    _, solve_mults = _back_substitute(dft.bins, jacobi_coeffs(lam))
    measurement = float(lam) ** (1.0 + beta)
    case = "1" if beta <= 1 else "2"
    dominant = "measurement" if measurement > dft.direct_mults else "transform"
    return {
        "lambda": lam,
        "beta": beta,
        "grid": profile.grid_size,
        "measurement_ops": measurement,
        "direct_mults": dft.direct_mults,
        "fft_butterflies": dft.fft_butterflies,
        "solve_mults": solve_mults,
        "case": case,
        "dominant": dominant,
    }
