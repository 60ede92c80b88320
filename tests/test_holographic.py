"""Droplet profile synthesis, coefficient extraction, and diagram recovery."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from projdetect import holographic
from projdetect.centre import k_star
from projdetect.holographic import (
    FermionConfig,
    a_poly,
    casimir_coeffs,
    casimir_sums,
    casimirs_from_moments,
    cutoff_comparison_table,
    dft_extract,
    diagram_from_fermions,
    fermion_config,
    fermions_from_moments,
    holographic_complexity_report,
    holographic_roundtrip,
    jacobi_coeffs,
    jacobi_via_hypergeometric,
    moment_cutoff,
    moment_table,
    moments,
    moments_from_casimirs,
    recover_diagram,
    solve_U,
    u_profile,
)
from projdetect.symgroup import partitions


def test_fermion_config_examples():
    assert fermion_config((2, 1), 3).energies == (0, 2, 4)
    assert fermion_config((), 3).energies == (0, 1, 2)
    assert fermion_config((3,), 4).energies == (0, 1, 2, 6)


def test_fermion_diagram_inverse():
    for n in range(0, 7):
        for rep in partitions(n):
            for capital_n in (n + 1, n + 3):
                config = fermion_config(rep, capital_n)
                assert diagram_from_fermions(config) == rep


def test_config_validation():
    with pytest.raises(ValueError):
        FermionConfig((2, 2, 3))
    with pytest.raises(ValueError):
        FermionConfig((3, 1))
    with pytest.raises(ValueError):
        FermionConfig((-1, 0))


def test_a_poly_low_degrees():
    for f in range(6):
        assert a_poly(0, f) == 1
        assert a_poly(1, f) == 1 + 2 * f
        assert a_poly(2, f) == 2 * (1 + 2 * f + 2 * f * f)


def test_casimir_sum_closed_forms():
    """A_1 = N + 2 M_1 and A_2 = 2N + 4M_1 + 4M_2."""
    for rep in partitions(5):
        for capital_n in (6, 8):
            config = fermion_config(rep, capital_n)
            m = moments(config, 2)
            a = casimir_sums(config, 2)
            assert a[0] == capital_n
            assert a[1] == capital_n + 2 * m[1]
            assert a[2] == 2 * capital_n + 4 * m[1] + 4 * m[2]


def test_casimir_coeff_leading_term():
    for l in range(8):
        assert casimir_coeffs(l)[l] == 2**l


def test_jacobi_table_diagonals():
    """Fourier diagonal C(2l,l)/4^l vs monomial leading (2l)!/(2^l l!^2)."""
    table = jacobi_coeffs(16)
    for l in range(17):
        assert table.fourier_at(l, l) == Fraction(comb(2 * l, l), 4**l)
        assert table.monomial[l][l] == Fraction(
            factorial(2 * l), 2**l * factorial(l) ** 2
        )
    assert table.monomial[2][2] == Fraction(3, 2)
    assert table.fourier_at(2, 2) == Fraction(3, 8)


def test_jacobi_table_frozen_entries():
    table = jacobi_coeffs(4)
    assert table.fourier_at(3, 1) == Fraction(3, 16)
    assert table.fourier_at(3, 3) == Fraction(5, 16)
    assert table.fourier_at(2, 0) == Fraction(1, 4)


def test_jacobi_parity_zeros():
    table = jacobi_coeffs(12)
    for l in range(13):
        for m in range(l + 1):
            if (l - m) % 2:
                assert table.fourier_at(l, m) == 0


def test_hypergeometric_route_matches_legendre():
    from numpy.polynomial import legendre

    thetas = np.linspace(0.1, 1.4, 7)
    for l in range(11):
        coeffs = [0.0] * l + [1.0]
        for theta in thetas:
            direct = legendre.legval(np.cos(2 * theta), coeffs)
            # the alternating terminating series loses ~1e-12 to cancellation
            # by l = 10; a wrong coefficient would miss by O(1)
            assert abs(jacobi_via_hypergeometric(l, theta) - direct) < 1e-10


def test_moment_casimir_bijection_random_configs():
    rng = np.random.default_rng(5)
    for _ in range(100):
        count = int(rng.integers(1, 7))
        energies = tuple(sorted(rng.choice(30, size=count, replace=False).tolist()))
        config = FermionConfig(energies)
        m = moments(config, count)
        a = casimirs_from_moments(m)
        assert moments_from_casimirs(a) == m
        assert fermions_from_moments(moments(config, count)) == config


def test_moments_from_casimirs_gates():
    with pytest.raises(ValueError, match="A_0"):
        moments_from_casimirs([0, 3])
    with pytest.raises(ArithmeticError, match="inconsistent"):
        moments_from_casimirs([2, 7])  # A_1 - N = 3 is odd, not 2 M_1


def test_dft_extract_power_of_two_grids():
    """Λ + 1 in {8, 16, 32} doubles to a power-of-two grid; FFT must engage."""
    for lam in (7, 15, 31):
        rep = (3, 2, 1)
        config = fermion_config(rep, 7)
        profile = u_profile(config, 1.0, lam)
        result = dft_extract(profile)
        size = profile.grid_size
        assert result.fft_butterflies == (size // 2) * size.bit_length() - (size // 2)
        assert result.direct_mults == size * size
        assert len(result.bins) == lam + 1


def test_fft_butterfly_growth():
    """Butterfly count per grid log-point stays bounded up to 1024."""
    for lam in (7, 15, 31, 63, 127, 255, 511):
        size = 2 * (lam + 1)
        butterflies = (size // 2) * (size.bit_length() - 1)
        assert butterflies <= size * np.log2(size)


def test_undoubled_grid_is_rank_deficient():
    """Sampling cos(2 m theta) on lam+1 points aliases; doubling is forced."""
    for lam in (3, 5, 7):
        pts = lam + 1
        thetas = np.array([np.pi * j / pts for j in range(pts)])
        matrix = np.array([[np.cos(2 * m * t) for m in range(pts)] for t in thetas])
        assert np.linalg.matrix_rank(matrix, tol=1e-8) < pts


def test_solve_u_residual_gate():
    table = jacobi_coeffs(0)
    with pytest.raises(ArithmeticError, match="residual"):
        solve_U([0.5], table, 1.0)


def solve_profile(rep, capital_n, lam):
    profile = u_profile(fermion_config(rep, capital_n), 1.0, lam)
    return solve_U(dft_extract(profile).bins, jacobi_coeffs(lam), 1.0)


@pytest.mark.parametrize("lam", [16, 18, 30, 40])
def test_solve_u_refuses_casimirs_past_2_53(lam):
    """A 0.5 residual gate let these through: wrong A_l at 16 and 18, and at
    30 and 40 a residual of 0, since every float that large is an integer."""
    with pytest.raises(ArithmeticError, match="2\\^53"):
        solve_profile((2,), 3, lam)


def test_roundtrip_refuses_exact_casimirs_past_2_53_before_sampling(monkeypatch):
    """The exact A_l are checked before any sampling, and the error names the
    first l past 2^53; the sampled route blamed A_0, whose exact value is 3."""

    def sample(*args):
        raise AssertionError("the profile was sampled")

    monkeypatch.setattr(holographic, "u_profile", sample)
    assert casimir_sums(fermion_config((2,), 3), 15)[14] < 2**53
    with pytest.raises(ArithmeticError, match="A_15 is past 2\\^53"):
        holographic_roundtrip((2,), 3, lam=125)


def test_solve_u_refuses_a_wide_residual():
    """Every |A_l| is below 2^53 (4.5e14 at most), yet the float error moves
    the rounding: the recovered A_l are wrong, with residual 0.278."""
    with pytest.raises(ArithmeticError, match="residual 0.278 exceeds"):
        solve_profile((3, 3, 1), 11, 10)
    config = fermion_config((3, 3, 1), 11)
    assert casimir_sums(config, 9) == list(solve_profile((3, 3, 1), 11, 9).casimirs)


def test_moment_cutoff_examples():
    assert moment_cutoff(2, 3) == 2
    assert moment_cutoff(1, 2) == 1
    assert moment_cutoff(3, 4) == 2


def test_moment_table_built_once_per_size():
    moment_table.cache_clear()
    for rep in partitions(10):
        assert holographic_roundtrip(rep, 11)["match"]
    assert moment_table.cache_info().misses == 1
    table = moment_table(10, 11)
    assert tuple(table.values()) == partitions(10)
    cutoff = moment_cutoff(10, 11)
    assert {len(key) for key in table} == {cutoff}
    assert len({key[: cutoff - 1] for key in table}) < len(table)
    with pytest.raises(TypeError):
        table[(0,)] = (10,)


def test_recover_diagram_route():
    for rep in partitions(4):
        config = fermion_config(rep, 5)
        cutoff = moment_cutoff(4, 5)
        assert recover_diagram(moments(config, cutoff), 4, 5) == rep
    with pytest.raises(ValueError, match="inconsistent moments"):
        recover_diagram([5, 9999, 9999], 4, 5)
    with pytest.raises(ValueError, match="M_0"):
        recover_diagram([4, 10, 30], 4, 5)


def test_roundtrip_small():
    for n in range(1, 9):
        for rep in partitions(n):
            for rho in (1.0, 2.0):
                result = holographic_roundtrip(rep, n + 1, rho=rho)
                assert result["match"], (rep, rho)
                assert result["residual_max"] < 1e-6


def test_roundtrip_reports_ops():
    result = holographic_roundtrip((2, 2), 5)
    ops = result["ops"]
    assert ops["grid"] == 2 * (result["lam"] + 1)
    assert ops["direct_mults"] == ops["grid"] ** 2
    assert result["casimirs_in"] == result["casimirs_out"]


def test_cutoff_comparison_columns_agree():
    rows = cutoff_comparison_table(8)
    assert [r["n"] for r in rows] == list(range(2, 9))
    for row in rows:
        assert row["moment_cutoff"] == row["k_star"] == k_star(row["n"])


def test_moment_shift_is_a_sum_over_cells():
    """M_k(rep, N) - M_k(empty, N) = sum over cells of (N+c)^k - (N+c-1)^k.

    Adding a cell of content c moves one fermion from N+c-1 to N+c.
    """
    for n in range(1, 11):
        for capital_n in (n + 1, n + 2, 2 * n + 1):
            empty = moments(fermion_config((), capital_n), 7)
            for rep in partitions(n):
                got = moments(fermion_config(rep, capital_n), 7)
                cells = [j - i for i, r in enumerate(rep) for j in range(r)]
                for k in range(8):
                    shift = sum((capital_n + c) ** k - (capital_n + c - 1) ** k for c in cells)
                    assert got[k] - empty[k] == shift, (rep, capital_n, k)


def test_moment_cutoff_is_kstar():
    """The least separating moment prefix, searched over all N moments, is k*(n)."""
    for n in range(1, 15):
        for capital_n in (n + 1, n + 2, 2 * n + 1):
            vectors = [
                moments(fermion_config(rep, capital_n), capital_n)[1:] for rep in partitions(n)
            ]
            least = next(
                cut
                for cut in range(1, capital_n + 1)
                if len({tuple(v[:cut]) for v in vectors}) == len(vectors)
            )
            assert moment_cutoff(n, capital_n) == least == k_star(n), (n, capital_n)


def test_complexity_cases():
    low = holographic_complexity_report(8, 0.0)
    high = holographic_complexity_report(8, 2.0)
    assert low["case"] == "1"
    assert high["case"] == "2"
    assert low["measurement_ops"] == 8.0
    assert high["measurement_ops"] == 512.0


def test_complexity_counts_past_exact_floats():
    """From lam = 12 the A_l of the all-levels configuration pass 2^53, so
    solve_U refuses them; the report counts the solve without rounding."""
    report = holographic_complexity_report(40, 1.0)
    assert (report["grid"], report["direct_mults"], report["solve_mults"]) == (82, 6724, 441)
