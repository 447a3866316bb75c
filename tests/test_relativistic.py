import dataclasses

import numpy as np
import pytest
import scipy.special as sps

from conftest import diamagnetic_check
from magpsido.errors import ConfigError, NotApplicableError
from magpsido.gauge import constant_field_2d, transversal_gauge, zero_field
from magpsido.quantize import Grid, op_weyl
from magpsido.relativistic import (bessel_k, displacement_lattice, kato_estimate, kato_scan,
                                   kernel_pt, pointwise_bound_check, semigroup_checks)
from magpsido.spectral import eig_hermitian, matrix_exp_neg
from magpsido.symbols import bracket, relativistic_symbol, symbol_from_id

WELL_ID = "relativistic+gauss_well:depth=2,width=1"
EULER_GAMMA = 0.5772156649015328606
K01_SERIES_TERMS = 40     # ascending-series terms of the K_0/K_1 oracle
ASYMPTOTIC_TERMS = 12     # terms of the divergent large-argument oracle


def k01_series(z):
    """Ascending series for K_0 and K_1; accurate for z <= 2."""
    z = np.asarray(z, dtype=float)
    q = z * z / 4.0
    log_half_z = np.log(z / 2.0)
    i0 = np.ones_like(z)
    k0_sum = np.zeros_like(z)
    i1 = np.ones_like(z)
    # k = 0 term of the digamma sum: psi(1) + psi(2) = 1 - 2 gamma
    k1_sum = np.full_like(z, 1.0 - 2.0 * EULER_GAMMA)
    term_i0 = np.ones_like(z)
    term_i1 = np.ones_like(z)
    harmonic = 0.0
    for k in range(1, K01_SERIES_TERMS):
        term_i0 = term_i0 * q / k**2
        harmonic += 1.0 / k
        i0 = i0 + term_i0
        k0_sum = k0_sum + term_i0 * harmonic
        term_i1 = term_i1 * q / (k * (k + 1))
        i1 = i1 + term_i1
        k1_sum = k1_sum + term_i1 * (2.0 * harmonic + 1.0 / (k + 1) - 2.0 * EULER_GAMMA)
    i1 = 0.5 * z * i1
    k0 = -(log_half_z + EULER_GAMMA) * i0 + k0_sum
    k1 = 1.0 / z + log_half_z * i1 - 0.25 * z * k1_sum
    return k0, k1


def bessel_k_asymptotic(nu, z):
    """Large-argument expansion sqrt(pi/2z) e^{-z} (1 + sum a_k / z^k).

    Divergent series; useful as an oracle only for z well above ~10.
    """
    z = np.asarray(z, dtype=float)
    acc = np.ones_like(z)
    term = np.ones_like(z)
    mu = 4.0 * nu**2
    for k in range(1, ASYMPTOTIC_TERMS + 1):
        term = term * (mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        acc = acc + term
    return np.sqrt(np.pi / (2.0 * z)) * np.exp(-z) * acc


@pytest.fixture(scope="module")
def g0():
    return transversal_gauge(zero_field(1))


class TestBesselK:
    def test_half_integer_closed_form(self):
        got = bessel_k(0.5, 1.0)
        assert got == pytest.approx(np.sqrt(np.pi / 2) * np.exp(-1.0), abs=1e-15)

    def test_three_halves_recurrence_value(self):
        # K_{3/2}(2) = K_{1/2}(2) (1 + 1/2) = sqrt(pi/4) e^{-2} * 1.5
        got = bessel_k(1.5, 2.0)
        want = np.sqrt(np.pi / 4.0) * np.exp(-2.0) * 1.5
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5])
    def test_against_scipy(self, nu):
        z = np.concatenate([np.linspace(0.02, 2.0, 40),
                            np.linspace(2.01, 30.0, 60)])
        got = bessel_k(nu, z)
        ref = sps.kv(nu, z)
        assert np.abs(got / ref - 1.0).max() < 1e-10

    def test_positive_and_decreasing(self):
        z = np.linspace(0.1, 20.0, 200)
        for nu in (0.0, 1.0, 1.5):
            vals = bessel_k(nu, z)
            assert (vals > 0).all()
            assert (np.diff(vals) < 0).all()

    def test_recurrence_residual(self):
        z = np.linspace(0.1, 20.0, 128)
        for nu in (1.0, 2.0, 3.0, 1.5, 2.5):
            lhs = bessel_k(nu + 1.0, z)
            rhs = bessel_k(nu - 1.0, z) + (2 * nu / z) * bessel_k(nu, z)
            assert (np.abs(lhs - rhs) / np.abs(lhs)).max() < 1e-12

    def test_series_and_integral_match_at_crossover(self):
        for nu in (0, 1):
            a = k01_series(np.array([2.0]))[nu][0]
            b = float(sps.kv(nu, 2.0))
            assert a == pytest.approx(b, rel=1e-12)

    def test_asymptotic_oracle_large_argument(self):
        z = np.array([20.0, 30.0])
        for nu in (0.0, 1.0):
            approx = bessel_k_asymptotic(nu, z)
            exact = bessel_k(nu, z)
            assert np.abs(approx / exact - 1.0).max() < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ConfigError):
            bessel_k(0.3, 1.0)


class TestKernel:
    def test_reference_value_at_origin(self):
        # d=1, t=1, x=0: (2 pi)^{-1} 2 K_1(1) = K_1(1) / pi
        got = kernel_pt(1.0, np.zeros(1), 1)
        want = float(sps.kv(1, 1.0)) / np.pi
        assert float(got) == pytest.approx(want, rel=1e-12)

    def test_even_symmetry(self):
        x = np.linspace(-8, 8, 33)[:, None]
        vals = kernel_pt(0.7, x, 1)
        assert np.abs(vals - vals[::-1]).max() < 1e-15

    def test_nonnegative(self):
        x = np.linspace(-30, 30, 301)[:, None]
        assert (kernel_pt(2.0, x, 1) >= 0).all()

    def test_time_domain_error(self):
        with pytest.raises(NotApplicableError):
            kernel_pt(0.0, np.zeros(1), 1)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_time_error(self, t):
        with pytest.raises(NotApplicableError):
            kernel_pt(t, np.zeros(1), 1)

    @pytest.mark.parametrize("t, s", [(np.inf, 1.0), (1.0, np.inf), (1e308, 1e308)])
    def test_semigroup_checks_need_finite_times(self, t, s):
        with pytest.raises(NotApplicableError, match="finite"):
            semigroup_checks(t, s, Grid(1, 5.0, 16))

    def test_kato_estimate_needs_finite_time(self):
        grid = Grid(1, 5.0, 16)
        with pytest.raises(NotApplicableError, match="finite"):
            kato_estimate(np.ones(grid.size), np.inf, grid)

    def test_mass_is_exponential(self):
        grid = Grid(1, 40.0, 2048)
        Z = displacement_lattice(grid)
        for t in (0.5, 1.0, 2.0):
            mass = grid.h * kernel_pt(t, Z, 1).sum()
            assert mass == pytest.approx(np.exp(-t), abs=1e-5)

    def test_2d_mass(self):
        grid = Grid(2, 14.0, 128)
        Z = displacement_lattice(grid)
        mass = grid.h**2 * kernel_pt(1.0, Z, 2).sum()
        assert mass == pytest.approx(np.exp(-1.0), abs=1e-4)


class TestSemigroupChecks:
    def test_fourier_and_mass_residuals(self):
        res = semigroup_checks(1.0, 1.0, Grid(1, 40.0, 2048))
        assert res["mass"] < 1e-5
        assert res["fourier"] < 1e-5
        assert res["conv"] < 1e-8

    def test_convolution_residual_decreases(self):
        vals = [semigroup_checks(0.5, 0.5, Grid(1, 10.0, n))["conv"]
                for n in (64, 128, 256)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-4

    def test_zero_frequency_matches_mass(self):
        grid = Grid(1, 20.0, 256)
        Z = displacement_lattice(grid)
        pt = kernel_pt(1.0, Z, 1)
        ft0 = grid.h * np.fft.fft(pt.ravel())[0].real
        assert ft0 == pytest.approx(grid.h * pt.sum(), rel=1e-14)


class TestKato:
    def test_zero_potential(self):
        grid = Grid(1, 20.0, 128)
        assert kato_estimate(np.zeros(grid.size), 1.0, grid) == 0.0

    def test_flat_potential_identity(self):
        grid = Grid(1, 20.0, 512)
        for t in (0.25, 1.0, 2.0):
            got = kato_estimate(np.ones(grid.size), t, grid)
            assert got == pytest.approx(1.0 - np.exp(-t), abs=1e-9)

    def test_bump_scan_vanishes_monotonically(self):
        grid = Grid(1, 20.0, 256)
        bump = np.exp(-(grid.nodes**2).sum(-1))
        rows = kato_scan(bump, 1.0, grid, halvings=6)
        vals = [v for _, v in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.05 * vals[0]

    def test_rejects_negative_and_nonfinite(self):
        grid = Grid(1, 10.0, 64)
        with pytest.raises(ConfigError):
            kato_estimate(-np.ones(grid.size), 1.0, grid)
        bad = np.ones(grid.size)
        bad[3] = np.inf
        with pytest.raises(ConfigError):
            kato_estimate(bad, 1.0, grid)

    def test_scan_rejects_negative_halvings(self):
        grid = Grid(1, 10.0, 16)
        with pytest.raises(ConfigError, match="halvings"):
            kato_scan(np.ones(grid.size), 1.0, grid, halvings=-1)
        assert len(kato_scan(np.ones(grid.size), 1.0, grid, halvings=0)) == 1

    def test_coulomb_like_scan_finite(self):
        grid = Grid(1, 20.0, 256)
        from magpsido.potentials import potential_from_id
        v, meta = potential_from_id("coulomb_like:alpha=1,reg=0.1")
        rows = kato_scan(v(grid.nodes), 1.0, grid, halvings=4)
        assert rows[-1][1] < rows[0][1]


class TestFormSum:
    """<eta> plus an x-only potential, quantized as one symbol."""

    def test_weyl_lower_bound_with_growing_potential(self, g0):
        grid = Grid(1, 15.0, 96)
        growth = dataclasses.replace(relativistic_symbol(1), v=lambda x: bracket(x) - 1.0)
        H = op_weyl(growth, g0, grid)
        lam = np.linalg.eigvalsh(H.entries)
        assert lam[0] >= 1.0 - 1e-8  # min spec of the kinetic part plus min V

    def test_gaussian_well_binds(self, g0):
        grid = Grid(1, 30.0, 256)
        H = op_weyl(symbol_from_id(WELL_ID, 1), g0, grid)
        lam = np.linalg.eigvalsh(H.entries)
        assert lam[0] < 0.95


class TestDiamagnetic:
    def test_zero_field_zero_potential_no_violation(self, g0):
        grid = Grid(1, 10.0, 64)
        out = diamagnetic_check(g0, 1.0, 8, grid, seed=0)
        assert out["violation"] <= 1e-9

    def test_constant_field_2d_domination(self):
        grid = Grid(2, 5.0, 16)
        gb = transversal_gauge(constant_field_2d(1.0))
        out = diamagnetic_check(gb, 1.0, 10, grid, seed=1)
        assert out["violation"] < 1e-2

    def test_comparison_semigroup_positive(self, g0):
        # positivity ripples come from the Nyquist truncation of e^{-t<eta>};
        # they sit below the 1e-10 floor once the frequency box is resolved
        grid = Grid(1, 30.0, 384)
        H = op_weyl(symbol_from_id(WELL_ID, 1), g0, grid)
        E = matrix_exp_neg(H, 1.0)
        assert E.real.min() > -1e-10

    def test_eigenfunction_spectral_identity(self, g0):
        grid = Grid(1, 20.0, 128)
        H = op_weyl(symbol_from_id(WELL_ID, 1), g0, grid)
        dec = eig_hermitian(H)
        lam0 = dec.eigenvalues[0]
        u = dec.eigenvectors[:, 0]
        E = matrix_exp_neg(H, 1.0)
        assert np.abs(np.abs(E @ u) - np.exp(-lam0) * np.abs(u)).max() < 1e-10


class TestExpVsKernel:
    def test_matrix_exponential_matches_kernel_under_refinement(self, g0):
        errs = []
        for n in (64, 128):
            grid = Grid(1, 20.0, n)
            H = op_weyl(relativistic_symbol(1), g0, grid)
            E = matrix_exp_neg(H, 1.0)
            diffs = grid.nodes[:, None, :] - grid.nodes[None, :, :]
            dist = np.sqrt((diffs**2).sum(-1))
            K = grid.h * kernel_pt(1.0, diffs, 1)
            band = dist <= grid.L / 2
            errs.append(np.abs(E.real - K)[band].max() / K.max())
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3


class TestPointwiseChain:
    def test_parameter_guard(self, g0):
        grid = Grid(1, 10.0, 64)
        dec = eig_hermitian(op_weyl(symbol_from_id(WELL_ID, 1), g0, grid))
        with pytest.raises(ConfigError):
            pointwise_bound_check(dec, eps=0.6, p=2.0, grid=grid)

    def test_free_kernel_envelope_constant_finite(self, g0):
        grid = Grid(1, 30.0, 384)
        dec = eig_hermitian(op_weyl(relativistic_symbol(1), g0, grid))
        rep = pointwise_bound_check(dec, eps=0.1, p=2.0, grid=grid)
        assert np.isfinite(rep["C_hat"])
        assert rep["kernel_margin"] > 0

    def test_zero_weight_reduces_to_sup_bound(self, g0):
        grid = Grid(1, 30.0, 384)
        dec = eig_hermitian(op_weyl(symbol_from_id(WELL_ID, 1), g0, grid))
        rep = pointwise_bound_check(dec, eps=0.0, p=2.0, grid=grid)
        assert rep["chain_margin"] > 0

    def test_bound_state_margins_positive(self, g0):
        grid = Grid(1, 30.0, 384)
        dec = eig_hermitian(op_weyl(symbol_from_id(WELL_ID, 1), g0, grid))
        rep = pointwise_bound_check(dec, eps=0.1, p=2.0, grid=grid)
        assert rep["kernel_margin"] > 0
        assert rep["chain_margin"] > 0
