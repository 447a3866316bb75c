import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import remainder
from magpsido.decay import (WeightFamily, amplitude_c_eps, analytic_eps_cap,
                            b_shift, conjugate_operator,
                            decay_fit, default_window, epsilon0_estimate,
                            uniform_bound_sweep,
                            weight_taylor_identity_check)
from magpsido.errors import (ConfigError, InsufficientWindowError,
                             NotApplicableError, OverflowGuardError,
                             StripViolationError)
from magpsido.gauge import transversal_gauge, zero_field
from magpsido.quadrature import gauss_legendre_01
from magpsido.quantize import Grid, GridFunction, OperatorMatrix, op_amplitude, op_weyl
from magpsido.spectral import eig_hermitian
from magpsido.symbols import bracket, relativistic_symbol, symbol_from_id


WELL_1D = symbol_from_id("relativistic+gauss_well:depth=2,width=1", 1)


def spectrum_defect(conj, eigenvalues):
    """max |lambda_c - lambda| / max(|lambda|_max, 1) between the dense
    eigenvalues of a conjugated operator and the ascending `eigenvalues`."""
    lam_c = np.sort(np.linalg.eigvals(conj.entries).real)
    scale = max(float(np.abs(eigenvalues).max()), 1.0)
    return float(np.abs(lam_c - eigenvalues).max() / scale)


@pytest.fixture(scope="module")
def g1():
    return transversal_gauge(zero_field(1))


@pytest.fixture(scope="module")
def well_op(g1):
    grid = Grid(1, 20.0, 128)
    return op_weyl(WELL_1D, g1, grid), WELL_1D, grid


@pytest.fixture(scope="module")
def small_well(g1):
    H = op_weyl(WELL_1D, g1, Grid(1, 10.0, 64))
    return H, eig_hermitian(H)


class TestWeightFamilies:
    def test_normalized_at_origin(self):
        x0 = np.zeros((1, 1))
        for w in (WeightFamily("polynomial", p=3), WeightFamily("exponential")):
            assert float(w(0.5, x0)[0]) == pytest.approx(1.0)

    def test_at_least_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, size=(200, 1))
        for w in (WeightFamily("polynomial", p=2), WeightFamily("exponential")):
            assert (w(0.7, x) >= 1.0).all()

    def test_polynomial_formula(self):
        w = WeightFamily("polynomial", p=2)
        x = np.array([[3.0]])
        assert float(w(0.5, x)[0]) == pytest.approx((1 + 1.5**2))

    def test_gradient_matches_finite_difference(self):
        for w in (WeightFamily("polynomial", p=3), WeightFamily("exponential")):
            x = np.array([[0.8], [-2.0]])
            h = 1e-6
            fd = (w(0.4, x + h) - w(0.4, x - h)) / (2 * h)
            assert np.abs(w.grad(0.4, x)[..., 0] - fd).max() < 1e-7

    def test_overflow_guard(self):
        w = WeightFamily("exponential")
        with pytest.raises(OverflowGuardError) as exc:
            w(1.0, np.array([[1e5]]))
        assert exc.value.suggested_max_eps is not None

    def test_polynomial_overflow_guard(self):
        # <0.1 x>^1000 at |x| = 30 is 10^500
        w = WeightFamily("polynomial", p=1000)
        x = np.array([[-30.0], [0.0], [12.0]])
        with pytest.raises(OverflowGuardError) as exc:
            w(0.1, x)
        eps = exc.value.suggested_max_eps
        assert 0.0 < eps < 0.1
        # the suggestion is the largest eps whose weight stays at or below e^690
        assert float(w(eps * (1 - 1e-12), x).max()) == pytest.approx(np.exp(690.0), rel=1e-9)
        with pytest.raises(OverflowGuardError):
            w(eps * (1 + 1e-9), x)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            WeightFamily("gaussian")


class TestShiftField:
    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-30, 30, size=(10000, 2))
        y = rng.uniform(-30, 30, size=(10000, 2))
        for eps in (0.01, 0.1, 0.5, 1.0):
            assert np.linalg.norm(b_shift(eps, x, y), axis=-1).max() <= 1.0

    def test_increment_identity(self):
        # <eps x> - <eps y> = eps <x - y, b(x,y)> exactly
        rng = np.random.default_rng(2)
        x = rng.uniform(-5, 5, size=(500, 3))
        y = rng.uniform(-5, 5, size=(500, 3))
        eps = 0.3
        lhs = bracket(eps * x) - bracket(eps * y)
        rhs = eps * ((x - y) * b_shift(eps, x, y)).sum(-1)
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_antidiagonal_vanishes(self):
        x = np.array([[2.0, -1.0]])
        assert np.abs(b_shift(0.5, x, -x)).max() == 0.0


class TestConjugation:
    def test_diagonal_invariant(self):
        grid = Grid(1, 1.0, 8)
        H = OperatorMatrix(np.diag(np.arange(8.0)) + 0j, grid, symmetrized=True)
        for w in (WeightFamily("polynomial", p=2), WeightFamily("exponential")):
            He = conjugate_operator(H, w, 0.3)
            assert np.abs(He.entries - H.entries).max() < 1e-14
            assert np.abs(remainder(H, w, 0.3)).max() < 1e-14

    def test_entrywise_ratio_formula(self, well_op):
        H, sym, grid = well_op
        w = WeightFamily("polynomial", p=1)
        eps = 0.25
        He = conjugate_operator(H, w, eps)
        f = w(eps, grid.nodes)
        j, k = 5, 100
        assert He.entries[j, k] == pytest.approx(H.entries[j, k] * f[j] / f[k],
                                                 rel=1e-14)
        assert He.entries[k, j] == pytest.approx(H.entries[k, j] * f[k] / f[j],
                                                 rel=1e-14)

    def test_similarity_preserves_spectrum(self, well_op):
        H, sym, grid = well_op
        lam = np.linalg.eigvalsh(H.entries)
        for kind, p in (("exponential", 1), ("polynomial", 2)):
            He = conjugate_operator(H, WeightFamily(kind, p=p), 0.1)
            lam2 = np.sort(np.linalg.eigvals(He.entries).real)
            assert np.abs(lam - lam2).max() < 1e-9 * np.abs(lam).max()

    def test_spectrum_defect_sees_a_shift(self, well_op):
        H, _, _ = well_op
        lam = np.linalg.eigvalsh(H.entries)
        shifted = OperatorMatrix(H.entries + 1e-6 * np.eye(H.grid.size), H.grid)
        scale = max(np.abs(lam).max(), 1.0)
        assert spectrum_defect(shifted, lam) == pytest.approx(1e-6 / scale, rel=1e-3)

    @given(st.floats(min_value=0.0, max_value=analytic_eps_cap(WELL_1D), exclude_min=True),
           st.sampled_from([("exponential", 1), ("polynomial", 2)]))
    @settings(max_examples=40, deadline=None)
    def test_random_eps_keeps_spectrum(self, small_well, eps, weight):
        H, dec = small_well
        He = conjugate_operator(H, WeightFamily(weight[0], p=weight[1]), eps)
        assert spectrum_defect(He, dec.eigenvalues) < 1e-9

    def test_eps_range(self, well_op):
        H, _, _ = well_op
        with pytest.raises(ConfigError):
            conjugate_operator(H, WeightFamily("exponential"), 1.5)


class TestUniformSweep:
    def test_diagonal_gives_zero_and_full_eps0(self):
        grid = Grid(1, 1.0, 8)
        H = OperatorMatrix(np.diag(np.linspace(1, 3, 8)) + 0j, grid,
                           symmetrized=True)
        rows, eps0 = uniform_bound_sweep(H, WeightFamily("exponential"),
                                         [0.05, 0.1, 0.2])
        assert all(r[1] == 0.0 for r in rows)
        assert eps0 == 0.2

    def test_relativistic_bounded_variation(self, g1):
        grid = Grid(1, 40.0, 192)
        sym = symbol_from_id("relativistic+gauss_well:depth=2,width=1", 1)
        H = op_weyl(sym, g1, grid)
        rows, eps0 = uniform_bound_sweep(H, WeightFamily("exponential"),
                                         [0.0125, 0.025, 0.05, 0.1])
        vals = [r[1] for r in rows]
        assert max(vals) / min(vals) < 3.0
        assert eps0 is not None

    def test_sorted_required(self, well_op):
        H, _, _ = well_op
        with pytest.raises(ConfigError):
            uniform_bound_sweep(H, WeightFamily("exponential"), [0.1, 0.05])

    def test_precomputed_decomposition(self, well_op):
        H, _, _ = well_op
        w = WeightFamily("exponential")
        eps_list = [0.025, 0.05, 0.1]
        assert (uniform_bound_sweep(H, w, eps_list, dec=eig_hermitian(H))
                == uniform_bound_sweep(H, w, eps_list))


class TestWeightIdentities:
    def test_coincident_points(self):
        x = np.random.default_rng(3).uniform(-4, 4, size=(50, 2))
        for w in (WeightFamily("polynomial", p=2), WeightFamily("exponential")):
            assert weight_taylor_identity_check(w, 0.4, (x, x)) < 1e-14

    def test_exponential_exact_identity(self):
        # single pair from the worked example: d=1, x=2, y=-1, eps=0.3
        w = WeightFamily("exponential")
        res = weight_taylor_identity_check(
            w, 0.3, (np.array([[2.0]]), np.array([[-1.0]])))
        assert res < 1e-12

    def test_exponential_bulk(self):
        rng = np.random.default_rng(4)
        pairs = (rng.uniform(-5, 5, size=(10000, 1)), rng.uniform(-5, 5, size=(10000, 1)))
        w = WeightFamily("exponential")
        for eps in (0.05, 0.3, 1.0):
            assert weight_taylor_identity_check(w, eps, pairs) < 1e-12

    def test_polynomial_even_orders_quadrature_exact(self):
        rng = np.random.default_rng(5)
        pairs = (rng.uniform(-5, 5, size=(2000, 1)), rng.uniform(-5, 5, size=(2000, 1)))
        for p in (2, 4):
            res = weight_taylor_identity_check(WeightFamily("polynomial", p=p), 1.0, pairs)
            assert res < 1e-10

    def test_polynomial_odd_order_small_eps(self):
        # odd p makes the line integrand non-polynomial; the quadrature is
        # still far below tolerance for eps <= 0.2 on this box
        rng = np.random.default_rng(6)
        pairs = (rng.uniform(-5, 5, size=(2000, 1)), rng.uniform(-5, 5, size=(2000, 1)))
        res = weight_taylor_identity_check(WeightFamily("polynomial", p=3), 0.2, pairs)
        assert res < 1e-10


class TestShiftAmplitudes:
    def test_eps_cap(self):
        sym = relativistic_symbol(1)
        assert analytic_eps_cap(sym) == pytest.approx(0.125)
        with pytest.raises(StripViolationError):
            amplitude_c_eps(sym, 0.2)

    def test_requires_analytic_extension(self):
        from magpsido.symbols import HormanderSymbol
        bare = HormanderSymbol(order=0.0, f=lambda e: np.ones(np.shape(e)[:-1]),
                               dimension=1, symbol_id="bare")
        with pytest.raises(NotApplicableError):
            amplitude_c_eps(bare, 0.05)

    def test_small_eps_limit(self):
        sym = relativistic_symbol(1)
        amp = amplitude_c_eps(sym, 1e-6)
        x = np.array([[1.0]]); y = np.array([[0.5]]); e = np.array([[2.0]])
        mid = sym.eval((x + y) / 2, e)
        assert np.abs(amp(x, y, e) - mid).max() < 1e-6

    def test_antidiagonal_reduces_to_real_symbol(self):
        sym = relativistic_symbol(1)
        amp = amplitude_c_eps(sym, 0.1)
        x = np.array([[2.0]])
        e = np.array([[1.3]])
        want = sym.eval(np.zeros((1, 1)), e)
        assert np.abs(amp(x, -x, e) - want).max() < 1e-14

    def test_closed_form_at_equal_points(self):
        # x = y = 1, eta = 0, eps = 0.1: shift is i eps b with
        # b = 0.2/(2 <0.1>), and the value is sqrt(1 - (eps b)^2)
        sym = relativistic_symbol(1)
        eps = 0.1
        amp = amplitude_c_eps(sym, eps)
        x = np.array([[1.0]])
        b = eps * 2.0 / (2 * np.sqrt(1 + eps**2))  # = 0.2 / (2 <0.1>)
        want = np.sqrt(1 - (eps * b) ** 2 + 0j)
        got = amp(x, x, np.zeros((1, 1)))
        assert complex(got[0]) == pytest.approx(complex(want), abs=1e-14)

    def test_first_order_split_pointwise(self):
        # c_eps = a + eps d_eps with d_eps = i int_0^1 <b_eps, grad a(eta + i t eps b_eps)> dt,
        # grad <eta> = eta/<eta> in closed form and the t-integral by Gauss-Legendre
        sym = relativistic_symbol(1)
        eps = 0.05
        c = amplitude_c_eps(sym, eps)
        rng = np.random.default_rng(7)
        x = rng.uniform(-4, 4, size=(200, 1))
        y = rng.uniform(-4, 4, size=(200, 1))
        e = rng.uniform(-6, 6, size=(200, 1))
        b = b_shift(eps, x, y)
        d_eps = 0.0
        for t, wt in zip(*gauss_legendre_01(8)):
            zeta = e + 1j * t * eps * b
            d_eps = d_eps + 1j * wt * (b * zeta).sum(-1) / bracket(zeta)
        mid = sym.eval((x + y) / 2, e)
        res = np.abs(c(x, y, e) - mid - eps * d_eps).max()
        assert res < 1e-10

    def test_conjugation_matches_shift_amplitude(self, g1):
        grid = Grid(1, 20.0, 128)
        sym = relativistic_symbol(1)
        eps = 0.05
        H = op_weyl(sym, g1, grid).entries
        f = WeightFamily("exponential")(eps, grid.nodes)
        lhs = (f[:, None] / f[None, :]) * H
        Ec = op_amplitude(amplitude_c_eps(sym, eps), g1, grid).entries
        ratio = np.linalg.norm(lhs - Ec) / np.linalg.norm(H)
        assert ratio < 1e-3


class TestDecayFit:
    def test_exact_exponential_model(self):
        grid = Grid(1, 20.0, 256)
        u = GridFunction(np.exp(-bracket(grid.nodes)), grid)
        fit = decay_fit(u, "exponential", default_window(grid))
        assert fit.rate == pytest.approx(1.0, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_exact_polynomial_model(self):
        grid = Grid(1, 20.0, 256)
        u = GridFunction(bracket(grid.nodes) ** -4.0, grid)
        fit = decay_fit(u, "polynomial", default_window(grid))
        assert fit.rate == pytest.approx(4.0, abs=1e-6)

    def test_window_validation(self):
        grid = Grid(1, 20.0, 64)
        u = GridFunction(np.ones(64), grid)
        with pytest.raises(ConfigError):
            decay_fit(u, "exponential", (5.0, 19.0))  # beyond 0.8 L

    def test_insufficient_samples(self):
        grid = Grid(1, 20.0, 64)
        vals = np.exp(-bracket(grid.nodes))
        vals[np.abs(grid.nodes[:, 0]) > 7.0] = 0.0  # below the floor
        u = GridFunction(vals, grid)
        with pytest.raises(InsufficientWindowError):
            decay_fit(u, "exponential", (7.0, 15.9))

    def test_polynomial_order_grows_with_window(self, g1):
        # super-polynomial decay: the fitted order increases as the fit
        # window moves outward
        grid = Grid(1, 30.0, 384)
        sym = symbol_from_id("kinetic+gauss_well:depth=2,width=1", 1)
        H = op_weyl(sym, g1, grid)
        lam, V = np.linalg.eigh(H.entries)
        u = GridFunction(V[:, 0], grid)
        inner = decay_fit(u, "polynomial", (0.35 * grid.L, 0.6 * grid.L))
        outer = decay_fit(u, "polynomial", (0.5 * grid.L, 0.8 * grid.L))
        assert inner.rate >= 6.0
        assert outer.rate > inner.rate

    def test_ground_state_rate(self, g1):
        grid = Grid(1, 30.0, 384)
        sym = symbol_from_id("relativistic+gauss_well:depth=2,width=1", 1)
        H = op_weyl(sym, g1, grid)
        lam, V = np.linalg.eigh(H.entries)
        assert lam[0] < 1.0
        fit = decay_fit(GridFunction(V[:, 0], grid), "exponential",
                        default_window(grid))
        assert fit.rate > 0
        assert fit.r_squared > 0.98


def swept_eps0(H, w, eps_list):
    return uniform_bound_sweep(H, w, eps_list)[1]


class TestEpsilonZero:
    def test_analytic_value_for_relativistic(self, well_op):
        H, sym, grid = well_op
        w = WeightFamily("exponential")
        est = epsilon0_estimate(sym, w, swept_eps0(H, w, [0.0125, 0.025, 0.05]))
        assert est["analytic_eps0"] == pytest.approx(0.125)
        assert est["empirical_eps0"] is not None

    def test_polynomial_weight_has_no_analytic_cap(self, well_op):
        H, sym, grid = well_op
        w = WeightFamily("polynomial", p=2)
        est = epsilon0_estimate(sym, w, swept_eps0(H, w, [0.025, 0.05]))
        assert est["analytic_eps0"] is None

    def test_diagonal_operator_keeps_whole_sweep(self):
        grid = Grid(1, 1.0, 8)
        H = OperatorMatrix(np.diag(np.linspace(1, 2, 8)) + 0j, grid,
                           symmetrized=True)
        w = WeightFamily("exponential")
        est = epsilon0_estimate(relativistic_symbol(1), w, swept_eps0(H, w, [0.05, 0.1]))
        assert est["empirical_eps0"] == 0.1
