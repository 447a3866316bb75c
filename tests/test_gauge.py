import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assembled_phases, pair_phases
from magpsido import _kernels
from magpsido.errors import ConfigError
from magpsido.gauge import (_cross_sum, _flux_means, constant_field_2d,
                            cos_field_2d, field_from_id, gauge_transform, grid_phase,
                            line_integral_A, magnetic_phase,
                            potential_residual, transversal_gauge, zero_field)
from magpsido.harness import Scenario, ScenarioConfig, _named_chi
from magpsido.quadrature import gauss_legendre_01
from magpsido.quantize import Grid, op_weyl
from magpsido.symbols import symbol_from_id


def line_quadrature_table(g, nodes, order=16):
    """Reference phase table: Gauss rule along each segment over g.potential."""
    s_nodes, s_weights = gauss_legendre_01(order)
    x = nodes[:, None, :]
    diff = nodes[None, :, :] - x
    acc = np.zeros(diff.shape[:-1])
    for s, w in zip(s_nodes, s_weights):
        acc += w * (diff * g.potential(x + s * diff)).sum(axis=-1)
    return np.exp(-1j * acc)


def sin_chi(a, b, c):
    """chi(x) = a sin(b x0) x1 + c x0^2 and its gradient."""
    def chi(X):
        X = np.asarray(X, dtype=float)
        return a * np.sin(b * X[..., 0]) * X[..., 1] + c * X[..., 0] ** 2

    def grad(X):
        X = np.asarray(X, dtype=float)
        return np.stack([a * b * np.cos(b * X[..., 0]) * X[..., 1] + 2 * c * X[..., 0],
                         a * np.sin(b * X[..., 0])], axis=-1)

    return chi, grad


G_COS = transversal_gauge(cos_field_2d(1.0))
G_CONST = transversal_gauge(constant_field_2d(1.0))
GRID = Grid(2, 6.0, 8)
NODES = GRID.nodes


@pytest.fixture(scope="module")
def g_const():
    return G_CONST


@pytest.fixture(scope="module")
def g_cos():
    return G_COS


class TestTransversalGauge:
    def test_zero_field_gives_zero_potential(self):
        g = transversal_gauge(zero_field(2))
        X = np.random.default_rng(0).uniform(-3, 3, size=(20, 2))
        assert np.abs(g.potential(X)).max() == 0.0
        assert np.abs(pair_phases(g, X) - 1.0).max() == 0.0
        assert grid_phase(g, GRID) is None

    def test_constant_field_closed_form(self, g_const):
        # A(x) = (-b x2 / 2, b x1 / 2) for B_12 = b = 1
        X = np.array([[1.0, 2.0], [-0.5, 3.0]])
        A = g_const.potential(X)
        want = np.stack([-X[:, 1] / 2, X[:, 0] / 2], axis=-1)
        assert np.abs(A - want).max() < 1e-14

    def test_cos_field_potential_consistency(self, g_cos):
        assert potential_residual(g_cos, radius=4.0, density=16) < 1e-6

    def test_constant_field_potential_consistency(self, g_const):
        assert potential_residual(g_const, radius=4.0, density=8) < 1e-8


class TestLineIntegral:
    def test_zero_potential(self):
        g = transversal_gauge(zero_field(2))
        val = line_integral_A(g, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert val == 0.0

    def test_constant_field_cross_form(self, g_const):
        # closed form (b/2)(x1 y2 - x2 y1)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert line_integral_A(g_const, x, y) == pytest.approx(0.5, abs=1e-14)

    def test_zero_length_segment(self, g_cos):
        x = np.array([1.3, -0.4])
        assert line_integral_A(g_cos, x, x) == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_order_stability(self, g_cos):
        # order-16 vs order-32 agree at roundoff for the smooth catalog field
        x = np.array([2.0, -1.0])
        y = np.array([-1.5, 2.5])
        v16 = line_integral_A(g_cos, x, y)
        v32 = _cross_sum(_flux_means(g_cos.field, x, y, 32, 0.0), x, y)
        assert v16 == pytest.approx(v32, abs=1e-13)

    def test_collinear_additivity(self, g_cos):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(-3, 3, 2)
            y = rng.uniform(-3, 3, 2)
            t = rng.uniform(0, 1)
            z = x + t * (y - x)
            total = line_integral_A(g_cos, x, y)
            split = line_integral_A(g_cos, x, z) + line_integral_A(g_cos, z, y)
            assert abs(total - split) < 1e-12


class TestMagneticPhase:
    def test_unit_modulus_and_symmetry(self, g_cos):
        rng = np.random.default_rng(3)
        x = rng.uniform(-3, 3, size=(40, 2))
        y = rng.uniform(-3, 3, size=(40, 2))
        ph = magnetic_phase(g_cos, x, y)
        assert np.abs(np.abs(ph) - 1.0).max() < 1e-14
        back = magnetic_phase(g_cos, y, x)
        assert np.abs(ph * back - 1.0).max() < 1e-12

    def test_constant_field_reference_value(self, g_const):
        ph = magnetic_phase(g_const, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert complex(ph) == pytest.approx(np.exp(-0.5j), abs=1e-14)

    def test_phase_table_matches_pointwise(self, g_cos, g_const):
        grid = Grid(2, 2.0, 6)
        for g in (g_cos, g_const):
            table = assembled_phases(g, grid)
            assert np.abs(table - pair_phases(g, grid.nodes)).max() < 1e-12


class TestTriangleFluxTable:
    """The phases `grid_phase` gives the assemblies, gathered on grid nodes."""

    @pytest.mark.parametrize("block", [65536, 97])
    def test_matches_line_quadrature_oracle(self, g_cos, block, monkeypatch):
        # the gather forms the phases in slabs of about `block` entries
        monkeypatch.setattr(_kernels, "GATHER_BLOCK", block)
        table = assembled_phases(g_cos, GRID)
        assert np.abs(table - line_quadrature_table(g_cos, NODES)).max() <= 1e-12

    def test_shifted_gauge_matches_line_quadrature_oracle(self, g_cos):
        chi, grad = sin_chi(0.8, 1.3, -0.2)
        g2 = gauge_transform(g_cos, chi, grad)
        assert np.abs(assembled_phases(g2, GRID)
                      - line_quadrature_table(g2, NODES)).max() <= 1e-12

    def test_bit_exact_hermitian(self, g_cos, g_const, monkeypatch):
        monkeypatch.setattr(_kernels, "GATHER_BLOCK", 97)
        chi, grad = sin_chi(0.5, 2.0, 0.3)
        for g in (g_cos, g_const, gauge_transform(g_cos, chi, grad),
                  gauge_transform(transversal_gauge(zero_field(2)), chi, grad)):
            omega = assembled_phases(g, GRID)
            assert np.array_equal(omega, omega.conj().T)

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-2, 2), b=st.floats(-3, 3), c=st.floats(-1, 1),
           g=st.sampled_from([G_COS, G_CONST]))
    def test_gauge_shift_is_exact_phase_factor(self, a, b, c, g):
        chi, grad = sin_chi(a, b, c)
        shifted = assembled_phases(gauge_transform(g, chi, grad), GRID)
        vals = chi(NODES)
        want = assembled_phases(g, GRID) * np.exp(-1j * (vals[None, :] - vals[:, None]))
        assert np.abs(shifted - want).max() <= 1e-12

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("block", [65536, 97])
    def test_keyed_table_matches_node_pairs(self, g_cos, n, block, monkeypatch):
        # grid_phase runs the rule once per pair of first coordinates, the
        # reference on every node pair
        monkeypatch.setattr(_kernels, "GATHER_BLOCK", block)
        chi, grad = sin_chi(0.8, 1.3, -0.2)
        grid = Grid(2, 6.0, n)
        for g in (g_cos, gauge_transform(g_cos, chi, grad)):
            assert np.abs(assembled_phases(g, grid)
                          - pair_phases(g, grid.nodes)).max() <= 1e-14

    def test_keyed_table_runs_rule_per_coordinate_pair(self):
        # n^2 nodes, n distinct x_1 values: at most n^2 key pairs of 16 x 16 points
        n = 8
        for B in (cos_field_2d(1.0), constant_field_2d(0.5)):
            fun = B.components[(0, 1)]
            points = []

            def counted(x):
                points.append(np.asarray(x)[..., 0].size)
                return fun(x)

            B.components[(0, 1)] = counted
            grid_phase(transversal_gauge(B), Grid(2, 6.0, n))
            assert 0 < sum(points) <= 256 * n**2

    @settings(max_examples=25, deadline=None)
    @given(half_n=st.integers(2, 6), L=st.floats(1.0, 6.0), amp=st.floats(-2, 2))
    def test_repeated_coordinates_match_line_quadrature(self, half_n, L, amp):
        # each first coordinate of a tensor grid is shared by n nodes, and
        # the flux means are keyed by it
        grid = Grid(2, L, 2 * half_n)
        g = transversal_gauge(cos_field_2d(amp))
        omega = assembled_phases(g, grid)
        assert np.abs(omega - line_quadrature_table(g, grid.nodes)).max() <= 1e-12
        assert np.array_equal(omega, omega.conj().T)

    @settings(max_examples=40, deadline=None)
    @given(b=st.floats(-2, 2), shifted=st.booleans(), half_n=st.integers(2, 8),
           L=st.floats(1.0, 6.0))
    def test_constant_field_table_matches_closed_form(self, b, shifted, half_n, L):
        # exp(-i (b/2)(x_j1 x_k2 - x_j2 x_k1)), times exp(-i (chi_k - chi_j)) when shifted
        grid = Grid(2, L, 2 * half_n)
        nodes = grid.nodes
        g = transversal_gauge(constant_field_2d(b))
        x = nodes[:, None, :]
        y = nodes[None, :, :]
        E = 0.5 * b * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])
        if shifted:
            chi, grad = _named_chi("bilinear", 2)
            g = gauge_transform(g, chi, grad)
            c = chi(nodes)
            E = E + (c[None, :] - c[:, None])
        assert np.abs(assembled_phases(g, grid) - np.exp(-1j * E)).max() <= 1e-12


class TestGaugeTransform:
    def test_zero_transform_is_identity(self, g_const):
        g2 = gauge_transform(g_const, lambda X: np.zeros(np.asarray(X).shape[:-1]),
                             lambda X: np.zeros_like(np.asarray(X, dtype=float)))
        X = np.random.default_rng(5).uniform(-2, 2, size=(10, 2))
        assert np.abs(g2.potential(X) - g_const.potential(X)).max() < 1e-14

    def test_constant_shift_leaves_phases(self, g_const):
        g2 = gauge_transform(g_const, lambda X: np.full(np.asarray(X).shape[:-1], 3.7),
                             lambda X: np.zeros_like(np.asarray(X, dtype=float)))
        x = np.array([1.0, -1.0]); y = np.array([0.5, 2.0])
        assert complex(magnetic_phase(g2, x, y)) == pytest.approx(
            complex(magnetic_phase(g_const, x, y)), abs=1e-13)

    def test_gradient_segment_identity_1d(self):
        # A = 0, chi(x) = x^2: transformed phase is exp(-i (y^2 - x^2))
        g = transversal_gauge(zero_field(1))
        chi = lambda X: np.asarray(X)[..., 0] ** 2
        grad = lambda X: 2.0 * np.asarray(X, dtype=float)
        g2 = gauge_transform(g, chi, grad)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.uniform(-2, 2, 1)
            y = rng.uniform(-2, 2, 1)
            got = complex(magnetic_phase(g2, x, y))
            want = np.exp(-1j * (y[0] ** 2 - x[0] ** 2))
            assert got == pytest.approx(want, abs=1e-12)

    def test_phase_factorization_general(self, g_cos):
        # omega'(x,y) = omega(x,y) exp(-i (chi(y) - chi(x)))
        chi = lambda X: np.sin(np.asarray(X)[..., 0]) * np.asarray(X)[..., 1]
        grad = lambda X: np.stack([
            np.cos(np.asarray(X)[..., 0]) * np.asarray(X)[..., 1],
            np.sin(np.asarray(X)[..., 0])], axis=-1)
        g2 = gauge_transform(g_cos, chi, grad)
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, size=(15, 2))
        y = rng.uniform(-2, 2, size=(15, 2))
        lhs = magnetic_phase(g2, x, y)
        rhs = magnetic_phase(g_cos, x, y) * np.exp(-1j * (chi(y) - chi(x)))
        assert np.abs(lhs - rhs).max() < 1e-10


class TestGaugeOrigin:
    """The transversal gauge about any origin: the same field, phases that
    differ by a gauge factor, and the same spectrum."""

    ORIGIN = np.array([-0.3, 0.45])

    def test_phases_match_line_quadrature_oracle(self):
        g = transversal_gauge(cos_field_2d(1.0), origin=self.ORIGIN)
        assert potential_residual(g, radius=4.0, density=16) < 1e-6
        table = assembled_phases(g, GRID)
        assert np.abs(table - line_quadrature_table(g, NODES)).max() <= 1e-12
        assert np.abs(table - pair_phases(g, NODES)).max() <= 1e-13

    def test_moving_the_origin_is_a_gauge_change(self, g_const):
        # constant b = 1: A_o = A_0 + grad chi with chi(x) = (o_2 x_1 - o_1 x_2) / 2
        g = transversal_gauge(constant_field_2d(1.0), origin=self.ORIGIN)
        chi = 0.5 * (self.ORIGIN[1] * NODES[:, 0] - self.ORIGIN[0] * NODES[:, 1])
        want = assembled_phases(g_const, GRID) * np.exp(-1j * (chi[None, :] - chi[:, None]))
        assert np.abs(assembled_phases(g, GRID) - want).max() <= 1e-12

    def test_shift_keeps_the_origin(self, g_cos):
        g = transversal_gauge(cos_field_2d(1.0), origin=self.ORIGIN)
        assert np.array_equal(gauge_transform(g, *sin_chi(0.8, 1.3, -0.2)).origin, self.ORIGIN)
        assert np.array_equal(g_cos.origin, [0.0, 0.0])

    @pytest.mark.parametrize("field", ["constant2d:b=0.7", "cos2d:amp=1.3"])
    def test_spectra_agree_at_origin_0_and_the_centre(self, field):
        grid = Grid(2, 4.4, 12)
        sym = symbol_from_id("relativistic", 2)
        lam = [np.linalg.eigvalsh(op_weyl(sym, transversal_gauge(field_from_id(field, 2),
                                                                  origin=o), grid).entries)
               for o in (None, grid.centre)]
        assert np.abs(lam[0] - lam[1]).max() <= 1e-12 * np.abs(lam[0]).max()
        centred = Scenario(ScenarioConfig.from_dict(
            {"symbol": "relativistic", "field": field, "suites": [],
             "grid": {"d": 2, "L": 4.4, "n": 12}})).gauge
        assert np.array_equal(centred.origin, grid.centre)
        assert potential_residual(centred, radius=2.2, density=16) < 1e-6

    @pytest.mark.parametrize("n", [8, 12])
    def test_grid_phase_at_the_centre_matches_the_phase_table(self, n):
        grid = Grid(2, 4.4, n)
        X = grid.axis_from(grid.centre[0])
        assert np.array_equal(X[::-1], -X)
        assert np.abs(X - (grid.axis - grid.centre[0])).max() <= 1e-15 * grid.L
        assert np.array_equal(grid.axis_from(0.0), grid.axis)
        g = transversal_gauge(cos_field_2d(1.3), origin=grid.centre)
        omega = assembled_phases(g, grid)
        assert np.abs(omega - pair_phases(g, grid.nodes)).max() <= 1e-13
        # conjugation undoes the reflection of the second coordinate exactly
        omega4 = omega.reshape(n, n, n, n)
        assert np.array_equal(omega4[:, ::-1, :, ::-1], omega4.conj())


class TestFieldCatalog:
    def test_ids_resolve(self):
        assert field_from_id("zero", 1).is_zero
        c = field_from_id("constant2d:b=0.5", 2)
        assert float(c.component(0, 1, np.zeros((1, 2)))[0]) == 0.5
        f = field_from_id("cos2d:amp=2", 2)
        assert float(f.component(0, 1, np.zeros((1, 2)))[0]) == 2.0
        # antisymmetry through the accessor
        assert float(f.component(1, 0, np.zeros((1, 2)))[0]) == -2.0

    def test_dimension_guard(self):
        with pytest.raises(ConfigError):
            field_from_id("constant2d:b=1", 1)

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            field_from_id("spiral", 2)

    @pytest.mark.parametrize("fid, key", [("constant2d:B=0.5", "B"), ("cos2d:b=3", "b"),
                                          ("zero:b=3", "b")])
    def test_unknown_parameter_named(self, fid, key):
        with pytest.raises(ConfigError, match=f"parameter '{key}'"):
            field_from_id(fid, 2)
