import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magpsido.symbols
from magpsido.errors import ConfigError, NotApplicableError, UnsupportedOrderError
from magpsido.symbols import (CONTOUR_NODES, HormanderSymbol, SampleBox, bracket,
                              cauchy_derivative_bound_check, eta_derivative,
                              kinetic_symbol, p_s_symbol, relativistic_symbol,
                              seminorm_estimate, symbol_from_id)
from magpsido.potentials import potential_from_id


def fd_eta_derivative(sym, alpha, x, eta, h):
    """Oracle: nested central differences of step h along frequency axes."""
    eta = np.asarray(eta, dtype=float)

    def rec(alpha_left, pts):
        for axis in range(sym.dimension):
            if alpha_left[axis] > 0:
                e = np.zeros(sym.dimension)
                e[axis] = h
                lowered = tuple(a - (1 if i == axis else 0)
                                for i, a in enumerate(alpha_left))
                return (rec(lowered, pts + e) - rec(lowered, pts - e)) / (2 * h)
        return np.asarray(sym.eval(x, pts), dtype=complex)

    return rec(tuple(alpha), eta)


def polydisc_eta_derivative(sym, alpha, x, eta):
    """Oracle for d = 2: the Cauchy integral over the full CONTOUR_NODES^2
    torus of radius strip_delta/2, also in a coordinate with alpha_j = 0."""
    rho = 0.5 * sym.strip_delta
    theta = 2.0 * np.pi * (np.arange(CONTOUR_NODES) + 0.5) / CONTOUR_NODES
    ring = rho * np.exp(1j * theta)
    shift = np.zeros((CONTOUR_NODES, CONTOUR_NODES, 2), dtype=complex)
    shift[..., 0] = ring[:, None]
    shift[..., 1] = ring[None, :]
    vals = sym.analytic_ext(x[..., None, None, :], eta[..., None, None, :] + shift)
    k1, k2 = alpha
    phase = np.exp(-1j * k1 * theta)[:, None] * np.exp(-1j * k2 * theta)[None, :]
    coeff = (math.factorial(k1) * math.factorial(k2)
             / (rho ** (k1 + k2) * CONTOUR_NODES**2))
    return coeff * (vals * phase).sum(axis=(-2, -1))


_WELL = potential_from_id("gauss_well:depth=1,width=1")[0]

# frequency gradients of catalog symbols, written out by hand
CATALOG_GRADIENTS = {
    "relativistic": lambda x, e: e / bracket(e),
    "relativistic+gauss_well:depth=2,width=1": lambda x, e: e / bracket(e),
    "kinetic": lambda x, e: 2.0 * e,
    "kinetic+gauss_well:depth=2,width=1": lambda x, e: 2.0 * e,
    "p_s:s=-1": lambda x, e: -e / bracket(e) ** 3,
    "p_s:s=0.5": lambda x, e: 0.5 * e * bracket(e) ** -1.5,
    "neg_order+gauss_well:depth=1,width=1": lambda x, e: -(1.0 + _WELL(x)) * e / bracket(e) ** 3,
}


@pytest.fixture(scope="module")
def rel1():
    return relativistic_symbol(1)


@pytest.fixture(scope="module")
def kin1():
    return kinetic_symbol(1)


class TestSeminorm:
    def test_constant_symbol_is_one(self):
        p0 = p_s_symbol(0.0, 1)
        val = seminorm_estimate(p0, (0,), SampleBox(3.0, 5.0), 16)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_first_derivative_of_bracket(self, rel1):
        # closed-form oracle: <eta>^{0} |d<eta>/d eta| = |eta|/<eta>, max on the lattice
        box = SampleBox(2.0, 10.0)
        got = seminorm_estimate(rel1, (1,), box, 64)
        lattice = np.linspace(-10.0, 10.0, 64)
        expected = np.max(np.abs(lattice) / np.sqrt(1 + lattice**2))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got <= 1.0

    def test_budget_enforced(self, rel1):
        with pytest.raises(UnsupportedOrderError):
            seminorm_estimate(rel1, (7,), SampleBox(1.0, 1.0), 4)

    def test_monotone_in_box(self, rel1):
        small = seminorm_estimate(rel1, (1,), SampleBox(1.0, 3.0), 32)
        large = seminorm_estimate(rel1, (1,), SampleBox(1.0, 9.0), 32)
        assert large >= small


class TestCauchyBound:
    def test_order_zero_within_slack(self, rel1):
        res = cauchy_derivative_bound_check(rel1, 0, SampleBox(2.0, 8.0))
        assert res.passed
        assert res.worst_ratio <= 1.0 / 1.5 + 1e-12

    def test_relativistic_up_to_four(self, rel1):
        res = cauchy_derivative_bound_check(rel1, 4, SampleBox(2.0, 8.0))
        assert res.passed, f"worst ratio {res.worst_ratio}"

    def test_entire_quadratic(self, kin1):
        res = cauchy_derivative_bound_check(kin1, 3, SampleBox(2.0, 8.0))
        assert res.passed

    def test_requires_analytic_data(self):
        bare = HormanderSymbol(order=0.0, f=lambda e: np.ones(np.shape(e)[:-1]),
                               dimension=1, symbol_id="bare")
        with pytest.raises(NotApplicableError):
            cauchy_derivative_bound_check(bare, 2, SampleBox(1.0, 1.0))
        with pytest.raises(NotApplicableError):
            bare.analytic_ext(np.zeros(1), np.zeros(1) + 0j)

    @pytest.mark.parametrize("sid", ["relativistic", "neg_order+gauss_well:depth=1,width=1"])
    def test_blocks_do_not_change_the_result(self, sid, monkeypatch):
        sym = symbol_from_id(sid, 2)
        box = SampleBox(1.0, 4.0)
        blocked = cauchy_derivative_bound_check(sym, 3, box, grid_density=5)
        monkeypatch.setattr(magpsido.symbols, "CAUCHY_BLOCK", 2**40)
        whole = cauchy_derivative_bound_check(sym, 3, box, grid_density=5)
        assert blocked == whole

    def test_2d_peak_memory_is_bounded(self):
        # 4096 sample pairs, a 32 x 32 polydisc each for the mixed indices:
        # 134 MB when evaluated in one block
        sym = relativistic_symbol(2)
        tracemalloc.start()
        try:
            cauchy_derivative_bound_check(sym, 2, SampleBox(1.0, 4.0), grid_density=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_relativistic_2d(self):
        rel2 = relativistic_symbol(2)
        res = cauchy_derivative_bound_check(rel2, 2, SampleBox(1.0, 4.0),
                                            grid_density=6)
        assert res.passed


class TestAnalyticEvaluation:
    def test_value_at_origin(self, rel1):
        val = rel1.analytic_ext(np.zeros(1), np.zeros(1) + 0j)
        assert complex(val) == pytest.approx(1.0)

    def test_pure_imaginary_frequency(self, rel1):
        # closed form: (1 + (i xi)^2)^(1/2) = sqrt(1 - xi^2)
        val = rel1.analytic_ext(np.zeros(1), np.array([0.3j]))
        assert complex(val) == pytest.approx(np.sqrt(1 - 0.09), abs=1e-14)

    def test_quadratic_symbol(self, kin1):
        val = kin1.analytic_ext(np.zeros(1), np.array([1.0 + 0.2j]))
        assert complex(val) == pytest.approx((1 + 0.2j) ** 2, abs=1e-14)

    def test_restriction_consistency(self):
        etas = np.linspace(-12, 12, 101)[:, None]
        xs = np.linspace(-4, 4, 7)[:, None]
        for sid in ("relativistic", "kinetic", "p_s:s=-1", "p_s:s=2",
                    "relativistic+gauss_well:depth=2,width=1",
                    "neg_order+gauss_well:depth=1,width=1"):
            sym = symbol_from_id(sid, 1)
            a = sym.eval(xs[:, None, :], etas[None, :, :])
            at = sym.analytic_ext(xs[:, None, :], etas[None, :, :] + 0j)
            assert np.abs(a - at).max() < 1e-12, sid


class TestDerivativeEngine:
    def test_contour_matches_finite_differences(self, rel1):
        x = np.zeros((5, 1))
        eta = np.linspace(-3, 3, 5)[:, None]
        contour = eta_derivative(rel1, (1,), x, eta)
        coarse = fd_eta_derivative(rel1, (1,), x, eta, h=1e-3)
        fine = fd_eta_derivative(rel1, (1,), x, eta, h=5e-4)
        err_coarse = np.abs(coarse - contour).max()
        err_fine = np.abs(fine - contour).max()
        assert err_coarse < 1e-5
        assert err_coarse / max(err_fine, 1e-18) >= 3.5

    def test_contour_matches_closed_form_second_order(self, rel1):
        # d2/deta2 <eta> = 1/<eta>^3
        eta = np.array([[0.7]])
        x = np.zeros((1, 1))
        got = eta_derivative(rel1, (2,), x, eta)
        want = (1 + 0.49) ** -1.5
        assert complex(got[0]) == pytest.approx(want, rel=1e-10)

    @given(st.sampled_from(sorted(CATALOG_GRADIENTS)), st.sampled_from([1, 2]),
           st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
           st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_contour_gradient_matches_catalog_closed_forms(self, sid, d, x, eta):
        # tolerance relative to the order m - 1 size <eta>^(m-1) of a first derivative
        sym = symbol_from_id(sid, d)
        x = np.array(x[:d])
        eta = np.array(eta[:d])
        want = CATALOG_GRADIENTS[sid](x, eta)
        got = [complex(eta_derivative(sym, e, x, eta)) for e in np.eye(d, dtype=int)]
        assert np.abs(np.array(got) - want).max() <= 1e-12 * bracket(eta) ** (sym.order - 1)

    @pytest.mark.parametrize("sid", ["relativistic", "kinetic", "p_s:s=-1",
                                     "relativistic+gauss_well:depth=2,width=1"])
    def test_single_ring_matches_polydisc(self, sid):
        # a multi-index with a zero entry takes one ring in the other
        # coordinate; the full polydisc is the oracle, |alpha| <= 3, |eta| <= 8
        sym = symbol_from_id(sid, 2)
        axis = np.linspace(-8.0, 8.0, 17)
        lattice = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        rng = np.random.default_rng(3)
        radius = 8.0 * np.sqrt(rng.uniform(size=64))
        angle = rng.uniform(0.0, 2.0 * np.pi, 64)
        eta = np.concatenate([lattice[(lattice**2).sum(-1) <= 64.0],
                              np.stack([radius * np.cos(angle), radius * np.sin(angle)], -1)])
        x = rng.uniform(-3.0, 3.0, eta.shape)
        for alpha in ((1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3)):
            got = eta_derivative(sym, alpha, x, eta)
            want = polydisc_eta_derivative(sym, alpha, x, eta)
            assert np.abs(got - want).max() <= 1e-12, alpha

    def test_mixed_index_keeps_the_polydisc(self):
        sym = symbol_from_id("relativistic", 2)
        x = np.zeros((3, 2))
        eta = np.array([[0.4, -1.1], [2.0, 3.0], [-6.0, 1.5]])
        for alpha in ((1, 1), (2, 1), (1, 2)):
            assert np.array_equal(eta_derivative(sym, alpha, x, eta),
                                  polydisc_eta_derivative(sym, alpha, x, eta))

    def test_higher_order_needs_analytic_data(self):
        bare = HormanderSymbol(order=2.0, f=lambda e: (e**2).sum(-1),
                               dimension=1, symbol_id="bare")
        with pytest.raises(NotApplicableError):
            eta_derivative(bare, (2,), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_2d_gradient_axis_selection(self):
        rel2 = relativistic_symbol(2)
        x = np.zeros((1, 2))
        eta = np.array([[0.4, -1.1]])
        g0 = eta_derivative(rel2, (1, 0), x, eta)
        g1 = eta_derivative(rel2, (0, 1), x, eta)
        br = np.sqrt(1 + 0.4**2 + 1.1**2)
        assert complex(g0[0]) == pytest.approx(0.4 / br, rel=1e-12)
        assert complex(g1[0]) == pytest.approx(-1.1 / br, rel=1e-12)


class TestCatalogIds:
    def test_unknown_symbol(self):
        with pytest.raises(ConfigError):
            symbol_from_id("frobnicator", 1)

    def test_p_s_requires_parameter(self):
        with pytest.raises(ConfigError):
            symbol_from_id("p_s", 1)

    def test_well_perturbation_is_real_and_elliptic(self):
        sym = symbol_from_id("relativistic+gauss_well:depth=2,width=1", 1)
        assert sym.order == 1.0
        # elliptic: the well is bounded, so |a| >= <eta> - 2 >= <eta> / 2 for |eta| >= 4
        xs = np.linspace(-5.0, 5.0, 21)[:, None, None]
        etas = np.linspace(4.0, 64.0, 61)[None, :, None]
        assert (np.abs(sym.eval(xs, etas)) >= 0.5 * bracket(etas)).all()
        x = np.array([[0.0]])
        eta = np.array([[0.0]])
        assert float(np.real(sym.eval(x, eta)[0])) == pytest.approx(-1.0)  # 1 - 2

    def test_negative_order_symbol(self):
        sym = symbol_from_id("neg_order+gauss_well:depth=1,width=1", 1)
        assert sym.order == -1.0
        x = np.array([[0.0]])
        eta = np.array([[0.0]])
        # <0>^{-1} (1 + v(0)) = 1 * (1 - 1) = 0
        assert abs(complex(sym.eval(x, eta)[0])) < 1e-14
