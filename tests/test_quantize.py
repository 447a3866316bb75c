import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import magpsido.quantize
from conftest import assembled_phases, pair_phases
from magpsido import _kernels, gauge
from magpsido.decay import amplitude_c_eps
from magpsido.errors import AssemblyError, BudgetError, ConfigError, NotApplicableError
from magpsido.gauge import (constant_field_2d, field_from_id, gauge_transform, grid_phase,
                            transversal_gauge, zero_field)
from magpsido.harness import _named_chi
from magpsido.quantize import (REAL_TOL, Grid, GridFunction, OperatorMatrix, fourier_mode,
                               hermitize, mag_derivative, op_amplitude, op_ps, op_weyl,
                               sobolev_norm)
from magpsido.spectral import eig_hermitian
from magpsido.symbols import HormanderSymbol, bracket, kinetic_symbol, p_s_symbol, symbol_from_id


def mult_symbol(v, d):
    return HormanderSymbol(order=0.0, f=lambda e: np.zeros(np.shape(e)[:-1]),
                           dimension=d, v=v, symbol_id="mult")


@pytest.fixture(scope="module")
def g1():
    return transversal_gauge(zero_field(1))


@pytest.fixture(scope="module")
def grid64():
    return Grid(1, np.pi, 64)


class TestGrid:
    def test_dual_lattice_is_exact_dft_dual(self):
        g = Grid(1, 2.5, 16)
        # e^{i x_j eta_k} must be an exact DFT phase: eta_k x_j = 2 pi j k / n + const
        phase = np.exp(1j * g.axis[:, None] * g.eta_axis[None, :])
        j, k = 3, 5
        want = np.exp(1j * 2 * np.pi * j * (np.fft.fftfreq(16) * 16)[k] / 16
                      + 1j 	* (-g.L) * g.eta_axis[k])
        assert phase[j, k] == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("L, n", [(7.3, 100), (4.4, 16), (30.0, 224), (6.0, 10)])
    def test_nodes_are_antisymmetric_bit_for_bit(self, L, n):
        # h = 2L/n is no dyadic rational here, so -L + j h would round
        # differently at j and n - j
        g = Grid(1, L, n)
        ax = g.axis
        assert np.array_equal(ax[1:], -ax[:0:-1]) and ax[n // 2] == 0.0
        assert np.array_equal(g.midpoint_axis[::2], ax)
        paired = np.arange(n) != n // 2  # -n/2 pi/L has no partner in DFT order
        assert np.array_equal(g.eta_axis[g.reflection][paired], -g.eta_axis[paired])

    @pytest.mark.parametrize("L, n", [(30.0, 512), (30.0, 384), (20.0, 128), (6.0, 16),
                                      (6.0, 32), (20.0, 160), (10.0, 64), (40.0, 2048)])
    def test_dyadic_nodes_are_unchanged(self, L, n):
        # the shipped and benchmark grids: x_j = -L + j h exactly
        h = 2.0 * L / n
        assert np.array_equal(Grid(1, L, n).axis, -L + h * np.arange(n))
        assert np.array_equal(Grid(1, L, n).midpoint_axis, -L + (h / 2.0) * np.arange(2 * n - 1))

    def test_reflection_maps_each_node_to_its_mirror_image(self):
        g = Grid(2, 3.3, 6)
        nodes = g.nodes
        mirror = nodes[g.reflection]
        fixed = np.isclose(np.abs(nodes), g.L).any(axis=1) | (nodes == 0).all(axis=1)
        assert np.array_equal(mirror[~fixed], -nodes[~fixed])
        # node -L is its own lattice image: that coordinate stays, the other flips
        assert np.array_equal(np.abs(mirror), np.abs(nodes))

    def test_validation(self):
        with pytest.raises(ConfigError):
            Grid(3, 1.0, 8)
        with pytest.raises(ConfigError):
            Grid(1, 1.0, 9)
        with pytest.raises(ConfigError):
            Grid(1, -1.0, 8)

    def test_grid_function_length_check(self):
        g = Grid(1, 1.0, 8)
        with pytest.raises(ConfigError):
            GridFunction(np.ones(7), g)


def kernel_table(sym, grid):
    """Kernel K(z) = (2L)^{-d} sum_eta e^{i<z,eta>} f(eta) of the frequency
    factor at the wrapped displacements z = r h, r in [0, n)^d: fhat / h^d,
    the table op_weyl gathers its entries from. Read off column 0 of the
    zero-field operator, H[r, 0] = fhat[r], of a symbol without modulation
    or potential."""
    g0 = transversal_gauge(zero_field(grid.dimension))
    H = op_weyl(sym, g0, grid).entries
    return H[:, 0].reshape((grid.n,) * grid.dimension) / grid.h**grid.dimension


class TestKernelTable:
    def test_constant_symbol(self, g1, grid64):
        K = kernel_table(p_s_symbol(0.0, 1), grid64)
        h = grid64.h
        assert K[0] == pytest.approx(1.0 / h, rel=1e-12)
        assert np.abs(K[1:]).max() < 1e-12 / h

    def test_multiplication_symbol(self, g1, grid64):
        # f = 0: the kernel vanishes and H is diag(v) exactly
        v = lambda x: np.cos(np.asarray(x)[..., 0])
        H = op_weyl(mult_symbol(v, 1), g1, grid64).entries
        assert np.array_equal(H, np.diag(np.cos(grid64.axis)))

    def test_quadratic_symbol_against_direct_dft(self, grid64):
        K = kernel_table(kinetic_symbol(1), grid64)
        eta = grid64.eta_axis
        # direct DFT oracle at a handful of displacements
        for r in (0, 1, 7, 32):
            want = (eta**2 * np.exp(2j * np.pi * r * np.fft.fftfreq(64) * 64 / 64)).sum() / (2 * grid64.L)
            assert K[r] == pytest.approx(want, rel=1e-12)

    def test_x_independence(self, g1, grid64):
        # without g and v every entry is a kernel value: H[j, k] = fhat[(j - k) mod n]
        H = op_weyl(kinetic_symbol(1), g1, grid64).entries
        assert np.array_equal(H, scipy.linalg.circulant(H[:, 0]))

    def test_2d_kernel_is_the_inverse_fft_of_f(self):
        grid = Grid(2, 4.0, 8)
        sym = symbol_from_id("relativistic", 2)
        want = np.fft.ifftn(sym.f(grid.eta_nodes).reshape(8, 8)) / grid.h**2
        # the kernel is fhat's Hermitian part, real for this even f
        assert np.abs(kernel_table(sym, grid) - want).max() <= 1e-15 * np.abs(want).max()


def weyl_oracle(sym, g, grid):
    """Direct triple sum: H[j,k] = n^{-d} sum_q e^{i<x_j - x_k, eta_q>}
    omega[j,k] a((x_j + x_k)/2, eta_q)."""
    x = grid.nodes
    etas = grid.eta_nodes
    mid = 0.5 * (x[:, None, None, :] + x[None, :, None, :])
    a = sym.eval(mid, etas[None, None, :, :])
    phase = np.exp(1j * ((x[:, None, None, :] - x[None, :, None, :]) * etas).sum(-1))
    return pair_phases(g, x) * (phase * a).sum(-1) / grid.size


SYMBOL_IDS = ["relativistic", "kinetic", "neg_order", "relativistic+gauss_well:depth=2,width=1",
              "kinetic+bounded_bump:height=1.5,width=0.7",
              "relativistic+coulomb_like:alpha=1,reg=0.3",
              "neg_order+gauss_well:depth=1,width=1", "neg_order+bounded_bump:height=2,width=1"]


class TestFactorAssembly:
    """op_weyl's factor assembly against the direct frequency sum."""

    @given(sid=st.one_of(st.sampled_from(SYMBOL_IDS),
                         st.floats(-2.0, 2.0).map(lambda s: f"p_s:s={s!r}")),
           d=st.sampled_from([1, 2]), half_n=st.integers(2, 8),
           field=st.sampled_from(["zero", "constant2d:b=0.7", "cos2d:amp=1.3"]),
           L=st.floats(1.0, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_triple_sum(self, sid, d, half_n, field, L):
        n = 2 * half_n if d == 1 else 2 * min(half_n, 3)
        grid = Grid(d, L, n)
        g = transversal_gauge(field_from_id(field if d == 2 else "zero", d))
        sym = symbol_from_id(sid, d)
        H = op_weyl(sym, g, grid).entries
        want = weyl_oracle(sym, g, grid)
        assert np.abs(H - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("factor, where", [("f", "frequency [0.]"), ("g", "midpoint [0.]"),
                                               ("v", "node [-1.]")])
    def test_non_finite_factor_names_its_point(self, factor, where):
        # h = 1: frequency 0, midpoint 0 and node -1 are lattice points; each
        # factor is non-finite at exactly one of its sample points
        grid = Grid(1, 4.0, 8)
        bad = -1.0 if factor == "v" else 0.0

        def poisoned(x):
            x = np.asarray(x)[..., 0]
            return np.where(x == bad, np.nan, 1.0 + 0.0 * x)

        sym = dataclasses.replace(symbol_from_id("relativistic", 1), **{factor: poisoned})
        with pytest.raises(AssemblyError) as exc:
            op_weyl(sym, transversal_gauge(zero_field(1)), grid)
        assert str(exc.value) == f"non-finite symbol factor {factor} at {where}"

    # complex N x N matrices op_weyl holds at its peak for a field on axis 0
    # and n >= 24 (1.29 at N = 576); every other field is refused, so no
    # N x N phase table is ever formed
    ASSEMBLY_WORDS = 1.5

    def test_peak_memory_is_bounded_in_operator_words(self):
        # cos2d at n = 24 (N = 576): the operator and the gather's slabs, at
        # most ASSEMBLY_WORDS complex N x N matrices
        grid = Grid(2, 6.0, 24)
        g = transversal_gauge(field_from_id("cos2d", 2))
        sym = symbol_from_id("relativistic", 2)
        tracemalloc.start()
        try:
            op_weyl(sym, g, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.ASSEMBLY_WORDS * 16 * grid.size**2


def symmetrized_raw_weyl(sym, g, grid):
    """Reference: the assembly before H was built Hermitian. The raw gather
    against the pair-by-pair phases, then (raw + raw^*)/2, stored real when
    its imaginary part is at most REAL_TOL of its largest entry."""
    n, d, N = grid.n, grid.dimension, grid.size
    fvals = sym.f(grid.eta_nodes)
    fhat = np.fft.ifftn(fvals.reshape((n,) * d))
    # evened on each axis where f is even, as op_weyl does
    flip = -np.arange(n) % n
    F = fvals.reshape((n,) * d)
    for ax in range(d):
        if np.array_equal(np.take(F, flip, axis=ax), F):
            fhat = 0.5 * (fhat + np.take(fhat, flip, axis=ax))
    fhat = fhat.reshape(-1)
    r = np.arange(n)
    wrap, mid = (r[:, None] - r) % n, r[:, None] + r
    if d == 2:
        wrap = (wrap[:, None, :, None], wrap[None, :, None, :])
        mid = (mid[:, None, :, None], mid[None, :, None, :])
    raw = pair_phases(g, grid.nodes) * fhat.reshape((n,) * d)[wrap].reshape(N, N)
    if sym.g is not None:
        raw *= sym.g(grid.midpoints).reshape((2 * n - 1,) * d)[mid].reshape(N, N)
    if sym.v is not None:
        raw.flat[::N + 1] += sym.v(grid.nodes)
    H = 0.5 * (raw + raw.conj().T)
    if np.abs(H.imag).max() <= REAL_TOL * np.abs(H).max():
        H = np.ascontiguousarray(H.real)
    return H


def shifted_gauge(field, chi, d):
    """The transversal gauge of a field id, shifted by a named chi (or not)."""
    g = transversal_gauge(field_from_id(field, d))
    return g if chi is None else gauge_transform(g, *_named_chi(chi, d))


def one_row_slabs(grid):
    """A GATHER_BLOCK under which weyl_gather writes one value of the
    leading index per slab, so every slab but the first starts at a0 > 0."""
    n = grid.n
    m = n if grid.dimension == 2 else 1
    return m * n * m


class TestExactHermitian:
    """op_weyl builds H Hermitian bit for bit, with no symmetrization pass."""

    @given(sid=st.one_of(st.sampled_from(SYMBOL_IDS),
                         st.floats(-2.0, 2.0).map(lambda s: f"p_s:s={s!r}")),
           d=st.sampled_from([1, 2]), half_n=st.integers(2, 8),
           field=st.sampled_from(["zero", "constant2d:b=0.7", "cos2d:amp=1.3"]),
           chi=st.sampled_from([None, "quadratic", "bilinear"]),
           tenths=st.integers(11, 79).filter(lambda k: k % 5 != 0))
    @settings(max_examples=80, deadline=None)
    def test_hermitian_with_unit_diagonal_phases(self, sid, d, half_n, field, chi, tenths):
        # L = 1.1 ... 7.9, never a multiple of 1/2: h = 2L/n is no dyadic rational
        n = 2 * half_n if d == 1 else 2 * min(half_n, 4)
        grid = Grid(d, tenths / 10, n)
        g = shifted_gauge(field if d == 2 else "zero", chi, d)
        sym = symbol_from_id(sid, d)
        H = op_weyl(sym, g, grid).entries
        omega = assembled_phases(g, grid)
        with pytest.MonkeyPatch.context() as mp:
            # these grids fit one slab; one row per slab checks every later slab
            mp.setattr(_kernels, "GATHER_BLOCK", one_row_slabs(grid))
            assert np.array_equal(op_weyl(sym, g, grid).entries, H)
            assert np.array_equal(assembled_phases(g, grid), omega)
        assert np.array_equal(H, H.conj().T)
        assert np.all(np.diag(omega) == 1.0)
        assert np.abs(omega - pair_phases(g, grid.nodes)).max() <= 1e-13
        if g.field.is_zero and chi is None:
            # every catalog f is even on each axis: H is the old real path bit for bit
            assert np.array_equal(H, symmetrized_raw_weyl(sym, g, grid))

    @pytest.mark.parametrize("chi", [None, "bilinear"])
    def test_field_on_axis_0_matches_the_phase_table(self, chi, monkeypatch):
        g = shifted_gauge("cos2d:amp=1.0", chi, 2)
        grid = Grid(2, 4.4, 8)
        assert isinstance(grid_phase(g, grid), gauge.AxisPhase)
        monkeypatch.setattr(_kernels, "GATHER_BLOCK", one_row_slabs(grid))
        omega = assembled_phases(g, grid)
        assert np.array_equal(omega, omega.conj().T)
        assert np.all(np.diag(omega) == 1.0)
        assert np.abs(omega - pair_phases(g, grid.nodes)).max() <= 1e-13
        H = op_weyl(symbol_from_id("relativistic", 2), g, grid).entries
        assert np.array_equal(H, H.conj().T)

    @pytest.mark.parametrize("axis", [1, None])
    @pytest.mark.parametrize("chi", [None, "bilinear"])
    def test_field_on_another_axis_is_refused(self, axis, chi):
        # B_12 = cos(x_axis): on axis 1 the flux mean depends on x_2, and a
        # field with no declared axis is not known to be on axis 0
        comps = {(0, 1): lambda x: np.cos(np.asarray(x)[..., 1 if axis == 1 else 0])}
        g = transversal_gauge(gauge.MagneticField(2, comps, axis=axis))
        if chi is not None:
            g = gauge_transform(g, *_named_chi(chi, 2))
        grid = Grid(2, 4.4, 8)
        sym = symbol_from_id("relativistic", 2)
        where = "has no axis" if axis is None else "has axis 1"
        with pytest.raises(NotApplicableError, match=where):
            op_weyl(sym, g, grid)
        with pytest.raises(NotApplicableError, match=where):
            op_amplitude(midpoint_amplitude(sym), g, grid)

    @pytest.mark.parametrize("chi", [None, "bilinear"])
    def test_field_on_axis_0_takes_n_cubed_exponentials(self, chi, monkeypatch):
        # cos2d is on axis 0; phases formed pair by pair would take N^2 = n^4
        sizes = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                if np.iscomplexobj(x):
                    sizes.append(np.size(x))
                return np.exp(x, *args, **kwargs)

        for module in (gauge, magpsido.quantize, _kernels):
            monkeypatch.setattr(module, "np", CountingNumpy())
        n = 12
        op_weyl(symbol_from_id("relativistic", 2), shifted_gauge("cos2d", chi, 2),
                Grid(2, 4.4, n))
        assert 0 < sum(sizes) <= n**3

    def test_defect_is_the_anti_hermitian_part_of_fhat(self, g1, grid64):
        # f + i c <eta>: fhat's anti-Hermitian part is i c fhat(<eta>), and
        # it is what op_weyl removes
        rel = symbol_from_id("relativistic", 1)
        c = 1e-6
        sym = dataclasses.replace(rel, f=lambda e: rel.f(e) + 1j * c * bracket(e))
        H = op_weyl(sym, g1, grid64)
        assert H.hermiticity_defect == pytest.approx(2 * c / np.sqrt(1 + c**2), rel=1e-9)
        want = op_weyl(rel, g1, grid64).entries
        assert H.entries.dtype == np.float64
        assert np.abs(H.entries - want).max() <= 1e-14 * np.abs(want).max()


class TestOpWeyl:
    def test_identity(self, g1, grid64):
        H = op_weyl(p_s_symbol(0.0, 1), g1, grid64)
        assert np.abs(H.entries - np.eye(64)).max() < 1e-14

    def test_laplacian_matches_dft_oracle(self, g1, grid64):
        H = op_weyl(kinetic_symbol(1), g1, grid64)
        eta = grid64.eta_axis
        x = grid64.axis
        ref = (np.exp(1j * np.outer(x, eta)) * eta**2) @ np.exp(-1j * np.outer(eta, x)) / 64
        assert np.linalg.norm(H.entries - ref) / np.linalg.norm(ref) < 1e-12

    def test_multiplication_operator_exact(self, g1, grid64):
        v = lambda x: np.exp(-(np.asarray(x)[..., 0] ** 2))
        H = op_weyl(mult_symbol(v, 1), g1, grid64)
        assert np.abs(H.entries - np.diag(v(grid64.nodes[:, None]).ravel())).max() < 1e-13

    def test_real_symbol_is_symmetrized_with_tiny_defect(self, g1):
        grid = Grid(1, 20.0, 128)
        sym = symbol_from_id("relativistic+gauss_well:depth=2,width=1", 1)
        H = op_weyl(sym, g1, grid)
        assert H.symmetrized
        assert H.hermiticity_defect < 1e-12
        assert np.abs(H.entries - H.entries.conj().T).max() == 0.0

    def test_dimension_mismatch(self, g1):
        with pytest.raises(ConfigError):
            op_weyl(kinetic_symbol(2), g1, Grid(1, 1.0, 8))

    def test_2d_identity_with_field(self):
        g = transversal_gauge(constant_field_2d(0.5))
        grid = Grid(2, 4.0, 8)
        H = op_weyl(p_s_symbol(0.0, 2), g, grid)
        assert np.abs(H.entries - np.eye(64)).max() < 1e-13


class TestGaugeCovariance:
    def test_nonconstant_field_assembly(self):
        # quadrature phase path: spectrum above the kinetic floor, tiny defect
        from magpsido.gauge import cos_field_2d
        grid = Grid(2, 4.0, 10)
        g = transversal_gauge(cos_field_2d(1.0))
        H = op_weyl(symbol_from_id("relativistic", 2), g, grid)
        assert H.hermiticity_defect < 1e-12
        lam = np.linalg.eigvalsh(H.entries)
        assert lam[0] > 0.9

    def test_spectra_and_vectors_match_under_gradient_shift(self):
        grid = Grid(2, 4.0, 10)
        g = transversal_gauge(constant_field_2d(0.5))
        chi = lambda X: np.asarray(X)[..., 0] * np.asarray(X)[..., 1]
        grad = lambda X: np.stack([np.asarray(X)[..., 1], np.asarray(X)[..., 0]], axis=-1)
        g2 = gauge_transform(g, chi, grad)
        sym = symbol_from_id("relativistic", 2)
        H1 = op_weyl(sym, g, grid)
        H2 = op_weyl(sym, g2, grid)
        lam1, V1 = np.linalg.eigh(H1.entries)
        lam2, _ = np.linalg.eigh(H2.entries)
        scale = np.abs(lam1).max()
        assert np.abs(lam1 - lam2).max() / scale < 1e-10
        D = np.exp(1j * chi(grid.nodes))
        W = D[:, None] * V1
        res = np.linalg.norm(H2.entries @ W - W * lam1[None, :], axis=0).max() / scale
        assert res < 1e-10


class TestOpAmplitude:
    def test_midpoint_amplitude_equals_weyl(self, g1):
        grid = Grid(1, 6.0, 32)
        sym = symbol_from_id("relativistic+gauss_well:depth=1,width=1", 1)

        def amp(x, y, e):
            return sym.eval(0.5 * (np.asarray(x, dtype=float)
                                   + np.asarray(y, dtype=float)), e)

        Ha = op_amplitude(amp, g1, grid)
        Hw = op_weyl(sym, g1, grid).entries
        assert np.abs(Ha.entries - Hw).max() < 1e-12 * np.abs(Hw).max()

    def test_constant_amplitude_gives_identity(self, g1):
        grid = Grid(1, 6.0, 16)
        amp = lambda x, y, e: np.ones(np.broadcast(
            np.asarray(x)[..., 0], np.asarray(y)[..., 0], np.asarray(e)[..., 0]).shape,
            dtype=complex)
        H = op_amplitude(amp, g1, grid)
        assert np.abs(H.entries - np.eye(16)).max() < 1e-13

    def test_gauge_of_another_dimension_is_refused(self):
        # as op_weyl refuses it, before any sample is taken
        def amp(x, y, e):
            raise AssertionError("sampled")

        with pytest.raises(ConfigError, match="dimension mismatch"):
            op_amplitude(amp, transversal_gauge(zero_field(1)), Grid(2, 4.0, 8))
        with pytest.raises(ConfigError, match="dimension mismatch"):
            op_amplitude(amp, transversal_gauge(constant_field_2d(0.5)), Grid(1, 4.0, 8))

    def test_budget_guard(self):
        grid = Grid(2, 4.0, 48)  # 48^6 > 1e10
        g = transversal_gauge(zero_field(2))
        with pytest.raises(BudgetError, match="coarser grid") as exc:
            op_amplitude(lambda x, y, e: np.zeros(np.asarray(e).shape[:-1]), g, grid)
        assert "allow_large" not in str(exc.value)

    def test_2d_midpoint_amplitude_equals_weyl(self):
        grid = Grid(2, 4.0, 8)
        g = transversal_gauge(constant_field_2d(0.3))
        sym = symbol_from_id("relativistic", 2)

        def amp(x, y, e):
            return sym.eval(0.5 * (np.asarray(x, dtype=float)
                                   + np.asarray(y, dtype=float)), e)

        Ha = op_amplitude(amp, g, grid)
        Hw = op_weyl(sym, g, grid).entries
        assert np.abs(Ha.entries - Hw).max() < 1e-12 * np.abs(Hw).max()

    @pytest.mark.parametrize("field", ["constant2d:b=0.7", "cos2d:amp=1.3"])
    @pytest.mark.parametrize("chi", [None, "bilinear"])
    def test_magnetic_amplitude_is_the_phases_times_the_zero_field_one(self, field, chi):
        # both assemblies read the same phase bits: H_A = omega * H_0 exactly
        grid = Grid(2, 4.4, 8)
        amp = midpoint_amplitude(symbol_from_id("relativistic", 2))
        g = shifted_gauge(field, chi, 2)
        H0 = op_amplitude(amp, transversal_gauge(zero_field(2)), grid).entries
        H = op_amplitude(amp, g, grid).entries
        assert np.array_equal(H, assembled_phases(g, grid) * H0)


def row_contraction(M, j_multi, n, d):
    """out[k] = n^{-d} sum_q M[k,q] e^{i 2pi (j-k).q/n}: one full row of H."""
    N = M.shape[0]
    k = np.arange(N)
    if d == 1:
        T = np.fft.ifft(M, axis=1)
        return T[k, (j_multi[0] - k) % n]
    T = np.fft.ifft2(M.reshape(N, n, n), axes=(1, 2))
    k1, k2 = k // n, k % n
    return T[k, (j_multi[0] - k1) % n, (j_multi[1] - k2) % n]


def serial_op_amplitude(amp, g, grid):
    """Oracle: the one-thread loop over full rows, every ordered pair sampled."""
    n, d = grid.n, grid.dimension
    nodes = grid.nodes
    etas = grid.eta_nodes
    omega = assembled_phases(g, grid)
    H = np.empty((grid.size, grid.size), dtype=complex)
    for jflat in range(grid.size):
        j_multi = (jflat,) if d == 1 else (jflat // n, jflat % n)
        M = amp(nodes[jflat], nodes[:, None, :], etas[None, :, :])
        H[jflat] = omega[jflat] * row_contraction(M, j_multi, n, d)
    return H


def sin_amplitude(x, y, e):
    """Amplitude that is not symmetric in (x, y)."""
    X = np.asarray(x, dtype=float)[..., 0]
    Y = np.asarray(y, dtype=float)[..., 0]
    E = np.asarray(e, dtype=float)[..., 0]
    return np.exp(-(X**2 + Y**2) / 4 - E**2 / 2.88) * (1 + 0.3 * np.sin(X - Y))


def symmetric_sin_amplitude(x, y, e):
    """Amplitude symmetric in (x, y) bit for bit, complex, and not even in eta."""
    X = np.asarray(x, dtype=float)[..., 0]
    Y = np.asarray(y, dtype=float)[..., 0]
    E = np.asarray(e, dtype=float)[..., 0]
    return (np.exp(-(X**2 + Y**2) / 4 - E**2 / 2.88)
            * (1 + 0.3 * np.sin(X + Y) + 0.2j * np.sin(E)))


def midpoint_amplitude(sym):
    def amp(x, y, e):
        return sym.eval(0.5 * (np.asarray(x, dtype=float) + np.asarray(y, dtype=float)), e)
    return amp


def remainder_amplitude(sym, eps):
    """The first-order remainder amplitude d_eps = (c_eps - a)/eps, pointwise."""
    c_eps, a = amplitude_c_eps(sym, eps), midpoint_amplitude(sym)
    return lambda x, y, e: (c_eps(x, y, e) - a(x, y, e)) / eps


def pair_block(x, y):
    """True on a block call amp(x_j, x_k, .) over node pairs, false on the
    symmetry guard's two calls, which pass one node as a single point."""
    return np.ndim(x) == np.ndim(y) == 3


def last_pair(x, y, grid):
    """True on the 1-D block that holds the last pair (N - 1, N - 1): the
    only pair whose row node is the last node."""
    return pair_block(x, y) and x[-1, 0, 0] == grid.nodes[-1, 0]


# amplitude, gauge and grid of each case; built on use, each case in its own test
AMPLITUDE_CASES = {
    "c_eps": lambda: (amplitude_c_eps(symbol_from_id("relativistic", 1), 0.05),
                      transversal_gauge(zero_field(1)), Grid(1, 10.0, 64)),
    "d_eps": lambda: (remainder_amplitude(symbol_from_id("relativistic", 1), 0.05),
                      transversal_gauge(zero_field(1)), Grid(1, 10.0, 64)),
    "sin": lambda: (symmetric_sin_amplitude, transversal_gauge(zero_field(1)),
                    Grid(1, 8.0, 32)),
    "constant_field_2d": lambda: (midpoint_amplitude(symbol_from_id("relativistic", 2)),
                                  transversal_gauge(constant_field_2d(0.3)),
                                  Grid(2, 4.0, 8)),
}


def _set_pairs_per_block(monkeypatch, pairs, grid):
    monkeypatch.setattr(magpsido.quantize, "AMPLITUDE_BLOCK", pairs * grid.size)


class TestParallelRows:
    """op_amplitude samples each unordered node pair once, in one serial pass
    over blocks of pairs; every block size gives the serial full-row loop's
    matrix bit for bit."""

    @pytest.mark.parametrize("pairs", [None, 1, 3, 7])  # pairs per block; None: AMPLITUDE_BLOCK
    @pytest.mark.parametrize("case", AMPLITUDE_CASES)
    def test_bit_identical_to_serial_rows(self, case, pairs, monkeypatch):
        amp, g, grid = AMPLITUDE_CASES[case]()
        if pairs is not None:
            _set_pairs_per_block(monkeypatch, pairs, grid)
        H = op_amplitude(amp, g, grid).entries
        assert np.array_equal(H, serial_op_amplitude(amp, g, grid))

    def test_asymmetric_amplitude_raises(self):
        with pytest.raises(AssemblyError, match="not symmetric in"):
            op_amplitude(sin_amplitude, transversal_gauge(zero_field(1)), Grid(1, 8.0, 32))

    @pytest.mark.parametrize("case", ["sin", "constant_field_2d"])
    def test_samples_each_unordered_pair_once(self, case, monkeypatch):
        amp, g, grid = AMPLITUDE_CASES[case]()
        _set_pairs_per_block(monkeypatch, 5, grid)
        index = {tuple(x): i for i, x in enumerate(grid.nodes)}
        pairs, guard_calls = [], []

        def counting(x, y, e):
            if pair_block(x, y):
                pairs.extend((index[tuple(a)], index[tuple(b)])
                             for a, b in zip(x[:, 0], y[:, 0]))
            else:
                guard_calls.append(x)
            return amp(x, y, e)

        op_amplitude(counting, g, grid)
        assert pairs == list(zip(*(r.tolist() for r in np.triu_indices(grid.size))))
        assert len(guard_calls) == 2

    def test_error_on_the_last_block_surfaces(self, monkeypatch):
        grid = Grid(1, 8.0, 16)
        _set_pairs_per_block(monkeypatch, 10, grid)  # 136 pairs: 14 blocks
        blocks = []

        def amp(x, y, e):
            if pair_block(x, y):
                blocks.append(x.shape[0])
                if last_pair(x, y, grid):
                    raise ConfigError("last block")
            return symmetric_sin_amplitude(x, y, e)

        with pytest.raises(ConfigError, match="last block"):
            op_amplitude(amp, transversal_gauge(zero_field(1)), grid)
        assert blocks == [10] * 13 + [6]

    def test_nan_in_the_last_block_raises_assembly_error(self, monkeypatch):
        grid = Grid(1, 8.0, 16)
        _set_pairs_per_block(monkeypatch, 10, grid)

        def amp(x, y, e):
            M = symmetric_sin_amplitude(x, y, e)
            if last_pair(x, y, grid):
                M[-1] = np.nan
            return M

        with pytest.raises(AssemblyError, match="non-finite"):
            op_amplitude(amp, transversal_gauge(zero_field(1)), grid)

    @pytest.mark.parametrize("pairs", [1, 3])
    def test_starts_no_thread(self, pairs, monkeypatch):
        grid = Grid(1, 8.0, 32)
        _set_pairs_per_block(monkeypatch, pairs, grid)
        before = threading.active_count()
        alive = []

        def amp(x, y, e):
            alive.append(threading.active_count())
            return symmetric_sin_amplitude(x, y, e)

        op_amplitude(amp, transversal_gauge(zero_field(1)), grid)
        assert len(alive) == -(-528 // pairs) + 2  # one call per block, plus the guard's two
        assert set(alive) == {before}


class TestPsOperators:
    def test_s_zero_identity(self, g1, grid64):
        H = op_ps(0.0, g1, grid64)
        assert np.abs(H.entries - np.eye(64)).max() < 1e-13

    def test_s2_is_one_plus_laplacian(self, g1, grid64):
        H2 = op_ps(2.0, g1, grid64)
        Hk = op_weyl(kinetic_symbol(1), g1, grid64)
        assert np.abs(H2.entries - np.eye(64) - Hk.entries).max() < 1e-11

    def test_inverse_pair_at_zero_field(self, g1, grid64):
        P1 = op_ps(1.0, g1, grid64)
        Pm = op_ps(-1.0, g1, grid64)
        assert np.abs(P1.entries @ Pm.entries - np.eye(64)).max() < 1e-10


class TestSobolevNorm:
    def test_zero_function(self, g1, grid64):
        u = GridFunction(np.zeros(64), grid64)
        assert sobolev_norm(u, 1.0, g1) == 0.0

    def test_s_zero_doubles_l2(self, g1, grid64):
        u = GridFunction(np.random.default_rng(0).standard_normal(64), grid64)
        got = sobolev_norm(u, 0.0, g1)
        assert got == pytest.approx(np.sqrt(2.0) * u.l2_norm(), rel=1e-12)

    def test_single_mode_diagonal_action(self, g1, grid64):
        k = 3
        u = fourier_mode(grid64, (k,))
        eta = np.pi / grid64.L * k
        want = np.sqrt(1.0 + (1.0 + eta**2)) * u.l2_norm()
        got = sobolev_norm(u, 1.0, g1)
        assert got == pytest.approx(want, rel=1e-10)

    def test_negative_order_rejected(self, g1, grid64):
        u = GridFunction(np.ones(64), grid64)
        with pytest.raises(NotApplicableError):
            sobolev_norm(u, -1.0, g1)


class TestMagDerivative:
    def test_zero_index_is_identity(self, g1, grid64):
        u = GridFunction(np.random.default_rng(1).standard_normal(64), grid64)
        v = mag_derivative((0,), u, g1)
        assert np.abs(v.values - u.values).max() < 1e-14

    def test_plane_wave_eigenvector_at_zero_potential(self, g1, grid64):
        k = 5
        u = fourier_mode(grid64, (k,))
        v = mag_derivative((2,), u, g1)
        eta = np.pi / grid64.L * k
        assert np.abs(v.values - eta**2 * u.values).max() < 1e-10

    def test_first_order_matches_finite_difference(self):
        grid = Grid(1, 10.0, 256)
        g = transversal_gauge(zero_field(1))
        chi = lambda X: np.sin(np.asarray(X)[..., 0])
        grad = lambda X: np.stack([np.cos(np.asarray(X)[..., 0])], axis=-1)
        g2 = gauge_transform(g, chi, grad)
        x = grid.axis
        u = GridFunction(np.exp(-(x**2)), grid)
        v = mag_derivative((1,), u, g2)
        du = np.gradient(u.values.real, grid.h)
        want = -1j * du - np.cos(x) * u.values
        inner = np.abs(x) < 5.0
        assert np.abs(v.values - want)[inner].max() < 5e-3  # O(h^2) FD oracle

    def test_2d_axis_ordering(self):
        grid = Grid(2, 4.0, 8)
        g = transversal_gauge(zero_field(2))
        u = fourier_mode(grid, (2, 3))
        v = mag_derivative((1, 1), u, g)
        e1 = np.pi / grid.L * 2
        e2 = np.pi / grid.L * 3
        assert np.abs(v.values - e1 * e2 * u.values).max() < 1e-10


class TestHermitize:
    def test_hermitian_input_unchanged(self, grid64):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        A = A + A.conj().T
        op = hermitize(
            __import__("magpsido.quantize", fromlist=["OperatorMatrix"]).OperatorMatrix(
                A, Grid(1, 1.0, 8)))
        assert op.hermiticity_defect < 1e-15
        assert np.abs(op.entries - A).max() < 1e-14

    def test_skew_part_removed(self):
        rng = np.random.default_rng(3)
        S = rng.standard_normal((8, 8))
        S = S + S.T  # real symmetric, so iS is purely skew-adjoint
        from magpsido.quantize import OperatorMatrix
        op = hermitize(OperatorMatrix(1j * S, Grid(1, 1.0, 8)))
        assert np.abs(op.entries).max() < 1e-14  # (iS + (iS)*)/2 = 0

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        from magpsido.quantize import OperatorMatrix
        op1 = hermitize(OperatorMatrix(A, Grid(1, 1.0, 8)))
        op2 = hermitize(op1)
        assert op2 is op1


class TestRealStorage:
    """Symmetrized operators whose imaginary part is roundoff are stored real."""

    WELL = "relativistic+gauss_well:depth=2,width=1"

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 12)])
    def test_zero_field_even_symbol_is_float64(self, d, n):
        grid = Grid(d, 6.0, n)
        sym = symbol_from_id(self.WELL, d)
        g = transversal_gauge(zero_field(d))
        H = op_weyl(sym, g, grid)
        assert H.entries.dtype == np.float64
        assert H.entries.flags["C_CONTIGUOUS"]
        assert np.array_equal(H.entries, symmetrized_raw_weyl(sym, g, grid))

    @pytest.mark.parametrize("field", ["constant2d:b=0.5", "cos2d"])
    def test_magnetic_operator_stays_complex(self, field):
        grid = Grid(2, 4.0, 8)
        g = transversal_gauge(field_from_id(field, 2))
        sym = symbol_from_id(self.WELL, 2)
        H = op_weyl(sym, g, grid)
        assert H.entries.dtype == np.complex128
        old = symmetrized_raw_weyl(sym, g, grid)
        assert np.abs(H.entries - old).max() <= 1e-14 * np.abs(old).max()

    def test_real_symbol_odd_in_eta_stays_complex(self, g1, grid64):
        # a = eta_1 quantizes to -i d/dx: Hermitian, purely imaginary entries
        sym = HormanderSymbol(order=1.0, f=lambda e: e[..., 0], dimension=1, symbol_id="eta1")
        H = op_weyl(sym, g1, grid64)
        assert H.entries.dtype == np.complex128
        assert np.abs(H.entries.imag).max() > 0.1 * np.abs(H.entries).max()
        assert np.array_equal(H.entries, H.entries.conj().T)

    @pytest.mark.parametrize("c, real", [(0.5 * REAL_TOL, True), (10 * REAL_TOL, False)])
    def test_decision_threshold(self, c, real):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((8, 8))
        A = (A + A.T) / np.abs(A + A.T).max()
        B = rng.standard_normal((8, 8))
        B = (B - B.T) / np.abs(B - B.T).max()
        op = hermitize(OperatorMatrix(A + 1j * c * B, Grid(1, 1.0, 8)))
        assert (op.entries.dtype == np.float64) is real
        assert np.array_equal(op.entries.real, A)

    def test_real_input_stays_real(self):
        A = np.random.default_rng(6).standard_normal((8, 8))
        op = hermitize(OperatorMatrix(A, Grid(1, 1.0, 8)))
        assert op.entries.dtype == np.float64
        assert op.hermiticity_defect > 0.1
        assert np.array_equal(op.entries, 0.5 * (A + A.T))
