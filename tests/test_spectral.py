import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_riesz_projector, projector_rank, remainder
import magpsido.decay as dk
import magpsido.spectral as spectral
from magpsido.decay import WeightFamily, uniform_bound_sweep
from magpsido.errors import NotApplicableError
from magpsido.gauge import (constant_field_2d, cos_field_2d, gauge_transform, transversal_gauge,
                            zero_field)
from magpsido.harness import Scenario, ScenarioConfig, _named_chi
from magpsido import _kernels
from magpsido.quantize import Grid, OperatorMatrix, op_weyl
from magpsido.spectral import (ConjugateReflection, EigenDecomposition, ParityBlocks,
                               SpectralWindow, Whole, block_symmetry, discrete_spectrum_select,
                               eig_hermitian, eigvals_hermitian, LANCZOS_MIN_ORDER, _gram_norm,
                               _lanczos_top, _top_singular_value, matrix_exp_neg, nearest_gaps,
                               relative_bound, slab_blocks)
from magpsido.symbols import bracket, kinetic_symbol, symbol_from_id


def as_op(mat, grid=None):
    """Wrap in OperatorMatrix when a conforming grid exists, else pass the
    bare array through (the spectral layer accepts both)."""
    n = mat.shape[0]
    if grid is None and (n < 4 or n % 2):
        return np.asarray(mat, dtype=complex)
    grid = grid or Grid(1, 1.0, n)
    return OperatorMatrix(np.asarray(mat, dtype=complex), grid, symmetrized=True)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


class TestEig:
    def test_identity(self):
        dec = eig_hermitian(as_op(np.eye(8)))
        assert np.abs(dec.eigenvalues - 1.0).max() < 1e-14
        assert dec.residual < 1e-12

    def test_free_laplacian_spectrum(self):
        # d=1, L=pi, n=8: eigenvalues are the dual squares {0,1,1,4,4,9,9,16}
        grid = Grid(1, np.pi, 8)
        g = transversal_gauge(zero_field(1))
        H = op_weyl(kinetic_symbol(1), g, grid)
        dec = eig_hermitian(H)
        want = np.sort(np.array([0.0, 1, 1, 4, 4, 9, 9, 16]))
        assert np.abs(dec.eigenvalues - want).max() < 1e-10

    def test_diagonal(self):
        v = np.array([3.0, -1.0, 2.0, 0.5])
        dec = eig_hermitian(as_op(np.diag(v)))
        assert np.abs(dec.eigenvalues - np.sort(v)).max() < 1e-14

    def test_refuses_unsymmetrized(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        op = OperatorMatrix(A, Grid(1, 1.0, 6), symmetrized=False)
        with pytest.raises(NotApplicableError):
            eig_hermitian(op)

    @pytest.mark.parametrize("big", [1e308, np.inf, np.nan])
    def test_refuses_unsymmetrized_when_the_norm_overflows(self, big):
        # |A|_F overflows (or is not finite): the defect must not read as NaN
        A = np.eye(8, dtype=complex)
        A[0, 1] = big
        with pytest.raises(NotApplicableError):
            eig_hermitian(OperatorMatrix(A, Grid(1, 1.0, 8), symmetrized=False))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_eigenvalues_only_match_the_full_solve(self, complex_entries):
        H = random_hermitian(32, 2)
        H = H if complex_entries else H.real.copy()
        op = OperatorMatrix(H, Grid(1, 1.0, 32), symmetrized=True)
        lam = eigvals_hermitian(op)
        assert np.all(np.diff(lam) >= 0)
        assert np.abs(lam - eig_hermitian(op).eigenvalues).max() <= 1e-12 * np.abs(lam).max()

    def test_eigenvalues_only_refuse_unsymmetrized(self):
        A = np.triu(random_hermitian(6, 3))
        with pytest.raises(NotApplicableError):
            eigvals_hermitian(OperatorMatrix(A, Grid(1, 1.0, 6), symmetrized=False))

    def test_unitary_eigenvectors(self):
        dec = eig_hermitian(as_op(random_hermitian(32, 1)))
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(gram - np.eye(32)).max() < 1e-9


class TestDiscreteSelect:
    def test_explicit_diagonal(self):
        dec = eig_hermitian(as_op(np.diag([0.5, 2.0, 3.0, 5.0])))
        win = SpectralWindow(1.0, 0.1)
        found = discrete_spectrum_select(dec, win)
        assert len(found) == 1
        lam, vec, gap = found[0]
        assert lam == pytest.approx(0.5)
        assert gap == pytest.approx(1.5)
        assert np.abs(np.abs(vec) - np.array([1, 0, 0, 0])).max() < 1e-12

    def test_free_relativistic_has_no_bound_state(self):
        grid = Grid(1, 10.0, 64)
        g = transversal_gauge(zero_field(1))
        H = op_weyl(symbol_from_id("relativistic", 1), g, grid)
        dec = eig_hermitian(H)
        found = discrete_spectrum_select(dec, SpectralWindow(1.0, 0.05))
        assert found == []

    def test_nearest_gaps_match_all_pairs(self):
        lam = np.sort(np.random.default_rng(29).standard_normal(50))
        lam[[10, 11]] = lam[10]  # an exact degenerate pair has gap 0
        pairs = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(50, np.inf))
        assert np.array_equal(nearest_gaps(lam), pairs.min(axis=1))

    def test_margin_positive_required(self):
        with pytest.raises(NotApplicableError):
            SpectralWindow(1.0, 0.0)


class TestMatrixExp:
    def test_time_zero_identity(self):
        E = matrix_exp_neg(as_op(random_hermitian(8, 4)), 0.0)
        assert np.abs(E - np.eye(8)).max() < 1e-12

    def test_diagonal(self):
        E = matrix_exp_neg(as_op(np.diag([0.0, 1.0])), 1.0)
        assert np.abs(E - np.diag([1.0, np.exp(-1.0)])).max() < 1e-14

    def test_semigroup_law(self):
        H = as_op(random_hermitian(24, 5))
        Es = matrix_exp_neg(H, 0.4)
        Et = matrix_exp_neg(H, 0.7)
        Est = matrix_exp_neg(H, 1.1)
        assert np.linalg.norm(Es @ Et - Est) < 1e-9 * np.linalg.norm(Est)

    def test_negative_time_rejected(self):
        # NaN and +inf pass a bare t < 0 guard and would return an all-NaN matrix
        for t in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NotApplicableError, match="finite and nonnegative"):
                matrix_exp_neg(as_op(np.eye(4)), t)


class TestRelativeBound:
    def test_zero_numerator(self):
        H = as_op(random_hermitian(8, 6))
        assert relative_bound(np.zeros((8, 8)), H) == 0.0

    def test_identity_over_shift(self):
        # ||I (0 - i)^{-1}|| = 1
        val = relative_bound(np.eye(8), as_op(np.zeros((8, 8))), z=1j)
        assert val == pytest.approx(1.0, rel=1e-7)

    def test_diagonal_closed_form(self):
        lam = np.arange(1.0, 11.0)
        H = as_op(np.diag(lam))
        val = relative_bound(np.diag(lam), H, z=1j)
        want = np.max(lam / np.abs(lam - 1j))
        assert val == pytest.approx(want, rel=1e-7)

    def test_against_svd_oracle(self):
        H = as_op(random_hermitian(32, 7))
        R = np.random.default_rng(8).standard_normal((32, 32))
        got = relative_bound(R, H, z=1j)
        M = R @ np.linalg.inv(H.entries - 1j * np.eye(32))
        want = np.linalg.svd(M, compute_uv=False)[0]
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("z", [1j, 0.3 + 2j])
    def test_complex_hermitian_against_svd_oracle(self, z):
        H = as_op(random_hermitian(32, 12))
        rng = np.random.default_rng(13)
        R = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        got = relative_bound(R, H, z=z)
        M = R @ np.linalg.inv(H.entries - z * np.eye(32))
        assert got == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-10)

    def test_real_operator_matches_complex_copy(self):
        A = np.random.default_rng(14).standard_normal((32, 32))
        H = OperatorMatrix((A + A.T) / 2, Grid(1, 1.0, 32), symmetrized=True)
        R = np.random.default_rng(15).standard_normal((32, 32))
        got = relative_bound(R, H, z=0.3 + 2j)
        want = relative_bound(R.astype(complex), as_op(H.entries), z=0.3 + 2j)
        assert got == pytest.approx(want, rel=1e-12)

    def test_precomputed_decomposition(self):
        H = as_op(random_hermitian(32, 9))
        R = np.random.default_rng(10).standard_normal((32, 32))
        assert relative_bound(R, eig_hermitian(H), z=0.5j) == relative_bound(R, H, z=0.5j)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("z", [1j, 0.3 + 2j])
    @pytest.mark.parametrize("kind", ["dense", "rank-one", "near-equal-top"])
    def test_gram_norm_matches_the_svd_norm(self, complex_entries, z, kind):
        # the oracle is the SVD norm of the very matrix M = R V diag(1/|lam - z|)
        # whose Gram matrix relative_bound decomposes
        rng = np.random.default_rng(16)
        H = random_hermitian(32, 17)
        H = H if complex_entries else H.real.copy()
        op = OperatorMatrix(H, Grid(1, 1.0, 32), symmetrized=True)
        draw = (lambda *shape: rng.standard_normal(shape)
                + (1j * rng.standard_normal(shape) if complex_entries else 0.0))
        if kind == "dense":
            R = draw(32, 32)
        elif kind == "rank-one":
            R = np.outer(draw(32), draw(32).conj())
        else:
            U, _ = np.linalg.qr(draw(32, 32))
            W, _ = np.linalg.qr(draw(32, 32))
            sing = np.concatenate([[3.0, 3.0 * (1.0 - 1e-9)], np.linspace(1.0, 0.1, 30)])
            R = (U * sing) @ W.conj().T
        dec = eig_hermitian(op)
        M = (R @ dec.eigenvectors) / np.abs(dec.eigenvalues - z)[None, :]
        want = np.linalg.norm(M, 2)
        assert relative_bound(R, dec, z=z) == pytest.approx(want, rel=1e-12)

    def test_unsymmetrized_operator_rejected(self):
        A = np.triu(random_hermitian(32, 11))
        with pytest.raises(NotApplicableError):
            relative_bound(np.eye(32), OperatorMatrix(A, Grid(1, 1.0, 32)))

    @pytest.mark.parametrize("power", [0, 200, 600, -600])
    def test_power_of_two_scaling_is_exact(self, power):
        # the Gram matrix of 2^600 R overflows unless M is scaled first
        H = as_op(random_hermitian(32, 18))
        R = np.random.default_rng(19).standard_normal((32, 32))
        dec = eig_hermitian(H)
        base = relative_bound(R, dec, z=1j)
        assert relative_bound(np.ldexp(R, power), dec, z=1j) == np.ldexp(base, power)
        if abs(power) <= 200:
            M = (np.ldexp(R, power) @ dec.eigenvectors) / np.abs(dec.eigenvalues - 1j)[None, :]
            assert np.ldexp(base, power) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)

    def test_sweep_with_weight_ratios_past_e354_is_finite(self):
        # eps L = 400: R's weight ratios reach e^400, whose square overflows
        cfg = ScenarioConfig.from_dict({"symbol": "relativistic", "suites": [],
                                        "grid": {"d": 1, "L": 400.0, "n": 512},
                                        "eps_list": [0.5, 1.0]})
        sc = Scenario(cfg)
        rows, _ = uniform_bound_sweep(sc.H, cfg.make_weight(), cfg.eps_list, dec=sc.dec)
        assert all(np.isfinite(rb) and rb > 1e80 for _, rb, _, _ in rows)


POTENTIALS = ("", "+gauss_well:depth=2,width=1", "+bounded_bump:height=1,width=1.5",
              "+coulomb_like:alpha=1,reg=0.5")


@st.composite
def even_operators(draw):
    """A zero-field operator of even factors on a small grid whose spacing is
    not a dyadic rational: a catalog symbol, a radial potential and an even
    gauge shift."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 20 if d == 1 else 4).map(lambda k: 2 * k))
    L = draw(st.floats(2.0, 12.0).filter(lambda L: (2.0 * L / n) % 2.0 ** -20 != 0.0))
    base = draw(st.sampled_from(["relativistic", "kinetic", "p_s:s=-1", "p_s:s=0.5",
                                 "p_s:s=2", "neg_order"]))
    # p_s takes no potential, and neg_order's <eta>^-1 (1 + v) modulates by v
    # at the unwrapped midpoints, which breaks the reflection (see the fallbacks)
    pot = draw(st.sampled_from(POTENTIALS)) if base in ("relativistic", "kinetic") else ""
    # x_1 x_2 is odd under the reflection of node -L's row (see the fallbacks)
    chi = draw(st.sampled_from([None, "quadratic"] + (["bilinear"] if d == 1 else [])))
    gauge = transversal_gauge(zero_field(d))
    if chi:
        gauge = gauge_transform(gauge, *_named_chi(chi, d))
    return op_weyl(symbol_from_id(base + pot, d), gauge, Grid(d, L, n))


def full_decomposition(op):
    """The reference solve: one eigh of the whole matrix."""
    lam, V = np.linalg.eigh(op.entries)
    return EigenDecomposition(lam, V, 0.0)


class TestParityBlocks:
    """Operators that commute with the lattice reflection are solved as an
    even and an odd block; every result matches the full solve."""

    @settings(max_examples=60, deadline=None)
    @given(H=even_operators(), eps=st.floats(0.01, 0.5), t=st.floats(0.05, 2.0),
           kind=st.sampled_from(["exponential", "polynomial"]))
    def test_block_path_matches_the_full_solve(self, H, eps, t, kind):
        grid = H.grid
        assert isinstance(block_symmetry(H), ParityBlocks)
        dec = eig_hermitian(H)
        n_fixed = 2 ** grid.dimension
        assert dec.symmetry.sizes == [(grid.size + n_fixed) // 2, (grid.size - n_fixed) // 2]
        ref = full_decomposition(H)
        scale = np.abs(ref.eigenvalues).max()
        assert np.abs(dec.eigenvalues - ref.eigenvalues).max() <= 1e-12 * scale
        assert np.abs(eigvals_hermitian(H) - ref.eigenvalues).max() <= 1e-12 * scale
        assert dec.residual < 1e-12
        R = remainder(H, WeightFamily(kind, p=2), eps)
        assert dec.symmetry.commutes(R)
        want = relative_bound(R, ref, z=1j)
        assert relative_bound(R, dec, z=1j) == pytest.approx(want, rel=1e-12)
        assert relative_bound(dec.symmetry.blocks(R), dec, z=1j) == pytest.approx(want, rel=1e-12)
        E, E_ref = matrix_exp_neg(dec, t), matrix_exp_neg(ref, t)
        assert np.abs(E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()

    def test_blocks_are_the_matrix_in_the_parity_basis(self):
        grid = Grid(2, 3.3, 6)
        pb = ParityBlocks(grid)
        B = random_hermitian(grid.size, 41)
        A = B + B[pb.reflection][:, pb.reflection]
        assert pb.commutes(A)
        n_even, n_odd = pb.sizes
        Q = pb.vectors((np.eye(n_even), np.eye(n_odd)), np.arange(grid.size))
        assert np.abs(Q.T @ Q - np.eye(grid.size)).max() < 1e-15
        in_basis = Q.T @ A @ Q
        even, odd = pb.blocks(A)
        assert np.abs(in_basis[:n_even, :n_even] - even).max() < 1e-13
        assert np.abs(in_basis[n_even:, n_even:] - odd).max() < 1e-13
        assert np.abs(in_basis[:n_even, n_even:]).max() < 1e-13

    @pytest.mark.parametrize("field", [constant_field_2d(0.5), cos_field_2d(1.0)],
                             ids=["constant2d", "cos2d"])
    def test_magnetic_operators_take_the_full_path(self, field):
        # on a gauge about 0, not about the lattice centre, the conjugate
        # reflection fails too
        H = op_weyl(symbol_from_id("relativistic", 2), transversal_gauge(field), Grid(2, 4.0, 8))
        assert not ConjugateReflection(H.grid).holds(H.entries)
        assert isinstance(block_symmetry(H), Whole)
        dec = eig_hermitian(H)
        assert dec.symmetry.sizes == [64]
        assert np.abs(dec.eigenvalues - np.linalg.eigvalsh(H.entries)).max() < 1e-12

    @pytest.mark.parametrize("raw", [
        {"symbol": "relativistic", "gauge_chi": "bilinear", "grid": {"d": 2, "L": 4.0, "n": 8}},
        {"symbol": "neg_order+gauss_well:depth=2,width=1", "grid": {"d": 1, "L": 6.0, "n": 16}}],
        ids=["bilinear-2d", "neg_order-well"])
    def test_phases_and_midpoints_across_node_minus_L_take_the_full_path(self, raw):
        sc = Scenario(ScenarioConfig.from_dict({"field": "zero", "suites": [], **raw}))
        assert isinstance(block_symmetry(sc.H), Whole)
        assert isinstance(sc.dec.symmetry, Whole)

    @pytest.mark.parametrize("row, col", [(0, 3), (3, 5)], ids=["row-0", "inner"])
    def test_one_ulp_breaks_the_symmetry(self, row, col):
        grid = Grid(1, 5.0, 16)
        H = op_weyl(symbol_from_id("kinetic+gauss_well:depth=2,width=1", 1),
                    transversal_gauge(zero_field(1)), grid)
        assert isinstance(block_symmetry(H), ParityBlocks)
        A = H.entries.copy()
        A[row, col] = A[col, row] = np.nextafter(A[row, col], np.inf)
        bumped = dataclasses.replace(H, entries=A)
        assert isinstance(block_symmetry(bumped), Whole)
        assert isinstance(eig_hermitian(bumped).symmetry, Whole)

    def test_remainder_that_breaks_the_symmetry_takes_the_full_bound(self):
        grid = Grid(1, 5.0, 16)
        H = op_weyl(symbol_from_id("relativistic+gauss_well:depth=2,width=1", 1),
                    transversal_gauge(zero_field(1)), grid)
        dec = eig_hermitian(H)
        assert isinstance(dec.symmetry, ParityBlocks)
        R = np.random.default_rng(44).standard_normal((16, 16))
        assert not dec.symmetry.commutes(R)
        want = relative_bound(R, full_decomposition(H), z=1j)
        assert relative_bound(R, dec, z=1j) == pytest.approx(want, rel=1e-12)

    def test_bare_arrays_have_no_grid_and_take_the_full_path(self):
        dec = eig_hermitian(np.eye(6))
        assert isinstance(dec.symmetry, Whole)


class TestOneBlock:
    """An operator with no reflection symmetry is the one-block case: its
    block is the matrix and its block eigenvectors are the eigenvectors."""

    def test_one_block_solve_keeps_eighs_vectors_without_a_copy(self, monkeypatch):
        # at N = 1024 a copy of V is 16 MB
        H = op_weyl(symbol_from_id("relativistic", 2), transversal_gauge(constant_field_2d(0.5)),
                    Grid(2, 4.0, 8))
        solved = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: solved.append(eigh(A)) or solved[-1])
        dec = eig_hermitian(H)
        assert len(solved) == 1 and dec.eigenvectors is solved[0][1]
        assert dec.block_pairs[0][1] is dec.eigenvectors
        assert dec.symmetry.blocks(H.entries)[0] is H.entries
        by_hand = full_decomposition(H)
        assert isinstance(by_hand.symmetry, Whole) and by_hand.symmetry.sizes == [64]
        (lam_b, Y_b), = by_hand.block_pairs
        assert lam_b is by_hand.eigenvalues and Y_b is by_hand.eigenvectors


@st.composite
def centred_magnetic_scenarios(draw):
    """A potential-free catalog symbol in a constant or cos2d field, in the
    scenario gauge (centred on the lattice), on a small 2-D grid that passes
    the headroom lint and whose spacing is not a dyadic rational."""
    n = draw(st.sampled_from([4, 6, 8, 10]))
    L = draw(st.floats(0.3, 0.99).map(lambda r: r * math.pi * n / 4.0)
             .filter(lambda L: (2.0 * L / n) % 2.0 ** -20 != 0.0))
    symbol = draw(st.sampled_from(["relativistic", "kinetic", "p_s:s=-1", "p_s:s=0.5",
                                   "p_s:s=2", "neg_order"]))
    strength = draw(st.floats(0.1, 2.0))
    field = draw(st.sampled_from([f"constant2d:b={strength!r}", f"cos2d:amp={strength!r}"]))
    return Scenario(ScenarioConfig.from_dict({"symbol": symbol, "field": field, "suites": [],
                                              "grid": {"d": 2, "L": L, "n": n}}))


@st.composite
def slab_route_configs(draw):
    """A suite-free 2-D config with n <= 12 that passes the headroom lint: a
    zero, constant or cos2d field, with no shift, the bilinear one or the
    quadratic one, and a symbol with or without a gauss well measured from 0
    (which breaks R)."""
    n = draw(st.sampled_from([4, 6, 8, 10, 12]))
    L = draw(st.floats(0.3, 0.99).map(lambda r: r * math.pi * n / 4.0)
             .filter(lambda L: (2.0 * L / n) % 2.0 ** -20 != 0.0))
    symbol = draw(st.sampled_from(["relativistic", "kinetic", "neg_order"]))
    # weighted towards the symmetric operators, which the route folds
    well = draw(st.sampled_from(["", "", "+gauss_well:depth=1,width=1"]))
    strength = draw(st.floats(0.1, 2.0))
    field = draw(st.sampled_from(["zero", f"constant2d:b={strength!r}",
                                  f"cos2d:amp={strength!r}"]))
    return {"symbol": symbol + well, "field": field, "suites": [],
            "gauge_chi": draw(st.sampled_from([None, None, "bilinear", "quadratic"])),
            "grid": {"d": 2, "L": L, "n": n}}


def row_slabs(A, n):
    """The slabs of a 2-D grid's matrix over its leading index, one row each,
    as `_kernels.weyl_slabs` yields them."""
    A4 = A.reshape(n, n, n, n)
    return ((a, A4[a:a + 1]) for a in range(n))


def t_symmetric(A, sym, seed):
    """A matrix with sym's conjugate reflection symmetry, from a random one."""
    rng = np.random.default_rng(seed)
    B = A + 1j * rng.standard_normal(A.shape)
    R = sym.reflection
    return B + B[R][:, R].conj()


class TestConjugateReflection:
    """A complex operator that conjugation maps to its x_2 reflection is
    solved as one real symmetric block; every result matches the complex
    solve, and any operator without the exact symmetry takes the full path."""

    @settings(max_examples=40, deadline=None)
    @given(sc=centred_magnetic_scenarios())
    def test_centred_gauge_makes_magnetic_operators_real(self, sc):
        H, n = sc.H, sc.grid.n
        assert isinstance(sc.symmetry, ConjugateReflection)
        H4 = H.entries.reshape(n, n, n, n)
        assert np.array_equal(H4[:, ::-1, :, ::-1], H4.conj())
        (K,) = sc.symmetry.blocks(H.entries)
        assert K.dtype == np.float64 and np.array_equal(K, K.T)
        ref = np.linalg.eigvalsh(H.entries)
        scale = np.abs(ref).max()
        assert np.abs(sc.eigenvalues - ref).max() <= 1e-12 * scale
        lam, V = np.linalg.eigh(H.entries)
        ref_residual = np.linalg.norm(H.entries @ V - V * lam, axis=0).max() / scale
        dec = sc.dec
        assert isinstance(dec.symmetry, ConjugateReflection)
        assert np.abs(dec.eigenvalues - ref).max() <= 1e-12 * scale
        assert dec.residual <= 10.0 * max(ref_residual, 1e-15)
        assert np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors
                      - np.eye(sc.grid.size)).max() < 1e-12

    @pytest.mark.parametrize("rows_per_slab", [None, 1])
    @settings(max_examples=60, deadline=None)
    @given(raw=slab_route_configs())
    def test_slab_route_picks_the_blocks_of_the_formed_operator(self, rows_per_slab, raw):
        # the formed path: H first, then block_symmetry and its blocks
        cfg = ScenarioConfig.from_dict(raw)
        formed = Scenario(cfg)
        H, want, lam = formed.H.entries, formed.symmetry, formed.eigenvalues
        grid = formed.grid
        with pytest.MonkeyPatch.context() as mp:
            if rows_per_slab:
                mp.setattr(_kernels, "GATHER_BLOCK", rows_per_slab * grid.n**3)
            sc = Scenario(cfg)
            folded = slab_blocks(grid, sc.factors.slabs())
            got = sc.eigenvalues
        assert sc.symmetry.name == want.name
        assert np.array_equal(got, lam)
        assert ("H" not in sc.__dict__) == (folded is not None)
        if folded is not None:
            sym, K = folded
            assert isinstance(sym, ConjugateReflection) and isinstance(want, ConjugateReflection)
            assert np.array_equal(K, want.blocks(H)[0])
        elif isinstance(want, ConjugateReflection):
            # declined only where row 0 leaves the parity blocks open
            assert np.array_equal(H[0, grid.reflection], H[0])

    def test_blocks_are_the_matrix_in_the_conjugate_basis(self):
        grid = Grid(2, 3.3, 6)
        sym = ConjugateReflection(grid)
        A = t_symmetric(random_hermitian(grid.size, 43), sym, 44)
        assert sym.holds(A) and not ParityBlocks(grid).commutes(A)
        Q = sym.vectors((np.eye(grid.size),), np.arange(grid.size))
        assert np.abs(Q.conj().T @ Q - np.eye(grid.size)).max() < 1e-15
        in_basis = Q.conj().T @ A @ Q
        (K,) = sym.blocks(A)
        assert np.abs(in_basis.imag).max() < 1e-13
        assert np.abs(in_basis - K).max() < 1e-13

    def test_bound_and_semigroup_in_block_space_match_the_full_solve(self):
        grid = Grid(2, 3.7, 8)
        H = op_weyl(symbol_from_id("relativistic", 2),
                    transversal_gauge(cos_field_2d(1.0), origin=grid.centre), grid)
        dec = eig_hermitian(H)
        assert isinstance(dec.symmetry, ConjugateReflection)
        assert dec.block_pairs[0][1].dtype == np.float64
        ref = full_decomposition(H)
        R = t_symmetric(np.zeros((grid.size,) * 2), dec.symmetry, 45)
        assert dec.symmetry.holds(R)
        want = relative_bound(R, ref, z=1j)
        assert relative_bound(dec.symmetry.blocks(R), dec, z=1j) == pytest.approx(want, rel=1e-12)
        assert relative_bound(R, dec, z=1j) == pytest.approx(want, rel=1e-12)
        E, E_ref = matrix_exp_neg(dec, 0.7), matrix_exp_neg(ref, 0.7)
        assert np.abs(E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()

    def test_sweep_with_an_invariant_weight_matches_the_one_block_rows(self):
        grid = Grid(2, 3.7, 8)
        H = op_weyl(symbol_from_id("kinetic", 2),
                    transversal_gauge(constant_field_2d(0.8), origin=grid.centre), grid)
        dec = eig_hermitian(H)
        w = CentredWeight(grid.centre)
        assert dec.symmetry.invariant(w(0.1, grid.nodes))
        rows, eps0 = uniform_bound_sweep(H, w, [0.05, 0.2], dec=dec)
        want, want_eps0 = uniform_bound_sweep(H, w, [0.05, 0.2], dec=full_decomposition(H))
        assert eps0 == want_eps0
        for got, ref in zip(rows, want, strict=True):
            assert got[1] == pytest.approx(ref[1], rel=1e-12)

    @pytest.mark.parametrize("raw", [
        {"symbol": "relativistic+gauss_well:depth=2,width=1", "field": "constant2d:b=0.5"},
        {"symbol": "relativistic", "field": "cos2d:amp=1", "gauge_chi": "bilinear"}],
        ids=["gauss_well", "bilinear"])
    def test_operators_without_the_symmetry_take_the_full_path(self, raw):
        # the well is symmetric about 0, not about the lattice centre -h/2;
        # x_1 x_2 is not odd under x_2 -> -h - x_2
        sc = Scenario(ScenarioConfig.from_dict(
            {"suites": [], "grid": {"d": 2, "L": 4.0, "n": 8}, **raw}))
        assert np.iscomplexobj(sc.H.entries)
        assert not ConjugateReflection(sc.grid).holds(sc.H.entries)
        assert isinstance(sc.symmetry, Whole) and isinstance(sc.dec.symmetry, Whole)

    @pytest.mark.parametrize("row, col", [(0, 3), (9, 20)], ids=["row-0", "inner"])
    def test_one_ulp_breaks_the_symmetry(self, row, col):
        grid = Grid(2, 4.0, 8)
        H = op_weyl(symbol_from_id("relativistic", 2),
                    transversal_gauge(constant_field_2d(0.5), origin=grid.centre), grid)
        assert isinstance(block_symmetry(H), ConjugateReflection)
        A = H.entries.copy()
        A[row, col] = np.nextafter(A[row, col].real, np.inf) + 1j * A[row, col].imag
        A[col, row] = A[row, col].conj()
        assert isinstance(block_symmetry(dataclasses.replace(H, entries=A)), Whole)
        # one leading row per slab: the inner entry lies in a later slab
        assert slab_blocks(grid, row_slabs(H.entries, grid.n)) is not None
        assert slab_blocks(grid, row_slabs(A, grid.n)) is None

    def test_slab_route_leaves_an_operator_with_both_symmetries_to_parity(self):
        # a zero-field operator stored complex commutes with P and passes
        # the conjugate-reflection test; block_symmetry picks the parity blocks
        grid = Grid(2, 4.0, 8)
        H = op_weyl(symbol_from_id("relativistic", 2), transversal_gauge(zero_field(2)), grid)
        A = H.entries.astype(complex)
        assert ConjugateReflection(grid).holds(A)
        assert isinstance(block_symmetry(dataclasses.replace(H, entries=A)), ParityBlocks)
        assert slab_blocks(grid, row_slabs(A, grid.n)) is None

    def test_slab_route_declines_one_dimensional_grids(self):
        # R moves the 1-D gather's own slab index
        grid = Grid(1, 4.0, 8)
        assert slab_blocks(grid, iter(())) is None

    def test_real_operators_are_never_tested(self):
        grid = Grid(2, 4.0, 8)
        H = op_weyl(symbol_from_id("relativistic", 2), transversal_gauge(zero_field(2)), grid)
        assert H.entries.dtype == np.float64
        assert not ConjugateReflection(grid).holds(H.entries)


class CentredWeight:
    """exp(<eps (x - c)> - 1) about the lattice centre c: invariant under the
    x_2 reflection about c."""

    def __init__(self, centre):
        self.centre = centre

    def __call__(self, eps, x):
        return np.exp(bracket(eps * (np.asarray(x, dtype=float) - self.centre)) - 1.0)

    def weight_id(self):
        return "centred"


class OffCentreWeight:
    """exp(<eps (x - 0.3)> - 1): centred off the origin, so not reflection-even."""

    def __call__(self, eps, x):
        return np.exp(bracket(eps * (np.asarray(x, dtype=float) - 0.3)) - 1.0)

    def weight_id(self):
        return "off-centre"


class TestSweepInBlockSpace:
    """With H and every weight even, the sweep forms each R_eps's parity
    blocks from H's blocks; any other weight takes the one-block view."""

    EPS = [0.0125, 0.05, 0.2, 0.5]

    @pytest.mark.parametrize("kind", ["exponential", "polynomial"])
    @settings(max_examples=40, deadline=None)
    @given(H=even_operators())
    def test_parity_rows_match_the_one_block_rows(self, H, kind):
        w = WeightFamily(kind, p=2)
        dec = eig_hermitian(H)
        assert isinstance(dec.symmetry, ParityBlocks)
        rows, eps0 = uniform_bound_sweep(H, w, self.EPS, dec=dec)
        want, want_eps0 = uniform_bound_sweep(H, w, self.EPS, dec=full_decomposition(H))
        assert eps0 == want_eps0
        for got, ref in zip(rows, want, strict=True):
            assert got[0] == ref[0] and got[3] == ref[3]
            assert got[1] == pytest.approx(ref[1], rel=1e-12)
            assert got[2] == pytest.approx(ref[2], rel=1e-12)

    def test_weight_that_is_not_even_takes_the_one_block_view(self, monkeypatch):
        H = op_weyl(symbol_from_id("relativistic+gauss_well:depth=2,width=1", 1),
                    transversal_gauge(zero_field(1)), Grid(1, 8.0, 48))
        w = OffCentreWeight()
        dec = eig_hermitian(H)
        assert isinstance(dec.symmetry, ParityBlocks)
        views = []
        bound = dk.relative_bound
        monkeypatch.setattr(dk, "relative_bound",
                            lambda R, D, z: views.append((len(R), D.symmetry)) or bound(R, D, z))
        rows, _ = uniform_bound_sweep(H, w, self.EPS, dec=dec)
        assert [(n, type(sym)) for n, sym in views] == [(1, Whole)] * len(self.EPS)
        eye = np.eye(H.grid.size)
        for eps, rb, _, _ in rows:
            R = remainder(H, w, eps)
            assert not dec.symmetry.commutes(R)
            M = R @ np.linalg.inv(H.entries - 1j * eye)
            assert rb == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-10)


@st.composite
def gram_factors(draw):
    """Matrices M, scaled so that max|M| <= 1, whose Gram matrix M^* M has a
    spectrum of a chosen shape: real or complex, 1..64 rows and columns."""
    rows, n = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    complex_entries = draw(st.booleans())
    kind = draw(st.sampled_from(["dense", "repeated-top", "rank-one", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + (1j * rng.standard_normal(shape)
                                             if complex_entries else 0.0)

    if kind == "zero":
        return np.zeros((rows, n), dtype=complex if complex_entries else float)
    if kind == "rank-one":
        M = np.outer(gaussian(rows), gaussian(n).conj())
    elif kind == "dense":
        M = gaussian(rows, n)
    else:
        U, _ = np.linalg.qr(gaussian(rows, rows))
        W, _ = np.linalg.qr(gaussian(n, n))
        sing = rng.uniform(0.0, 0.9, min(rows, n))
        sing[: draw(st.integers(2, 4))] = 1.0
        M = (U[:, :len(sing)] * sing) @ W[:, :len(sing)].conj().T
    return M * 2.0 ** -int(np.frexp(np.abs(M).max())[1])


class TestTopSingularValue:
    @settings(max_examples=200, deadline=None)
    @given(M=gram_factors())
    def test_lanczos_matches_eigvalsh(self, M):
        want = np.linalg.eigvalsh(M.conj().T @ M)[-1]
        assert abs(_lanczos_top(M) - want) <= 1e-13 * abs(want)

    @settings(max_examples=100, deadline=None)
    @given(M=gram_factors(), power=st.integers(-600, 600))
    def test_scales_exactly(self, M, power):
        got = _top_singular_value(M)
        assert _top_singular_value(M * 2.0 ** power) == math.ldexp(got, power)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("n", [LANCZOS_MIN_ORDER - 1, LANCZOS_MIN_ORDER, 200])
    def test_both_sides_of_the_lanczos_order(self, n, complex_entries, monkeypatch):
        runs = []
        lanczos = spectral._lanczos_top
        monkeypatch.setattr(spectral, "_lanczos_top", lambda M: runs.append(1) or lanczos(M))
        rng = np.random.default_rng(47)
        M = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n))
                                           if complex_entries else 0.0)
        got = _top_singular_value(M)
        assert len(runs) == (n >= LANCZOS_MIN_ORDER)
        assert got == pytest.approx(np.linalg.norm(M, 2), rel=1e-13)
        for power in (-600, 600):
            assert _top_singular_value(M * 2.0 ** power) == math.ldexp(got, power)

    def test_zero_matrix(self):
        assert _top_singular_value(np.zeros((5, 5))) == 0.0
        assert _lanczos_top(np.zeros((5, 5))) == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_give_nan(self, bad):
        M = np.eye(6)
        M[2, 2] = bad
        assert np.isnan(_top_singular_value(M))
        R = np.eye(6)
        R[3, 1] = bad
        assert np.isnan(relative_bound(R, as_op(random_hermitian(6, 46))))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_in_the_odd_block_gives_nan(self):
        H = op_weyl(symbol_from_id("relativistic+gauss_well:depth=2,width=1", 1),
                    transversal_gauge(zero_field(1)), Grid(1, 5.0, 16))
        dec = eig_hermitian(H)
        R_e, R_o = dec.symmetry.blocks(remainder(H, WeightFamily("exponential"), 0.1))
        R_o[0, 0] = np.nan
        lam_e, Y_e = dec.block_pairs[0]
        assert math.isfinite(_gram_norm(R_e, Y_e, lam_e, 1j))
        assert np.isnan(relative_bound((R_e, R_o), dec))

    def test_two_calls_give_the_same_bits(self):
        rng = np.random.default_rng(45)
        M = rng.standard_normal((200, 260)) + 1j * rng.standard_normal((200, 260))
        assert _top_singular_value(M) == _top_singular_value(M.copy())


def filter_projector(H, center, radius, num_nodes=32):
    """The closed form of the quadrature: V diag(r(lam)) V^* with the rational
    filter r(lam) = 1 / (1 + ((lam - center) / radius)^num_nodes)."""
    lam, V = np.linalg.eigh(H)
    r = 1.0 / (1.0 + ((lam - center) / radius) ** num_nodes)
    return (V * r[None, :]) @ V.conj().T


def assert_matches_filter(P, mat, center, radius):
    """The dense quadrature against its closed-form filter."""
    assert np.linalg.norm(P - filter_projector(mat, center, radius)) < 1e-12


class TestRieszProjector:
    """The dense contour quadrature that criterion 08 measures |P^2 - P| and
    the rank with."""

    def test_isolated_diagonal_eigenvalue(self):
        P = dense_riesz_projector(np.diag([0.0, 5.0]), 0.0, 1.0)
        assert np.abs(P - np.diag([1.0, 0.0])).max() < 1e-10

    def test_empty_enclosure(self):
        P = dense_riesz_projector(np.diag([5.0, 6.0]), 0.0, 1.0)
        assert np.abs(P).max() < 1e-10

    def test_multiplicity_two_range(self):
        rng = np.random.default_rng(9)
        Q = np.linalg.qr(rng.standard_normal((16, 16))
                         + 1j * rng.standard_normal((16, 16)))[0]
        lam = np.concatenate([[0.3, 0.3], np.linspace(2.0, 9.0, 14)])
        H = (Q * lam[None, :]) @ Q.conj().T
        P = dense_riesz_projector((H + H.conj().T) / 2, 0.3, 0.5)
        assert np.linalg.norm(P @ P - P) < 1e-8
        assert projector_rank(P) == 2
        # range spans the two eigenvectors
        V = Q[:, :2]
        assert np.linalg.norm(P @ V - V) < 1e-7

    def test_contour_through_spectrum_rejected(self):
        # the eigenvalue 1 sits 3% outside the contour: the quadrature is no
        # projector, and its idempotency defect shows it
        P = dense_riesz_projector(np.diag([0.0, 1.0]), 0.0, 0.97)
        assert np.linalg.norm(P @ P - P) > 0.1

    def test_hermitian_projector_and_rank_additivity(self):
        H = np.diag([0.0, 1.0, 4.0, 4.0])
        P1 = dense_riesz_projector(H, 0.0, 0.4)
        P2 = dense_riesz_projector(H, 1.0, 0.4)
        P12 = dense_riesz_projector(H, 0.5, 1.2)
        assert np.linalg.norm(P1 - P1.conj().T) < 1e-10
        assert projector_rank(P1) + projector_rank(P2) == projector_rank(P12)

    def test_diagonal_similarity_preserves_spectrum(self):
        # conjugation by a positive diagonal: identical eigenvalues
        H = random_hermitian(20, 10)
        f = np.exp(np.linspace(0, 1.5, 20))
        Heps = (f[:, None] / f[None, :]) * H
        lam = np.linalg.eigvalsh(H)
        lam2 = np.sort(np.linalg.eigvals(Heps).real)
        assert np.abs(lam - lam2).max() < 1e-9 * max(1.0, np.abs(lam).max())


class TestRieszProjectorTridiagonal:
    """The dense quadrature against its closed-form filter, and its input checks."""

    @pytest.mark.parametrize("n, seed", [(8, 20), (33, 21), (96, 22)])
    def test_matches_dense_oracle(self, n, seed):
        H = random_hermitian(n, seed)
        lam = np.linalg.eigvalsh(H)
        k = n // 3
        radius = 0.4 * min(lam[k] - lam[k - 1], lam[k + 1] - lam[k])
        P = dense_riesz_projector(H, lam[k], radius)
        assert_matches_filter(P, H, lam[k], radius)
        assert projector_rank(P) == 1

    def test_matches_dense_oracle_multiplicity_two(self):
        rng = np.random.default_rng(23)
        Q = np.linalg.qr(rng.standard_normal((24, 24))
                         + 1j * rng.standard_normal((24, 24)))[0]
        lam = np.concatenate([[-1.0, 0.7, 0.7], np.linspace(2.0, 9.0, 21)])
        H = (Q * lam[None, :]) @ Q.conj().T
        H = (H + H.conj().T) / 2
        P = dense_riesz_projector(H, 0.7, 0.6)
        assert_matches_filter(P, H, 0.7, 0.6)
        assert projector_rank(P) == 2

    def test_matches_dense_oracle_magnetic_operator(self):
        # constant field b = 1 on a 2-D grid: complex entries off the diagonal
        grid = Grid(2, 3.0, 8)
        H = op_weyl(symbol_from_id("relativistic", 2),
                    transversal_gauge(constant_field_2d(1.0)), grid)
        assert np.abs(H.entries.imag).max() > 0.1
        lam = np.linalg.eigvalsh(H.entries)
        radius = 0.4 * (lam[1] - lam[0])
        P = dense_riesz_projector(H.entries, lam[0], radius)
        assert_matches_filter(P, H.entries, lam[0], radius)
        assert projector_rank(P) == 1

    def test_one_by_one(self):
        P = dense_riesz_projector(np.array([[0.3]]), 0.0, 1.0)
        assert np.abs(P - 1.0).max() < 1e-14
        assert projector_rank(P) == 1

    @pytest.mark.parametrize("source", ["random", "zero-field"])
    def test_real_path_matches_complex_path(self, source):
        # the nodes come in conjugate pairs, so a real H has a real projector
        if source == "random":
            A = np.random.default_rng(26).standard_normal((40, 40))
            H = (A + A.T) / 2
        else:
            H = op_weyl(symbol_from_id("relativistic+gauss_well:depth=2,width=1", 1),
                        transversal_gauge(zero_field(1)), Grid(1, 10.0, 48)).entries
        assert H.dtype == np.float64
        lam = np.linalg.eigvalsh(H)
        radius = 0.4 * (lam[1] - lam[0])
        P = dense_riesz_projector(H, lam[0], radius)
        assert np.abs(P.imag).max() < 1e-12
        assert_matches_filter(P.real, H, lam[0], radius)
        assert projector_rank(P) == 1

    def test_non_hermitian_rejected(self):
        A = np.triu(random_hermitian(16, 25))
        with pytest.raises(ValueError):
            dense_riesz_projector(A, 0.0, 0.5)

    @pytest.mark.parametrize("corner", [1e308, np.inf])
    def test_overflowing_non_hermitian_rejected(self, corner):
        # unscaled Frobenius norms overflow to inf here, and inf <= tol * inf
        with pytest.raises(ValueError):
            dense_riesz_projector(np.array([[0.0, corner], [0.0, 5.0]]), 0.0, 1.0)

    @pytest.mark.parametrize("center, radius", [(0.0, 0.0), (0.0, -1.0),
                                                (0.0, np.nan), (0.0, np.inf),
                                                (np.nan, 1.0), (np.inf, 1.0)])
    def test_bad_contour_rejected(self, center, radius):
        with pytest.raises(ValueError):
            dense_riesz_projector(np.diag([0.0, 0.0, 5.0]), center, radius)


class TestRieszProjectorFilter:
    """The quadrature is a scalar rational filter on the eigenvalues of H."""

    def test_filter_closed_form(self):
        H = random_hermitian(40, 27)
        lam, V = np.linalg.eigh(H)
        center, radius = lam[13], 0.4 * min(lam[13] - lam[12], lam[14] - lam[13])
        P = dense_riesz_projector(H, center, radius)
        want = 1.0 / (1.0 + ((lam - center) / radius) ** 32)
        assert np.abs(np.diag(V.conj().T @ P @ V) - want).max() < 1e-12

    def test_decomposition_input_matches_matrix_input(self):
        # the quadrature commutes with the change to the eigenbasis
        H = random_hermitian(32, 28)
        lam, V = np.linalg.eigh(H)
        radius = 0.4 * min(lam[5] - lam[4], lam[6] - lam[5])
        from_dec = dense_riesz_projector(np.diag(lam), lam[5], radius)
        from_mat = dense_riesz_projector(H, lam[5], radius)
        assert np.abs(V @ from_dec @ V.conj().T - from_mat).max() < 1e-12
        assert projector_rank(from_dec) == projector_rank(from_mat) == 1
