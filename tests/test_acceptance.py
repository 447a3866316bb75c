"""Acceptance suite: every criterion at its stated tolerance, one per test.

The terminal summary prints one pass/fail line per criterion (see conftest).
Shared heavy scenario operators are built once per session.
"""
import time

import numpy as np
import pytest

from conftest import (diamagnetic_check, dense_riesz_projector, projector_rank,
                      record_acceptance)
from magpsido.decay import (WeightFamily, amplitude_c_eps, b_shift,
                            conjugate_operator, decay_fit,
                            default_window, uniform_bound_sweep,
                            weight_taylor_identity_check)
from magpsido.gauge import (constant_field_2d, gauge_transform,
                            transversal_gauge, zero_field)
from magpsido.harness import ScenarioConfig, verify_suite
from magpsido.quantize import Grid, GridFunction, op_amplitude, op_weyl
from magpsido.relativistic import (bessel_k, displacement_lattice, kato_estimate, kato_scan,
                                   kernel_pt, pointwise_bound_check, semigroup_checks)
from magpsido.spectral import SpectralWindow, discrete_spectrum_select, eig_hermitian
from magpsido.symbols import kinetic_symbol, relativistic_symbol, symbol_from_id

WELL_ID = "relativistic+gauss_well:depth=2,width=1"


@pytest.fixture(scope="session")
def g1():
    return transversal_gauge(zero_field(1))


def _build_bound_state(g1, L, n):
    t0 = time.perf_counter()
    grid = Grid(1, L, n)
    H = op_weyl(symbol_from_id(WELL_ID, 1), g1, grid)
    dec = eig_hermitian(H)
    return grid, H, dec, time.perf_counter() - t0


@pytest.fixture(scope="session")
def bound_state_512(g1):
    return _build_bound_state(g1, 30.0, 512)


@pytest.fixture(scope="session")
def bound_state_768(g1):
    return _build_bound_state(g1, 40.0, 768)


def test_criterion_01_quantization_exactness(g1):
    t0 = time.perf_counter()
    grid = Grid(1, np.pi, 64)
    Hk = op_weyl(kinetic_symbol(1), g1, grid)
    eta = grid.eta_axis
    x = grid.axis
    ref = (np.exp(1j * np.outer(x, eta)) * eta**2) @ np.exp(-1j * np.outer(eta, x)) / 64
    rel_err = float(np.linalg.norm(Hk.entries - ref) / np.linalg.norm(ref))
    ident_dev = float(np.abs(
        op_weyl(symbol_from_id("p_s:s=0", 1), g1, grid).entries - np.eye(64)).max())
    elapsed = time.perf_counter() - t0
    ok = rel_err < 1e-10 and ident_dev == 0.0 and elapsed < 5.0
    record_acceptance(1, "quantization exactness at B=0", ok,
                      f"laplacian rel err {rel_err:.2e}, identity dev {ident_dev:.1e}, "
                      f"{elapsed:.2f}s")
    assert rel_err < 1e-10
    assert ident_dev == 0.0
    assert elapsed < 5.0


def test_criterion_02_gauge_covariance():
    t0 = time.perf_counter()
    grid = Grid(2, 6.0, 24)
    g = transversal_gauge(constant_field_2d(0.5))
    chi = lambda X: np.asarray(X)[..., 0] * np.asarray(X)[..., 1]
    grad = lambda X: np.stack([np.asarray(X)[..., 1], np.asarray(X)[..., 0]], axis=-1)
    g2 = gauge_transform(g, chi, grad)
    sym = symbol_from_id("relativistic", 2)
    H1 = op_weyl(sym, g, grid)
    H2 = op_weyl(sym, g2, grid)
    lam1, V1 = np.linalg.eigh(H1.entries)
    lam2 = np.linalg.eigvalsh(H2.entries)
    scale = float(np.abs(lam1).max())
    spec_diff = float(np.abs(lam1 - lam2).max() / scale)
    D = np.exp(1j * chi(grid.nodes))
    W = D[:, None] * V1
    vec_res = float(np.linalg.norm(H2.entries @ W - W * lam1[None, :], axis=0).max()
                    / scale)
    elapsed = time.perf_counter() - t0
    ok = spec_diff < 1e-8 and vec_res < 1e-6 and elapsed < 120.0
    record_acceptance(2, "gauge covariance (d=2, B=0.5)", ok,
                      f"spectrum diff {spec_diff:.2e}, vector residual {vec_res:.2e}, "
                      f"{elapsed:.1f}s")
    assert spec_diff < 1e-8
    assert vec_res < 1e-6
    assert elapsed < 120.0


def test_criterion_03_hermiticity_defect(g1):
    sym = symbol_from_id(WELL_ID, 1)
    defects = {}
    for n in (256, 512):
        H = op_weyl(sym, g1, Grid(1, 30.0, n))
        defects[n] = H.hermiticity_defect
    # the midpoint quantization is exactly Hermitian for real symbols in
    # exact arithmetic, so both defects sit at the roundoff floor; the
    # doubling comparison is applied above that floor
    floor = 1e-12
    ok = defects[256] < 1e-8 and defects[512] <= max(defects[256], floor)
    record_acceptance(3, "hermiticity defect", ok,
                      f"defect(256) {defects[256]:.2e}, defect(512) {defects[512]:.2e} "
                      f"(roundoff floor {floor:.0e})")
    assert defects[256] < 1e-8
    assert defects[512] <= max(defects[256], floor)


def test_criterion_04_weight_ratio_identity():
    rng = np.random.default_rng(42)
    xs = rng.uniform(-5.0, 5.0, size=(10000, 1))
    ys = rng.uniform(-5.0, 5.0, size=(10000, 1))
    w = WeightFamily("exponential")
    worst_res = 0.0
    worst_b = 0.0
    for eps in (0.0125, 0.05, 0.2, 0.5, 1.0):
        worst_res = max(worst_res, weight_taylor_identity_check(w, eps, (xs, ys)))
        worst_b = max(worst_b, float(np.linalg.norm(
            b_shift(eps, xs, ys), axis=-1).max()))
    ok = worst_res < 1e-12 and worst_b <= 1.0
    record_acceptance(4, "weight ratio identity and |b| <= 1", ok,
                      f"residual {worst_res:.2e} over 1e4 pairs, max |b| {worst_b:.6f}")
    assert worst_res < 1e-12
    assert worst_b <= 1.0


def _conjugation_ratio(n, L, eps, g1):
    grid = Grid(1, L, n)
    sym = relativistic_symbol(1)
    H = op_weyl(sym, g1, grid).entries
    f = WeightFamily("exponential")(eps, grid.nodes)
    lhs = (f[:, None] / f[None, :]) * H
    Ec = op_amplitude(amplitude_c_eps(sym, eps), g1, grid).entries
    return float(np.linalg.norm(lhs - Ec) / np.linalg.norm(H))


def test_criterion_05_conjugation_amplitude_match(g1):
    t0 = time.perf_counter()
    r128 = _conjugation_ratio(128, 20.0, 0.05, g1)
    r256 = _conjugation_ratio(256, 20.0, 0.05, g1)
    elapsed = time.perf_counter() - t0
    ok = r128 < 1e-3 and r256 < r128 and elapsed < 180.0
    record_acceptance(5, "conjugation matches shifted amplitude", ok,
                      f"ratio(128) {r128:.2e}, ratio(256) {r256:.2e}, {elapsed:.1f}s")
    assert r128 < 1e-3
    assert r256 < r128
    assert elapsed < 180.0


def test_criterion_06_remainder_symbol_order():
    cfg = ScenarioConfig.from_dict({"symbol": "relativistic",
                                    "grid": {"d": 1, "L": 20.0, "n": 128}})
    check = {c.name: c for c in verify_suite("lemmas-weights", cfg)}["remainder-symbol-order"]
    record_acceptance(6, "remainder amplitude of order m - 1", check.passed, check.details)
    assert check.passed


def test_criterion_07_uniform_relative_bound(g1):
    eps_list = [0.0125, 0.025, 0.05, 0.1]
    grid = Grid(1, 40.0, 256)
    details = []
    ok = True
    for sid in (WELL_ID, "kinetic+gauss_well:depth=2,width=1"):
        H = op_weyl(symbol_from_id(sid, 1), g1, grid)
        for kind, p in (("exponential", 1), ("polynomial", 2)):
            rows, _ = uniform_bound_sweep(H, WeightFamily(kind, p=p), eps_list)
            vals = [r[1] for r in rows]
            variation = max(vals) / min(vals)
            details.append(f"{sid.split('+')[0]}/{kind}: {variation:.2f}x")
            ok = ok and variation < 3.0
    record_acceptance(7, "uniform relative bound sweep", ok, ", ".join(details))
    assert ok, details


def test_criterion_08_similarity_and_projector(g1, bound_state_512):
    grid, H, dec, _ = bound_state_512
    w = WeightFamily("exponential")
    Heps = conjugate_operator(H, w, 0.05)
    lam2 = np.sort(np.linalg.eigvals(Heps.entries).real)
    scale = float(np.abs(dec.eigenvalues).max())
    spec_diff = float(np.abs(dec.eigenvalues - lam2).max() / scale)
    found = discrete_spectrum_select(dec, SpectralWindow(1.0, 0.05))
    lam0, _, gap = found[0]
    radius = 0.5 * min(gap, 1.0 - lam0)
    P = dense_riesz_projector(H.entries, lam0, radius)
    idem = float(np.linalg.norm(P @ P - P))
    rank = projector_rank(P)
    mult = int(np.sum(np.abs(dec.eigenvalues - lam0) < 1e-10))
    ok = spec_diff < 1e-9 and idem < 1e-8 and rank == mult
    record_acceptance(8, "similarity spectra and contour projector", ok,
                      f"spectrum diff {spec_diff:.2e}, |P^2-P| {idem:.2e}, "
                      f"rank {rank} = multiplicity {mult}")
    assert spec_diff < 1e-9
    assert idem < 1e-8
    assert rank == mult


def test_criterion_09_exponential_decay_scenario(bound_state_512, bound_state_768):
    t0 = time.perf_counter()
    grid, H, dec, built1 = bound_state_512
    below = int((dec.eigenvalues < 1.0).sum())
    fit = decay_fit(GridFunction(dec.eigenvectors[:, 0], grid), "exponential",
                    default_window(grid))
    grid2, H2, dec2, built2 = bound_state_768
    fit2 = decay_fit(GridFunction(dec2.eigenvectors[:, 0], grid2), "exponential",
                     default_window(grid2))
    drift = abs(fit.rate - fit2.rate) / fit.rate
    elapsed = time.perf_counter() - t0 + built1 + built2
    ok = (below >= 1 and fit.rate > 0 and fit.r_squared > 0.98
          and drift < 0.10 and elapsed < 600.0)
    record_acceptance(9, "exponential eigenfunction decay", ok,
                      f"{below} bound eigenvalues, beta {fit.rate:.4f} "
                      f"(refined {fit2.rate:.4f}, drift {100 * drift:.1f}%), "
                      f"R2 {fit.r_squared:.5f}, {elapsed:.1f}s")
    assert below >= 1
    assert fit.rate > 0
    assert fit.r_squared > 0.98
    assert drift < 0.10
    assert elapsed < 600.0


def test_criterion_10_rapid_decay_scenario(g1):
    grid = Grid(1, 30.0, 384)
    H = op_weyl(symbol_from_id("kinetic+gauss_well:depth=2,width=1", 1), g1, grid)
    dec = eig_hermitian(H)
    fit = decay_fit(GridFunction(dec.eigenvectors[:, 0], grid), "polynomial",
                    default_window(grid))
    ok = fit.rate >= 6.0
    record_acceptance(10, "super-polynomial decay order", ok,
                      f"p-hat {fit.rate:.2f}, R2 {fit.r_squared:.4f}")
    assert fit.rate >= 6.0


def test_criterion_11_semigroup_kernel():
    grid = Grid(1, 40.0, 2048)
    Z = displacement_lattice(grid)
    mass_err = abs(grid.h * kernel_pt(1.0, Z, 1).sum() - np.exp(-1.0))
    conv = [semigroup_checks(0.5, 0.5, Grid(1, 10.0, n))["conv"]
            for n in (64, 128, 256)]
    k_err = abs(bessel_k(0.5, 1.0) - np.sqrt(np.pi / 2.0) * np.exp(-1.0))
    ok = mass_err < 1e-5 and conv[0] > conv[1] > conv[2] and k_err < 1e-9
    record_acceptance(11, "semigroup kernel identities", ok,
                      f"mass err {mass_err:.2e}, conv {conv[0]:.1e}>{conv[1]:.1e}"
                      f">{conv[2]:.1e}, K_1/2(1) err {k_err:.1e}")
    assert mass_err < 1e-5
    assert conv[0] > conv[1] > conv[2]
    assert k_err < 1e-9


def test_criterion_12_kato_estimator():
    grid = Grid(1, 20.0, 512)
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        got = kato_estimate(np.ones(grid.size), t, grid)
        worst = max(worst, abs(got - (1.0 - np.exp(-t))))
    bump = np.exp(-(grid.nodes**2).sum(-1))
    rows = kato_scan(bump, 1.0, grid, halvings=6)
    vals = [v for _, v in rows]
    vanishing = all(a >= b for a, b in zip(vals, vals[1:])) and vals[-1] < 0.05 * vals[0]
    ok = worst < 1e-6 and vanishing
    record_acceptance(12, "smeared potential estimates", ok,
                      f"flat-W error {worst:.2e}, bump scan {vals[0]:.4f} -> {vals[-1]:.5f}")
    assert worst < 1e-6
    assert vanishing


def test_criterion_13_diamagnetic_comparison():
    gb = transversal_gauge(constant_field_2d(1.0))
    out24 = diamagnetic_check(gb, 1.0, 20, Grid(2, 6.0, 24), seed=5)
    out32 = diamagnetic_check(gb, 1.0, 20, Grid(2, 6.0, 32), seed=5)
    # the positive part stays at zero here; the signed excess must still
    # strictly decrease under refinement
    ok = (out24["violation"] < 1e-2 and out32["violation"] <= out24["violation"]
          and out32["signed_max"] < out24["signed_max"])
    record_acceptance(13, "magnetic semigroup domination", ok,
                      f"violation(24) {out24['violation']:.1e} "
                      f"(signed {out24['signed_max']:.3f}), "
                      f"violation(32) {out32['violation']:.1e} "
                      f"(signed {out32['signed_max']:.3f})")
    assert out24["violation"] < 1e-2
    assert out32["signed_max"] < out24["signed_max"]


def test_criterion_14_pointwise_bound_chain(g1, bound_state_512, bound_state_768):
    # zero field and v <= 0: the well operator is its own comparison operator
    reports = [pointwise_bound_check(dec, eps=0.1, p=2.0, grid=grid)
               for grid, H, dec, _ in (bound_state_512, bound_state_768)]
    m1, m2 = reports[0]["chain_margin"], reports[1]["chain_margin"]
    ok = (reports[0]["kernel_margin"] > 0 and reports[1]["kernel_margin"] > 0
          and m1 > 0 and m2 > 0 and abs(m1 - m2) / m1 < 0.10)
    record_acceptance(14, "pointwise decay chain", ok,
                      f"chain margins {m1:.4f} / {m2:.4f}, "
                      f"C_hat {reports[0]['C_hat']:.3f}, kernel min "
                      f"{reports[0]['kernel_min']:.1e}")
    assert reports[0]["kernel_margin"] > 0 and reports[1]["kernel_margin"] > 0
    assert m1 > 0 and m2 > 0
    assert abs(m1 - m2) / m1 < 0.10
