import math

import numpy as np

from magpsido import _kernels
from magpsido.decay import conjugate_operator
from magpsido.gauge import grid_phase, magnetic_phase, transversal_gauge, zero_field
from magpsido.quantize import op_weyl
from magpsido.spectral import HERMITIAN_TOL, hermiticity_defect, matrix_exp_neg
from magpsido.symbols import relativistic_symbol

ACCEPTANCE_LINES = []


def record_acceptance(number, title, passed, detail):
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append((number, f"criterion {number:02d} [{status}] {title}: {detail}"))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def assembled_phases(g, grid):
    """omega as both assemblies apply it: the gather of an all-ones factor
    against `grid_phase`, since omega * 1 is omega bit for bit."""
    n, d = grid.n, grid.dimension
    return _kernels.weyl_gather(np.ones((n,) * d, dtype=complex),
                                grid_phase(g, grid), n, d)


def pair_phases(g, nodes):
    """Test oracle: omega[j, k] = magnetic_phase(g, x_j, x_k), pair by pair."""
    return magnetic_phase(g, nodes[:, None, :], nodes[None, :, :])


def remainder(op, w, eps):
    """Test oracle: R_eps = (F H F^{-1} - H) / eps, formed whole from the
    conjugated operator."""
    return (conjugate_operator(op, w, eps).entries - op.entries) / eps


def dense_riesz_projector(mat, center, radius, num_nodes=32):
    """Test oracle: the Riesz projector (2 pi i)^{-1} oint (mu - H)^{-1} dmu of
    a Hermitian H by the trapezoidal rule on |mu - center| = radius, with one
    dense solve per node. On H = V diag(lam) V^* it equals the rational
    filter V diag(1 / (1 + ((lam - center) / radius)^num_nodes)) V^*."""
    if not (math.isfinite(center) and math.isfinite(radius) and radius > 0):
        raise ValueError(f"contour needs a finite center and a finite positive "
                         f"radius, got center {center}, radius {radius}")
    mat = np.asarray(mat)
    if hermiticity_defect(mat) > HERMITIAN_TOL:
        raise ValueError("the oracle's rank count needs a Hermitian matrix")
    n = mat.shape[0]
    theta = 2.0 * np.pi * (np.arange(num_nodes) + 0.5) / num_nodes
    P = np.zeros((n, n), dtype=complex)
    eye = np.eye(n)
    for th in theta:
        mu = center + radius * np.exp(1j * th)
        P += radius * np.exp(1j * th) * np.linalg.solve(mu * eye - mat, eye)
    return P / num_nodes


def projector_rank(P):
    """Singular values above 1/2: the rank of a near-orthogonal projector."""
    return int((np.linalg.svd(P, compute_uv=False) > 0.5).sum())


def diamagnetic_check(g, t, trials, grid, seed=0):
    """Test helper: pointwise comparison |exp(-tH_A) u| <= exp(-tH_0) |u| for
    the free operator H_A = op_weyl(<eta>, g) and its zero-field version H_0.

    Returns the worst signed excess over random complex trials plus one
    nonnegative trial; `violation` clips at zero.
    """
    sym = relativistic_symbol(grid.dimension)
    E = matrix_exp_neg(op_weyl(sym, g, grid), t)
    g0 = transversal_gauge(zero_field(grid.dimension))
    E0 = matrix_exp_neg(op_weyl(sym, g0, grid), t).real
    rng = np.random.default_rng(seed)
    signed = -np.inf
    for k in range(trials + 1):
        if k == 0:
            u = np.abs(rng.standard_normal(grid.size))  # nonnegative trial
        else:
            u = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        excess = np.abs(E @ u) - E0 @ np.abs(u)
        signed = max(signed, float(excess.max()))
    return {"signed_max": signed, "violation": max(0.0, signed)}
