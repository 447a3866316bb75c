"""Weight families, conjugated operators, remainder bounds, the analytic
frequency-shift amplitude, and decay-rate fitting for eigenfunctions."""
import math
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from typing import Tuple

import numpy as np

from .errors import (ConfigError, InsufficientWindowError, NotApplicableError,
                     OverflowGuardError, StripViolationError)
from .quadrature import gauss_legendre_01
from .quantize import OperatorMatrix
from .spectral import eig_hermitian, relative_bound
from .symbols import bracket

SWEEP_SHIFT = 1j          # resolvent point z of the relative bounds in a sweep
EPS0_THRESHOLD = 0.5      # a swept eps is admissible when eps * rel_bound is below this
TAYLOR_QUAD_ORDER = 16    # Gauss-Legendre nodes of the polynomial weight identity
FIT_FLOOR = 1e-13         # samples with |u| at or below this stay out of decay fits


@dataclass(frozen=True)
class WeightFamily:
    """Radial weight f_eps(x) >= 1 with f_eps(0) = 1.

    polynomial(p):  f_eps(x) = <eps x>^p
    exponential:    f_eps(x) = exp(<eps x> - 1)

    The exponential kind is normalized by e^{-1} so that conjugations, which
    only see weight ratios, are unchanged while f_eps(0) = 1 holds for both
    kinds.
    """

    kind: str                 # "polynomial" | "exponential"
    p: int = 1

    def __post_init__(self):
        if self.kind not in ("polynomial", "exponential"):
            raise ConfigError(f"unknown weight kind {self.kind!r}")
        if self.kind == "polynomial" and self.p < 1:
            raise ConfigError("polynomial weight needs p >= 1")

    def __call__(self, eps, x):
        br = bracket(eps * np.asarray(x, dtype=float))
        if self.kind == "polynomial":
            top = float(np.max(br))
            if self.p * math.log(top) > 690.0:
                # the eps at which the farthest node reaches <eps x> = e^{690/p}
                t = 690.0 / self.p
                raise OverflowGuardError(
                    "polynomial weight overflows float64 on this grid",
                    suggested_max_eps=eps * math.exp(t) * math.sqrt(-math.expm1(-2.0 * t))
                    / math.sqrt((top - 1.0) * (top + 1.0)))
            return br**self.p
        if np.max(br) - 1.0 > 690.0:
            raise OverflowGuardError(
                "exponential weight overflows float64 on this grid",
                suggested_max_eps=eps * 690.0 / float(np.max(br)))
        return np.exp(br - 1.0)

    def grad(self, eps, x):
        """Closed-form gradient of f_eps."""
        x = np.asarray(x, dtype=float)
        br = bracket(eps * x)
        if self.kind == "polynomial":
            return (self.p * eps**2 * br ** (self.p - 2.0))[..., None] * x
        return (np.exp(br - 1.0) * eps**2 / br)[..., None] * x

    def weight_id(self):
        return f"{self.kind}:p={self.p}" if self.kind == "polynomial" else "exponential"


def b_shift(eps, x, y):
    """Bounded vector field with <eps x> - <eps y> = eps <x - y, b(x, y)>:
    b_j(x, y) = eps (x_j + y_j) / (<eps x> + <eps y>); |b| <= 1 everywhere."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = bracket(eps * x) + bracket(eps * y)
    return eps * (x + y) / denom[..., None]


def conjugate_operator(op, w, eps):
    """F H F^{-1} with F = diag(f_eps(x_j)); exact diagonal similarity.

    Not Hermitian in general; `symmetrized` is dropped on the result.
    """
    if not 0.0 < eps <= 1.0:
        raise ConfigError("eps must lie in (0, 1]")
    f = w(eps, op.grid.nodes)
    return OperatorMatrix((f[:, None] / f[None, :]) * op.entries, op.grid,
                          symbol_id=f"{op.symbol_id}|conj:{w.weight_id()},eps={eps}",
                          symmetrized=False)


def uniform_bound_sweep(op, w, eps_list, dec=None):
    """Relative bounds ||R_eps (H - z)^{-1}|| at z = SWEEP_SHIFT across an eps sweep.

    Returns (rows, empirical_eps0): rows of (eps, rel_bound, eps_rel_bound,
    flag) and the largest swept eps with eps * rel_bound below EPS0_THRESHOLD.
    `dec` may carry the EigenDecomposition of `op` when the caller has it.

    R_eps[j, k] = H[j, k] (f_j / f_k - 1) / eps is formed as its blocks under
    `dec.symmetry`: H's blocks, gathered once, times the same ratios on each
    block's nodes. A weight that is not invariant takes the one-block view.
    """
    eps_list = list(eps_list)
    if any(not 0.0 < e <= 1.0 for e in eps_list):
        raise ConfigError("eps values must lie in (0, 1]")
    if sorted(eps_list) != eps_list:
        raise ConfigError("eps_list must be sorted ascending")

    if dec is None:
        dec = eig_hermitian(op)
    weights = [w(eps, op.grid.nodes) for eps in eps_list]
    if not all(dec.symmetry.invariant(f) for f in weights):
        dec = dec.one_block()
    sym = dec.symmetry
    H_blocks = sym.blocks(op.entries)

    def bound(eps, f):
        R = tuple(Hb * ((f[s, None] / f[None, s] - 1.0) / eps)
                  for Hb, s in zip(H_blocks, sym.node_sets))
        return relative_bound(R, dec, z=SWEEP_SHIFT)

    # One worker: each bound is a product R V and a top singular value whose
    # BLAS and LAPACK calls already spread over the cores, so more threads
    # only contend.
    with ThreadPoolExecutor(max_workers=1) as ex:
        bounds = list(ex.map(bound, eps_list, weights))
    rows = []
    eps0 = None
    for eps, rb in zip(eps_list, bounds):
        erb = eps * rb
        ok = erb < EPS0_THRESHOLD
        rows.append((eps, rb, erb, ok))
        if ok:
            eps0 = eps
    return rows, eps0


def weight_taylor_identity_check(w, eps, pairs):
    """Residual of the weight-increment identity over sample pairs.

    polynomial kind: f(x) = f(y) + <x-y, int_0^1 grad f(y + t(x-y)) dt>,
    integral by Gauss-Legendre.
    exponential kind: f(x)/f(y) = exp(eps <x-y, b_eps(x,y)>), exact algebra.
    """
    xs, ys = pairs
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if w.kind == "exponential":
        lhs = w(eps, xs) / w(eps, ys)
        rhs = np.exp(eps * ((xs - ys) * b_shift(eps, xs, ys)).sum(axis=-1))
        return float(np.abs(lhs - rhs).max())
    nodes, weights = gauss_legendre_01(TAYLOR_QUAD_ORDER)
    acc = np.zeros(xs.shape[:-1])
    diff = xs - ys
    for t, wt in zip(nodes, weights):
        acc = acc + wt * (diff * w.grad(eps, ys + t * diff)).sum(axis=-1)
    return float(np.abs(w(eps, xs) - w(eps, ys) - acc).max())


def analytic_eps_cap(sym):
    """Largest shift parameter keeping eta + i eps b inside the strip: min(1, delta/4)."""
    if sym.strip_delta is None:
        return None
    return min(1.0, sym.strip_delta / 4.0)


def amplitude_c_eps(sym, eps):
    """Conjugation amplitude c_eps(x,y,eta) = a~((x+y)/2, eta + i eps b_eps(x,y)).

    Requires eps <= min(1, delta/4) so the imaginary shift eps |b| stays a
    factor 4 inside the analyticity strip.
    """
    if sym.strip_delta is None:
        raise NotApplicableError("symbol carries no analytic extension")
    cap = analytic_eps_cap(sym)
    if eps > cap:
        raise StripViolationError(f"eps {eps} above strip-safe cap {cap}")

    def amp(x, y, eta):
        shift = b_shift(eps, x, y)
        mid = 0.5 * (np.asarray(x, dtype=float) + np.asarray(y, dtype=float))
        zeta = np.asarray(eta, dtype=float) + 1j * eps * shift
        return sym.analytic_ext(mid, zeta)

    return amp


@dataclass
class DecayFit:
    mode: str                  # "exponential" | "polynomial"
    rate: float                # beta-hat or p-hat
    r_squared: float
    window: Tuple[float, float]
    sample_count: int


def decay_fit(u, mode, window):
    """Least-squares decay fit of an eigenvector's envelope.

    exponential mode regresses -log|u| on <x>; polynomial mode on log <x>.
    Only samples with |x_j| inside the window and |u| above FIT_FLOOR enter.
    """
    if mode not in ("exponential", "polynomial"):
        raise ConfigError(f"unknown fit mode {mode!r}")
    r1, r2 = window
    grid = u.grid
    if not 0 < r1 < r2 <= 0.8 * grid.L + 1e-12:
        raise ConfigError("window must satisfy 0 < r1 < r2 <= 0.8 L")
    radii = np.sqrt((grid.nodes**2).sum(axis=-1))
    vals = np.abs(u.values)
    mask = (radii >= r1) & (radii <= r2) & (vals > FIT_FLOOR)
    if mask.sum() < 8:
        raise InsufficientWindowError(
            f"only {int(mask.sum())} usable samples in window {window}")
    br = np.sqrt(1.0 + radii[mask] ** 2)
    X = br if mode == "exponential" else np.log(br)
    Y = -np.log(vals[mask])
    A = np.vstack([X, np.ones_like(X)]).T
    coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((Y - pred) ** 2))
    ss_tot = float(np.sum((Y - Y.mean()) ** 2))
    r2v = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(mode, float(coef[0]), r2v, (float(r1), float(r2)), int(mask.sum()))


def default_window(grid):
    """Fit window [0.35 L, 0.8 L]: past the well, before the seam."""
    return (0.35 * grid.L, 0.8 * grid.L)


def epsilon0_estimate(sym, w, empirical_eps0):
    """Analytic strip-based cap min(1, delta/4) next to the empirical
    threshold that `uniform_bound_sweep` returned; reported side by side,
    never merged.

    The analytic cap belongs to the exponential-weight route (it protects the
    imaginary frequency shift); polynomial weights report None there.
    """
    analytic = analytic_eps_cap(sym) if w.kind == "exponential" else None
    return {"analytic_eps0": analytic, "empirical_eps0": empirical_eps0}
