"""Frequency-space symbols: evaluation, derivatives, analytic continuation,
and the quantitative class checks (seminorms, factorial derivative growth).

Evaluation convention: every symbol callback receives position and frequency
arguments as numpy arrays whose trailing axis has length `dimension`, and the
arguments broadcast against each other; the result drops the trailing axis.
"""
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NotApplicableError, UnsupportedOrderError
from .potentials import parse_params, potential_from_id

DERIVATIVE_BUDGET = 6
CAUCHY_SLACK = 1.5    # factor on the order-0 seminorm in the Cauchy bound constant
CONTOUR_NODES = 32    # trapezoid nodes per ring of the Cauchy-integral eta derivative


def bracket(eta):
    """<eta> = sqrt(1 + |eta|^2), trailing axis summed."""
    eta = np.asarray(eta)
    return np.sqrt(1.0 + (eta * eta).sum(axis=-1))


def bracket_c(zeta):
    """Analytic <zeta> = (1 + sum zeta_j^2)^(1/2), principal branch."""
    zeta = np.asarray(zeta)
    return np.sqrt(1.0 + (zeta * zeta).sum(axis=-1) + 0j)


def multi_indices(d, max_total):
    """All multi-indices of dimension d with 1 <= |alpha| <= max_total."""
    out = []
    for total in range(1, max_total + 1):
        for combo in itertools.product(range(total + 1), repeat=d):
            if sum(combo) == total:
                out.append(combo)
    return out


@dataclass
class HormanderSymbol:
    """An order-m symbol a(x, eta) with optional analytic frequency extension.

    `analytic_ext(x, zeta)` must agree with `eval` for real zeta and be
    analytic per frequency coordinate on the strip |Im zeta_j| < strip_delta.
    """

    order: float
    eval: Callable
    dimension: int
    analytic_ext: Optional[Callable] = None
    strip_delta: Optional[float] = None
    symbol_id: str = ""

    def __call__(self, x, eta):
        return self.eval(x, eta)


def _contour_eta_derivative(sym, alpha, x, eta):
    """Cauchy-integral derivative on a polydisc of radius strip_delta/2.

    A coordinate with alpha_j = 0 takes no ring: the Cauchy integral over it
    is the mean value of an analytic function, which is its value at the
    centre, so alpha = (k, 0) needs one ring, not CONTOUR_NODES of them.
    """
    d = sym.dimension
    rho = 0.5 * sym.strip_delta
    theta = 2.0 * np.pi * (np.arange(CONTOUR_NODES) + 0.5) / CONTOUR_NODES
    ring = rho * np.exp(1j * theta)
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    axes = [j for j in range(d) if alpha[j] > 0]
    m = len(axes)
    shift = np.zeros((CONTOUR_NODES,) * m + (d,), dtype=complex)
    phase = coeff = 1.0
    for i, j in enumerate(axes):
        along = (slice(None),) + (None,) * (m - 1 - i)
        shift[..., j] = ring[along]
        phase = phase * np.exp(-1j * alpha[j] * theta)[along]
        coeff *= math.factorial(alpha[j])
    coeff /= rho ** sum(alpha) * CONTOUR_NODES**m
    pad = (Ellipsis,) + (None,) * m + (slice(None),)
    vals = sym.analytic_ext(x[pad], eta[pad] + shift)
    return coeff * (vals * phase).sum(axis=tuple(range(-m, 0)))


def eta_derivative(sym, alpha, x, eta):
    """d^alpha/d eta^alpha of the symbol at (x, eta), by Cauchy contour
    quadrature for |alpha| >= 1, which needs the analytic extension.
    """
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(alpha) != sym.dimension:
        raise UnsupportedOrderError("multi-index length must match dimension")
    total = sum(alpha)
    if total > DERIVATIVE_BUDGET:
        raise UnsupportedOrderError(
            f"derivative order {total} exceeds budget {DERIVATIVE_BUDGET}")
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if total == 0:
        return np.asarray(sym.eval(x, eta), dtype=complex)
    if sym.analytic_ext is None or sym.strip_delta is None:
        raise NotApplicableError("symbol carries no analytic extension")
    return _contour_eta_derivative(sym, alpha, x, eta)


@dataclass(frozen=True)
class SampleBox:
    """Tensor-product sampling region |x_i| <= x_radius, |eta_i| <= eta_radius."""

    x_radius: float
    eta_radius: float


def _lattice(radius, density):
    return np.linspace(-radius, radius, density)


def _sample_points(sym, box, density):
    d = sym.dimension
    xs = _lattice(box.x_radius, density)
    es = _lattice(box.eta_radius, density)
    X = np.stack(np.meshgrid(*([xs] * d), indexing="ij"), axis=-1).reshape(-1, d)
    E = np.stack(np.meshgrid(*([es] * d), indexing="ij"), axis=-1).reshape(-1, d)
    return X[:, None, :], E[None, :, :]


def seminorm_estimate(sym, beta, box, grid_density=64):
    """Sampled seminorm sup <eta>^(-m+|beta|) |d^beta_eta a|."""
    beta = tuple(int(b) for b in np.atleast_1d(beta))
    if box.x_radius < 0 or box.eta_radius < 0 or grid_density < 2:
        raise ConfigError("sample box must be nonempty")
    X, E = _sample_points(sym, box, grid_density)
    vals = eta_derivative(sym, beta, X, E) if sum(beta) else sym.eval(X, E)
    weight = bracket(E) ** (-sym.order + sum(beta))
    return float(np.abs(vals * weight).max())


@dataclass(frozen=True)
class CauchyBoundResult:
    passed: bool
    worst_ratio: float
    constant: float


def cauchy_derivative_bound_check(sym, max_order, box, grid_density=24):
    """Check |d^alpha_eta a| <= C (2/delta)^|alpha| alpha! <eta>^m on samples.

    C is the order-0 seminorm over the box times CAUCHY_SLACK.
    """
    if sym.analytic_ext is None or sym.strip_delta is None:
        raise NotApplicableError("symbol carries no analytic extension")
    if max_order > DERIVATIVE_BUDGET:
        raise UnsupportedOrderError("max_order exceeds budget")
    zero = (0,) * sym.dimension
    C = CAUCHY_SLACK * seminorm_estimate(sym, zero, box, grid_density)
    X, E = _sample_points(sym, box, grid_density)
    weight = bracket(E) ** sym.order
    worst = 0.0
    for alpha in multi_indices(sym.dimension, max_order):
        lhs = np.abs(eta_derivative(sym, alpha, X, E))
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        rhs = C * (2.0 / sym.strip_delta) ** sum(alpha) * fact * weight
        worst = max(worst, float((lhs / rhs).max()))
    return CauchyBoundResult(worst <= 1.0, worst, C)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def p_s_symbol(s, dimension):
    """<eta>^s with its analytic extension and strip 1/(2 sqrt(d))."""
    delta = 1.0 / (2.0 * math.sqrt(dimension))

    def ev(x, eta):
        return bracket(eta) ** s + 0.0 * np.asarray(x).sum(axis=-1)

    def ext(x, zeta):
        return bracket_c(zeta) ** s + 0.0 * np.asarray(x).sum(axis=-1)

    return HormanderSymbol(
        order=float(s), eval=ev, dimension=dimension, analytic_ext=ext,
        strip_delta=delta, symbol_id=f"p_s:s={s}")


def relativistic_symbol(dimension):
    sym = p_s_symbol(1.0, dimension)
    sym.symbol_id = "relativistic"
    return sym


def kinetic_symbol(dimension):
    """|eta|^2, entire in the frequencies."""

    def ev(x, eta):
        eta = np.asarray(eta)
        return (eta * eta).sum(axis=-1) + 0.0 * np.asarray(x).sum(axis=-1)

    def ext(x, zeta):
        zeta = np.asarray(zeta)
        return (zeta * zeta).sum(axis=-1) + 0.0 * np.asarray(x).sum(axis=-1)

    return HormanderSymbol(
        order=2.0, eval=ev, dimension=dimension, analytic_ext=ext,
        strip_delta=1.0, symbol_id="kinetic")


def _with_potential(base, v, vmeta, dimension):
    """base symbol plus an x-only term v(x)."""
    base_ev, base_ext = base.eval, base.analytic_ext

    def ev(x, eta):
        return base_ev(x, eta) + v(x)

    def ext(x, zeta):
        return base_ext(x, zeta) + v(x)

    return HormanderSymbol(
        order=base.order, eval=ev, dimension=dimension,
        analytic_ext=ext, strip_delta=base.strip_delta,
        symbol_id=f"{base.symbol_id}+{vmeta['id']}")


def negative_order_symbol(v, vmeta, dimension):
    """<eta>^{-1} (1 + v(x))."""
    base = p_s_symbol(-1.0, dimension)

    def ev(x, eta):
        return bracket(eta) ** (-1.0) * (1.0 + v(x))

    def ext(x, zeta):
        return bracket_c(zeta) ** (-1.0) * (1.0 + v(x))

    return HormanderSymbol(
        order=-1.0, eval=ev, dimension=dimension, analytic_ext=ext,
        strip_delta=base.strip_delta, symbol_id=f"neg_order+{vmeta['id']}")


_BASES = {
    "relativistic": relativistic_symbol,
    "kinetic": kinetic_symbol,
}


def symbol_from_id(sid, dimension):
    """Resolve ids like 'relativistic', 'p_s:s=-1', 'kinetic+gauss_well:depth=2,width=1'."""
    sid = sid.strip()
    if sid.startswith("p_s"):
        _, _, rest = sid.partition(":")
        params = parse_params(rest)
        if "s" not in params:
            raise ConfigError("p_s symbol needs s=<real>")
        return p_s_symbol(params["s"], dimension)
    base_id, _, pot_id = sid.partition("+")
    if base_id == "neg_order":
        if not pot_id:
            one = (lambda x: 0.0 * np.asarray(x, dtype=float).sum(axis=-1))
            return negative_order_symbol(one, {"id": "zero"}, dimension)
        v, meta = potential_from_id(pot_id)
        return negative_order_symbol(v, meta, dimension)
    if base_id not in _BASES:
        raise ConfigError(f"unknown symbol {base_id!r}")
    base = _BASES[base_id](dimension)
    if not pot_id:
        return base
    v, meta = potential_from_id(pot_id)
    return _with_potential(base, v, meta, dimension)
