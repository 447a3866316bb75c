"""Frequency-space symbols: evaluation, derivatives, analytic continuation,
and the quantitative class checks (seminorms, factorial derivative growth).

A symbol is held in factor form g(x) f(eta) + v(x). Evaluation convention:
f receives frequency arrays and g, v position arrays, each with a trailing
axis of length `dimension`; `eval` and `analytic_ext` take both, broadcast
them against each other, and drop the trailing axis.
"""
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NotApplicableError, UnsupportedOrderError
from .potentials import parse_params, potential_from_id

DERIVATIVE_BUDGET = 6
CAUCHY_SLACK = 1.5    # factor on the order-0 seminorm in the Cauchy bound constant
CONTOUR_NODES = 32    # trapezoid nodes per ring of the Cauchy-integral eta derivative
CAUCHY_BLOCK = 2**19  # complex contour samples per block of the Cauchy bound check


def bracket(eta):
    """<eta> = sqrt(1 + sum eta_j^2), trailing axis summed; for complex zeta the
    principal branch, which is analytic where Re(1 + sum zeta_j^2) > 0."""
    eta = np.asarray(eta)
    return np.sqrt(1.0 + (eta * eta).sum(axis=-1))


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
    """An order-m symbol in factor form, a(x, eta) = g(x) f(eta) + v(x).

    f takes real eta or complex zeta, so the one callable gives both `eval`
    and `analytic_ext`; the modulation g (default 1) and the potential v
    (default 0) take x. `analytic_ext(x, zeta)` agrees with `eval` for real
    zeta and is analytic per frequency coordinate on the strip
    |Im zeta_j| < strip_delta; a symbol without strip_delta has none.

    Every catalog symbol has this form, and `quantize.op_weyl` assembles
    from the factors with one n^d FFT of f. A non-separable symbol is outside
    the catalog and would need its own assembly.
    """

    order: float
    f: Callable
    dimension: int
    g: Optional[Callable] = None
    v: Optional[Callable] = None
    strip_delta: Optional[float] = None
    symbol_id: str = ""

    def eval(self, x, eta):
        return self._combine(x, self.f(np.asarray(eta)))

    def analytic_ext(self, x, zeta):
        if self.strip_delta is None:
            raise NotApplicableError("symbol carries no analytic extension")
        return self._combine(x, self.f(np.asarray(zeta, dtype=complex)))

    def _combine(self, x, fz):
        """g(x) f + v(x), broadcast over the x and frequency arguments."""
        x = np.asarray(x, dtype=float)
        out = fz if self.g is None else self.g(x) * fz
        if self.v is not None:
            out = out + self.v(x)
        return np.broadcast_to(out, np.broadcast_shapes(np.shape(out), x.shape[:-1]))


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
    if sym.strip_delta is None:
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
    if sym.strip_delta is None:
        raise NotApplicableError("symbol carries no analytic extension")
    if max_order > DERIVATIVE_BUDGET:
        raise UnsupportedOrderError("max_order exceeds budget")
    zero = (0,) * sym.dimension
    C = CAUCHY_SLACK * seminorm_estimate(sym, zero, box, grid_density)
    X, E = _sample_points(sym, box, grid_density)
    weight = bracket(E) ** sym.order
    # x samples per block: a mixed index evaluates a full polydisc per pair
    rows = max(1, CAUCHY_BLOCK // (E.shape[1] * CONTOUR_NODES**sym.dimension))
    worst = 0.0
    for alpha in multi_indices(sym.dimension, max_order):
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        rhs = C * (2.0 / sym.strip_delta) ** sum(alpha) * fact * weight
        for start in range(0, X.shape[0], rows):
            lhs = np.abs(eta_derivative(sym, alpha, X[start:start + rows], E))
            worst = max(worst, float((lhs / rhs).max()))
    return CauchyBoundResult(worst <= 1.0, worst, C)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def p_s_symbol(s, dimension):
    """<eta>^s on the strip 1/(2 sqrt(d))."""
    return HormanderSymbol(
        order=float(s), f=lambda eta: bracket(eta) ** s, dimension=dimension,
        strip_delta=1.0 / (2.0 * math.sqrt(dimension)), symbol_id=f"p_s:s={s}")


def relativistic_symbol(dimension):
    return replace(p_s_symbol(1.0, dimension), symbol_id="relativistic")


def kinetic_symbol(dimension):
    """|eta|^2, entire in the frequencies."""
    return HormanderSymbol(
        order=2.0, f=lambda eta: (eta * eta).sum(axis=-1), dimension=dimension,
        strip_delta=1.0, symbol_id="kinetic")


def negative_order_symbol(v, vmeta, dimension):
    """<eta>^{-1} (1 + v(x))."""
    return replace(p_s_symbol(-1.0, dimension), g=lambda x: 1.0 + v(x),
                   symbol_id=f"neg_order+{vmeta['id']}")


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
            return replace(p_s_symbol(-1.0, dimension), symbol_id="neg_order+zero")
        v, meta = potential_from_id(pot_id)
        return negative_order_symbol(v, meta, dimension)
    if base_id not in _BASES:
        raise ConfigError(f"unknown symbol {base_id!r}")
    base = _BASES[base_id](dimension)
    if not pot_id:
        return base
    v, meta = potential_from_id(pot_id)
    return replace(base, v=v, symbol_id=f"{base.symbol_id}+{meta['id']}")
