"""Magnetic fields, the transversal gauge, and segment phase factors.

The phase attached to an ordered pair (x, y) is exp(-i I(x,y)) with
I(x,y) = int_[x,y] A, the integral of the vector potential along the
straight segment. In the transversal gauge about an origin o,
(x - o) . A(x) = 0, Stokes' theorem turns that segment integral into the
flux of B through the triangle (o, x, y); with x, y measured from o,

    I(x,y) = sum_{j<k} (x_j y_k - x_k y_j)
             int_0^1 int_0^1 s B_jk(o + s (x + t (y - x))) ds dt,

evaluated with the tensor Gauss-Legendre rule of order PHASE_QUAD_ORDER
for every field; the potential itself comes from the radial rule of the same
order. Both rules are exact for a constant B. The double integral (the flux
mean) is symmetric in x and y, and for a field on axis 0 (no component
depends on any coordinate but the first; a constant component depends on
none) it is a function of (x_1, y_1). On a tensor grid the rule then runs
once per pair of first coordinates, and the phases factor (`AxisPhase`):
the exponent splits into a part of (x_1, y_1, y_2) and one of
(y_1, x_1, x_2), so n^3 exponentials give all N^2 = n^4 phases.
`grid_phase` is the one source of pair phases for both operator
assemblies: no phase at all for a zero field with no shift, the factored
phases otherwise, and NotApplicableError for a field on no axis or on
another one. `magnetic_phase` evaluates single pairs anywhere.

Moving the origin is a gauge change: it multiplies every phase by
exp(-i (chi(y) - chi(x))) for some chi, so operators built on two origins
are unitarily equivalent. The origin defaults to 0; a scenario centres it
on its lattice (`quantize.Grid.centre`), where a field on axis 0 makes the
operator symmetric under conjugation times the x_2 reflection
(`spectral.ConjugateReflection`).

A gauge shifted by grad(chi) keeps this evaluator and records chi; its
segment integral is I(x,y) + chi(y) - chi(x) exactly, so no quadrature over
the shifted potential is ever run. `GaugeData.potential`
(A + grad chi) serves the dA = B check and covariant derivatives only.
"""
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NotApplicableError
from .potentials import parse_params
from .quadrature import gauss_legendre_01

PHASE_QUAD_ORDER = 16     # Gauss-Legendre nodes per axis of the flux and radial rules


@dataclass
class MagneticField:
    """Antisymmetric two-form with components B_jk, stored for j < k only.

    `axis`, when set, is a coordinate such that no component depends on
    any other one.
    """

    dimension: int
    components: dict  # (j, k) with j < k -> callable x(...,d) -> (...)
    axis: Optional[int] = None

    def component(self, j, k, x):
        """B_jk(x) with antisymmetry B_jk = -B_kj built in."""
        if j == k:
            return np.zeros(np.asarray(x).shape[:-1])
        if j < k:
            fun = self.components.get((j, k))
            sign = 1.0
        else:
            fun = self.components.get((k, j))
            sign = -1.0
        if fun is None:
            return np.zeros(np.asarray(x).shape[:-1])
        return sign * np.asarray(fun(x), dtype=float)

    @property
    def is_zero(self):
        return not self.components


def zero_field(dimension):
    return MagneticField(dimension, {})


def constant_field_2d(b):
    comps = {} if b == 0.0 else {(0, 1): lambda x: np.full(np.asarray(x).shape[:-1], b)}
    return MagneticField(2, comps, axis=0)


def cos_field_2d(amp=1.0):
    """B_12(x) = amp * cos(x_1); smooth, bounded with all derivatives."""
    comps = {(0, 1): lambda x: amp * np.cos(np.asarray(x)[..., 0])}
    return MagneticField(2, comps, axis=0)


_FIELD_PARAMS = {"zero": (), "constant2d": ("b",), "cos2d": ("amp",)}


def field_from_id(fid, dimension):
    name, _, rest = fid.partition(":")
    name = name.strip()
    if name not in _FIELD_PARAMS:
        raise ConfigError(f"unknown field {fid!r}")
    params = parse_params(rest)
    for key in params:
        if key not in _FIELD_PARAMS[name]:
            raise ConfigError(f"unknown parameter {key!r} for field {name!r}")
    if name == "zero":
        return zero_field(dimension)
    if dimension != 2:
        raise ConfigError(f"{name} needs d=2")
    if name == "constant2d":
        return constant_field_2d(params.get("b", 1.0))
    return cos_field_2d(params.get("amp", 1.0))


@dataclass
class GaugeData:
    """A vector potential for a field, plus the segment-phase evaluator.

    Segment phases come from `field` and `chi`, never from `potential`:
    the potential is the transversal one plus grad(chi).
    """

    field: MagneticField
    potential: Callable  # X (...,d) -> (...,d)
    chi: Optional[Callable] = None  # X (...,d) -> (...); accumulated gauge shift
    origin: Optional[np.ndarray] = None  # (d,) origin of the transversal gauge; None is 0

    def __post_init__(self):
        origin = np.zeros(self.dimension) if self.origin is None else self.origin
        self.origin = np.asarray(origin, dtype=float).reshape(self.dimension)

    @property
    def dimension(self):
        return self.field.dimension


def transversal_gauge(B, origin=None):
    """Radial-integration potential about `origin` o (default 0):
    A_j(x) = -sum_k (x - o)_k int_0^1 s B_jk(o + s (x - o)) ds."""
    d = B.dimension
    s_nodes, s_weights = gauss_legendre_01(PHASE_QUAD_ORDER)

    def A(X):
        o = g.origin
        X = np.asarray(X, dtype=float) - o
        out = np.zeros(X.shape)
        for j in range(d):
            acc = np.zeros(X.shape[:-1])
            for k in range(d):
                if j == k:
                    continue
                radial = np.zeros(X.shape[:-1])
                for s, w in zip(s_nodes, s_weights):
                    radial = radial + w * s * B.component(j, k, o + s * X)
                acc += X[..., k] * radial
            out[..., j] = -acc
        return out

    g = GaugeData(B, A, origin=origin)
    return g


def _is_trivial(g):
    """Zero field, no shift: every phase is exactly 1."""
    return g.field.is_zero and g.chi is None


def _flux_means(B, x, y, order, origin):
    """Per component, int_0^1 int_0^1 s B_jk(o + s(x + t(y-x))) ds dt, with
    x and y measured from the origin o."""
    nodes, weights = gauss_legendre_01(order)
    # one s node at a time, every t node along a leading axis; coordinate
    # axis next, so the broadcast sums run over long rows
    lead = (-1,) + (1,) * x.ndim
    t, wt = nodes.reshape(lead), weights.reshape(lead[:-1])
    xT = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    yT = np.ascontiguousarray(np.moveaxis(y, -1, 0))
    means = dict.fromkeys(B.components, 0.0)
    for s, ws in zip(nodes, weights):
        # s (x + t (y - x)) = s (1 - t) x + s t y
        pts = np.moveaxis((s * (1.0 - t)) * xT + (s * t) * yT, 1, -1)
        pts += origin
        for jk, fun in B.components.items():
            # a running sum adds the points in rule order whatever the block shape
            terms = (ws * wt * s) * fun(pts)
            terms[0] += means[jk]
            means[jk] = np.cumsum(terms, axis=0)[-1]
    return means


def _cross_sum(means, x, y):
    """sum_{j<k} (x_j y_k - x_k y_j) mean_jk: the triangle flux through (0, x, y)."""
    acc = np.zeros(np.broadcast(x[..., 0], y[..., 0]).shape)
    for (j, k), mean in means.items():
        acc += (x[..., j] * y[..., k] - x[..., k] * y[..., j]) * mean
    return acc


def line_integral_A(g, x, y):
    """int_[x,y] A along the straight segment: the transversal flux through
    the triangle (origin, x, y) plus chi(y) - chi(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xo, yo = x - g.origin, y - g.origin
    acc = _cross_sum(_flux_means(g.field, xo, yo, PHASE_QUAD_ORDER, g.origin), xo, yo)
    if g.chi is not None:
        acc = acc + (g.chi(y) - g.chi(x))
    return acc


def magnetic_phase(g, x, y):
    """Unit-modulus pair phase exp(-i int_[x,y] A)."""
    if _is_trivial(g):
        return np.ones(np.broadcast(np.asarray(x)[..., 0], np.asarray(y)[..., 0]).shape,
                       dtype=complex)
    return np.exp(-1j * line_integral_A(g, x, y))


def gauge_transform(g, chi, grad_chi):
    """Shift the potential by a gradient: A -> A + grad(chi), same field.

    The shifted gauge keeps the base phase evaluator and accumulates chi, so
    its phases are the base phases times exp(-i (chi(y) - chi(x))) exactly;
    `grad_chi` only enters `potential`.
    """
    base_A = g.potential
    base_chi = g.chi

    def A(X):
        return base_A(X) + grad_chi(X)

    if base_chi is None:
        total_chi = chi
    else:
        def total_chi(X):
            return base_chi(X) + chi(X)

    return GaugeData(g.field, A, chi=total_chi, origin=g.origin)


@dataclass(frozen=True)
class AxisPhase:
    """The pair phases of a tensor grid in factored form, for a field on
    axis 0 (or a gauge shift alone).

    A node is (a, j'): a indexes its first coordinate, j' the other one
    (j' = 0 in 1-D); X_a and Y_j' are the coordinates measured from the
    gauge's origin. The flux mean M[a, b] of a field on axis 0 depends on
    the first coordinates alone, so the exponent of the pair
    ((a, j'), (b, k')) is M[a, b] (X_a Y_k' - Y_j' X_b) + chi(b, k') -
    chi(a, j') (M is exactly symmetric). With
    table[a, b, k'] = exp(-i (M[a, b] X_a Y_k' + chi(b, k')))

        omega[(a, j'), (b, k')] = conj(table[b, a, j']) table[a, b, k']:

    at most n^2 m exponentials in place of N^2.
    """

    table: np.ndarray  # (n, n, m), m = n in 2-D and 1 in 1-D

    def rows(self, a0, a1):
        """omega[(a, j'), (b, k')] for a0 <= a < a1, shape (a1 - a0, m, n, m).

        The conjugate product is formed in real arithmetic, re = pr qr + pi qi
        and im = pr qi - pi qr, which is exactly symmetric under swapping
        the pair: numpy's complex multiply is not bitwise commutative (it may
        fuse a product into an add), so it would leave omega Hermitian only
        to roundoff. The diagonal, |table|^2 up to roundoff, is set to 1.
        """
        W = self.table
        p = W[:, a0:a1].transpose(1, 2, 0)[..., None]  # p[a, j', b] = table[b, a, j']
        q = W[a0:a1, None]                             # q[a, b, k'] = table[a, b, k']
        n, _, m = W.shape
        w = np.empty((a1 - a0, m, n, m), dtype=complex)
        re, im = w.real, w.imag
        np.multiply(p.real, q.real, out=re)
        re += p.imag * q.imag
        np.multiply(p.real, q.imag, out=im)
        im -= p.imag * q.real
        a = np.arange(a1 - a0)[:, None]
        j = np.arange(m)
        w[a, j, a0 + a, j] = 1.0
        return w


def grid_phase(g, grid):
    """The pair phases of a tensor grid (`quantize.Grid`): None when every
    phase is 1 (zero field, no shift), an `AxisPhase` for a zero field with
    a shift or a field on axis 0. Any other field raises
    NotApplicableError.

    Coordinates are measured from the gauge's origin, through
    `Grid.axis_from`: from the lattice centre they are exactly antisymmetric
    under j -> n - 1 - j, so the exponent changes sign bit for bit under the
    reflection of the second coordinate."""
    if _is_trivial(g):
        return None
    if not (g.field.is_zero or g.field.axis == 0):
        where = "no axis" if g.field.axis is None else f"axis {g.field.axis}"
        raise NotApplicableError(
            f"pair phases need a field on axis 0 (no component depending on "
            f"another coordinate); this field has {where}")
    dimension, n = grid.dimension, grid.n
    m = n if dimension == 2 else 1
    E = np.zeros((1, n, m))  # exponent of table[a, b, k']; a shift alone is constant in a
    if not g.field.is_zero:
        # a 2-D field has the one component (0, 1); its mean depends on the
        # first coordinate only, so keys with the second one 0 serve. The
        # means are symmetric in (x, y): the upper key triangle is mirrored,
        # so M is exactly symmetric
        X, Y = (grid.axis_from(o) for o in g.origin)
        keys = np.zeros((n, dimension))
        keys[:, 0] = X
        (mean,) = _flux_means(g.field, keys[:, None], keys[None], PHASE_QUAD_ORDER,
                              g.origin).values()
        lower = np.tril_indices(n, -1)
        mean[lower] = mean.T[lower]
        E = (mean * X[:, None])[:, :, None] * Y
    if g.chi is not None:
        X = grid.axis
        nodes = np.empty((n, m, dimension))  # node (b, k')
        nodes[..., 0] = X[:, None]
        if dimension == 2:
            nodes[..., 1] = X
        E = E + g.chi(nodes)
    return AxisPhase(np.broadcast_to(np.exp(-1j * E), (n, n, m)))


def potential_residual(g, radius=4.0, density=32, h=1e-4):
    """Max finite-difference residual of (dA)_jk = B_jk on a sample lattice."""
    d = g.dimension
    axes = [np.linspace(-radius, radius, density)] * d
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    worst = 0.0
    for j in range(d):
        for k in range(j + 1, d):
            ej = np.zeros(d); ej[j] = h
            ek = np.zeros(d); ek[k] = h
            dAk_dj = (g.potential(X + ej)[..., k] - g.potential(X - ej)[..., k]) / (2 * h)
            dAj_dk = (g.potential(X + ek)[..., j] - g.potential(X - ek)[..., j]) / (2 * h)
            res = dAk_dj - dAj_dk - g.field.component(j, k, X)
            worst = max(worst, float(np.abs(res).max()))
    return worst
