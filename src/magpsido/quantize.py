"""Dense discretization of phase-space operators on a periodic grid.

The grid couples n even nodes per axis on [-L, L) with the exact DFT dual
frequencies (pi/L) k, k in [-n/2, n/2). A symbol a becomes the matrix

    H[j,k] = n^{-d} sum_eta e^{i <x_j - x_k, eta>} omega(x_j, x_k)
             a((x_j + x_k)/2, eta).

For a symbol in factor form a(x, eta) = g(x) f(eta) + v(x) the frequency sum
splits: the f term is one inverse n^d DFT fhat of f on the dual lattice, read
at the wrapped lattice displacement j - k, and the v term sums to delta_jk,
where omega is 1. So

    H[j,k] = omega[j,k] g((x_j + x_k)/2) fhat[wrap(j - k)] + delta_jk v(x_j).

Displacements wrap with period 2L (the frequency sum is an exact DFT); the
pair phase omega is evaluated on the true, unwrapped segment.

For a real symbol H is self-adjoint, and `op_weyl` builds it so bit for bit
in one gather: fhat is replaced by its Hermitian part, fhat[-m] =
conj fhat[m] exactly, and omega[k,j] = conj omega[j,k] exactly
(`gauge.grid_phase`), so H[k,j] = conj H[j,k] with no symmetrization pass.
Both assemblies, `op_weyl` and `op_amplitude`, take their phases from
`gauge.grid_phase`: none at all at zero field with no gauge shift, and
otherwise the factored phases of a field on axis 0, as every catalog field
is, from n^3 exponentials; any other field is refused with
NotApplicableError. `op_weyl` is `WeylFactors` (fhat, phases, g, v) and
one gather of the N x N operator (N = n^d) in row slabs of about
`_kernels.GATHER_BLOCK` entries; `WeylFactors.slabs` gives those slabs
alone, for a caller that never forms H. `hermitize` symmetrizes operators
from elsewhere, such as an operator file written without the flag.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import AssemblyError, BudgetError, ConfigError, NotApplicableError, UnsupportedOrderError
from .gauge import grid_phase
from .symbols import p_s_symbol

AMPLITUDE_BUDGET = 10**10
AMPLITUDE_BLOCK = 2**16     # complex amplitude samples op_amplitude takes per block
REAL_TOL = 1e-14            # max|Im| / max|.| at or below which fhat or a symmetrized H is stored real
SYMMETRY_TOL = 1e-12        # max|amp(x,y) - amp(y,x)| / max|amp| above which op_amplitude refuses


def _product(axis, d):
    """The points of the d-fold product of an axis, last coordinate fastest."""
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


@dataclass(frozen=True)
class Grid:
    """Periodic tensor grid: nodes h (j - n/2), h = 2L/n, and its DFT dual.

    The nodes are formed as h times an integer, so x_{n-j} = -x_j bit for bit
    whatever h is; node -L (j = 0) is its own lattice image. The node set
    itself is symmetric about its centre -h/2: x_{n-1-j} = -h - x_j, with no
    fixed node.
    """

    dimension: int
    half_length: float
    points_per_axis: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigError("dimension must be 1 or 2")
        if self.points_per_axis % 2 != 0 or self.points_per_axis < 4:
            raise ConfigError("points_per_axis must be even and >= 4")
        if not (math.isfinite(self.half_length) and self.half_length > 0):
            raise ConfigError("half_length must be finite and positive")

    @property
    def n(self):
        return self.points_per_axis

    @property
    def L(self):
        return self.half_length

    @property
    def h(self):
        return 2.0 * self.half_length / self.points_per_axis

    @property
    def size(self):
        return self.points_per_axis**self.dimension

    @property
    def axis(self):
        return self.h * (np.arange(self.n) - self.n // 2)

    @property
    def centre(self):
        """The lattice's centre of symmetry, -h/2 on every axis."""
        return np.full(self.dimension, -self.h / 2.0)

    def axis_from(self, origin):
        """Node coordinates of one axis measured from `origin`, formed as
        (h/2)(2j - n - 2 origin/h). From 0 this is `axis` bit for bit; from
        the centre -h/2 it is (h/2)(2j - n + 1), odd multiples of h/2, so
        entry n - 1 - j is minus entry j bit for bit."""
        return (self.h / 2.0) * (2 * np.arange(self.n) - self.n - 2.0 * origin / self.h)

    @property
    def eta_axis(self):
        """Dual frequencies in DFT order; includes -n/2, excludes +n/2."""
        return (np.pi / self.L) * (np.fft.fftfreq(self.n) * self.n)

    @property
    def nodes(self):
        return _product(self.axis, self.dimension)

    @property
    def eta_nodes(self):
        return _product(self.eta_axis, self.dimension)

    @property
    def midpoint_axis(self):
        """(x_j + x_k)/2 at index j + k; entry 2j is axis[j] bit for bit."""
        return (self.h / 2.0) * (np.arange(2 * self.n - 1) - self.n)

    @property
    def midpoints(self):
        return _product(self.midpoint_axis, self.dimension)

    @property
    def reflection(self):
        """Flat index of each node's mirror image x -> -x on the lattice,
        j -> -j mod n per axis. On the dual frequencies in DFT order the same
        map sends eta to -eta (the unpaired -n/2 to itself)."""
        r = -np.arange(self.n) % self.n
        if self.dimension == 1:
            return r
        return (r[:, None] * self.n + r[None, :]).ravel()

    @property
    def nyquist(self):
        return np.pi * self.n / (2.0 * self.L)


@dataclass
class GridFunction:
    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if self.values.size != self.grid.size:
            raise ConfigError("value vector length does not match grid")

    def l2_norm(self):
        return float(self.grid.h ** (self.grid.dimension / 2.0)
                     * np.linalg.norm(self.values))


@dataclass
class OperatorMatrix:
    """Dense operator with its grid and Hermiticity bookkeeping."""

    entries: np.ndarray
    grid: Grid
    symbol_id: str = ""
    hermiticity_defect: float = 0.0
    symmetrized: bool = False

    def apply(self, u):
        return GridFunction(self.entries @ u.values, self.grid)


def _finite(values, points, what):
    """The factor values on `points`; AssemblyError names the first point
    where one is not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise AssemblyError(f"non-finite symbol factor {what} {points[np.argmax(bad)]}")
    return values


def hermitize(op):
    """(H + H*)/2 with the pre-symmetrization defect recorded; idempotent.

    A result whose imaginary part is roundoff, max|Im| <= REAL_TOL max|H|, is
    stored as float64: a zero-field operator with a real symbol even in eta is
    real symmetric, and numpy and LAPACK then take their real paths on it.
    """
    if op.symmetrized:
        return op
    H = op.entries
    Ha = H.conj().T
    scale = np.linalg.norm(H)
    defect = float(np.linalg.norm(H - Ha) / scale) if scale > 0 else 0.0
    Hs = H + Ha
    del Ha
    Hs *= 0.5
    if np.iscomplexobj(Hs) and np.abs(Hs.imag).max() <= REAL_TOL * np.abs(Hs).max():
        Hs = np.ascontiguousarray(Hs.real)
    return OperatorMatrix(Hs, op.grid, op.symbol_id,
                          hermiticity_defect=defect, symmetrized=True)


class WeylFactors:
    """The factor stage of `op_weyl`: `_kernels.weyl_slabs`'s arguments and
    the Hermiticity defect; `operator` gathers H from them, and `slabs`
    gives H's row slabs with H never formed.

    On each axis where f is even on the lattice, fhat is made even on that
    axis bit for bit (the FFT leaves roundoff asymmetry); even factors and
    phases then give an H that commutes exactly with the reflection, and a
    field on axis 0 in a gauge centred on the lattice an H that conjugation
    maps to its x_2 reflection exactly. fhat is then replaced by its
    Hermitian part (fhat + conj fhat o P)/2; `defect` records
    |fhat - conj fhat o P| / |fhat|, the part removed (roundoff for a real
    f). With zero field and no shift there is no phase, and a fhat whose
    imaginary part is at most REAL_TOL max|fhat| is stored real: H is float64.
    """

    def __init__(self, sym, g, grid):
        if sym.dimension != grid.dimension or g.dimension != grid.dimension:
            raise ConfigError("dimension mismatch between symbol, gauge, and grid")
        n, d = grid.n, grid.dimension
        etas = grid.eta_nodes
        fvals = _finite(sym.f(etas), etas, "f at frequency")
        fhat = np.fft.ifftn(fvals.reshape((n,) * d)).reshape(-1)
        flip = -np.arange(n) % n
        F, Fh = fvals.reshape((n,) * d), fhat.reshape((n,) * d)
        for ax in range(d):
            if np.array_equal(np.take(F, flip, axis=ax), F):
                Fh += np.take(Fh, flip, axis=ax)
                Fh *= 0.5
        mirrored = fhat[grid.reflection].conj()
        scale = np.linalg.norm(fhat)
        self.defect = float(np.linalg.norm(fhat - mirrored) / scale) if scale > 0 else 0.0
        # fhat[P m] == conj fhat[m] bit for bit: complex addition commutes
        fhat += mirrored
        fhat *= 0.5
        self.phase = grid_phase(g, grid)
        if self.phase is None and np.abs(fhat.imag).max() <= REAL_TOL * np.abs(fhat).max():
            fhat = fhat.real
        self.grid, self.symbol_id, self.fhat = grid, sym.symbol_id, fhat.reshape((n,) * d)
        self.gmid = self.v = None
        if sym.g is not None:
            mids = grid.midpoints
            self.gmid = _finite(sym.g(mids), mids, "g at midpoint").reshape((2 * n - 1,) * d)
        if sym.v is not None:
            nodes = grid.nodes
            self.v = _finite(sym.v(nodes), nodes, "v at node")

    @property
    def real(self):
        """H is float64: fhat was stored real."""
        return not np.iscomplexobj(self.fhat)

    def _args(self):
        return self.fhat, self.phase, self.grid.n, self.grid.dimension, self.gmid, self.v

    def slabs(self):
        """H's row slabs over the leading index (`_kernels.weyl_slabs`)."""
        return _kernels.weyl_slabs(*self._args())

    def operator(self):
        """H, written once from the same slabs (`_kernels.weyl_gather`)."""
        return OperatorMatrix(_kernels.weyl_gather(*self._args()), self.grid, self.symbol_id,
                              hermiticity_defect=self.defect, symmetrized=True)


def op_weyl(sym, g, grid):
    """Quantize a real symbol against a gauge: an exactly Hermitian H from
    one gather of its `WeylFactors`."""
    return WeylFactors(sym, g, grid).operator()


def op_amplitude(amp, g, grid):
    """Quantize a three-argument amplitude amp(x, y, eta), symmetric in
    (x, y), by direct frequency summation per matrix entry (O(n^{3d});
    guarded by a size budget).

    The amplitudes the package quantizes depend on x and y only through
    x + y and <eps x> + <eps y>: the midpoint amplitude a((x + y)/2, eta)
    and the conjugation amplitude c_eps. So amp(x_j, x_k, .) and
    amp(x_k, x_j, .) are the same samples, bit for bit, and each unordered
    node pair j <= k is evaluated once. One serial pass takes the pairs in
    blocks of about AMPLITUDE_BLOCK samples: one amp call and one batched
    inverse DFT per block, H[j, k] read at the lattice displacement j - k
    and H[k, j] at k - j, each times its own omega when the gauge has
    phases. omega is `op_weyl`'s, gathered whole from `gauge.grid_phase`:
    one N x N matrix, N <= 2154 under the budget. Before assembly,
    amp(x_0, y, .) is compared with amp(y, x_0, .) on every node y; a
    difference above SYMMETRY_TOL max|amp| raises AssemblyError.
    """
    if g.dimension != grid.dimension:
        raise ConfigError("dimension mismatch between gauge and grid")
    n, d = grid.n, grid.dimension
    if grid.size**3 > AMPLITUDE_BUDGET:
        raise BudgetError(
            f"n^(3d) = {grid.size ** 3:.3g} exceeds the amplitude budget "
            f"{AMPLITUDE_BUDGET:.3g}; use a coarser grid")
    phase = grid_phase(g, grid)  # refuses before any sample is taken
    if phase is not None:
        omega = _kernels.weyl_gather(np.ones((n,) * d, dtype=complex), phase, n, d)
    N = grid.size
    nodes = grid.nodes
    etas = grid.eta_nodes[None, :, :]
    row = amp(nodes[0], nodes[:, None, :], etas)
    asym = float(np.abs(row - amp(nodes[:, None, :], nodes[0], etas)).max())
    if asym > SYMMETRY_TOL * np.abs(row).max():
        raise AssemblyError(
            f"amplitude is not symmetric in (x, y): amp(x, y) and amp(y, x) "
            f"differ by {asym:.3e} at x = {nodes[0]}")
    H = np.empty((N, N), dtype=complex)
    rows, cols = np.triu_indices(N)
    step = max(1, AMPLITUDE_BLOCK // N)
    for s in range(0, rows.size, step):
        j, k = rows[s:s + step], cols[s:s + step]
        M = amp(nodes[j, None], nodes[k, None], etas)
        forward, backward = _kernels.amplitude_pairs(M, j, k, n, d)
        if phase is not None:
            forward = omega[j, k] * forward
            backward = omega[k, j] * backward
        H[j, k] = forward
        H[k, j] = backward
    if not np.all(np.isfinite(H)):
        raise AssemblyError("amplitude produced non-finite operator entries")
    return OperatorMatrix(H, grid, symbol_id="amplitude")


def op_ps(s, g, grid):
    """Quantization of the weight symbol <eta>^s; Hermitian by construction."""
    return op_weyl(p_s_symbol(s, grid.dimension), g, grid)


def sobolev_norm(u, s, g, ps_operator=None):
    """sqrt(||u||^2 + ||P_s u||^2) in the discrete L^2 norm (s >= 0)."""
    if s < 0:
        raise NotApplicableError("dual-order norms are out of scope")
    if ps_operator is None:
        ps_operator = op_ps(s, g, u.grid)
    base = u.l2_norm()
    psu = ps_operator.apply(u).l2_norm()
    return float(np.sqrt(base**2 + psu**2))


def mag_derivative(alpha, u, g):
    """(D - A)^alpha u with D = -i d/dx by spectral differentiation and A as
    pointwise multiplication; rightmost factor applies first."""
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    grid = u.grid
    d = grid.dimension
    if len(alpha) != d:
        raise ConfigError("multi-index length must match dimension")
    if sum(alpha) > 4:
        raise UnsupportedOrderError("covariant derivative order capped at 4")
    shape = (grid.n,) * d
    vals = u.values.reshape(shape)
    Avals = g.potential(grid.nodes).reshape(shape + (d,))
    eta = grid.eta_axis
    for axis in range(d - 1, -1, -1):
        mult = eta if d == 1 else np.expand_dims(eta, axis=1 - axis)
        for _ in range(alpha[axis]):
            Du = np.fft.ifft(mult * np.fft.fft(vals, axis=axis), axis=axis)
            vals = Du - Avals[..., axis] * vals
    return GridFunction(vals.ravel(), grid)


def fourier_mode(grid, k_multi):
    """Unit plane wave e^{i <eta_k, x>} for an integer frequency multi-index."""
    k_multi = tuple(int(k) for k in np.atleast_1d(k_multi))
    eta = (np.pi / grid.L) * np.asarray(k_multi, dtype=float)
    vals = np.exp(1j * (grid.nodes * eta).sum(axis=-1))
    return GridFunction(vals, grid)
