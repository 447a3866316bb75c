"""Square-root kinetic semigroup: explicit convolution kernel, modified
Bessel evaluators, smeared-potential (Kato-type) estimates and the
pointwise eigenfunction bound chain.

Kernel convention: kernel_t generates exp(-t H0) for H0 = sqrt(1 - Laplace),
so its integral equals e^{-t} and its Fourier transform is e^{-t <eta>}.
"""
import math

import numpy as np

from .errors import ConfigError, NotApplicableError
from .quadrature import gauss_legendre_0t
from .spectral import matrix_exp_neg
from .symbols import bracket

KATO_QUAD_ORDER = 16      # Gauss-Legendre nodes for the s-integral of kato_estimate
CHAIN_BAND_FRAC = 0.5     # kernel envelope fitted on |x - y| <= CHAIN_BAND_FRAC * L


# ---------------------------------------------------------------------------
# modified Bessel K for integer and half-integer orders
# ---------------------------------------------------------------------------

def bessel_k(nu, z):
    """K_nu(z) for z > 0 and integer or half-integer nu >= 0 (scipy.special.kv)."""
    if nu < 0 or abs(2.0 * nu - round(2.0 * nu)) > 1e-12:
        raise ConfigError("order must satisfy 2 nu in N")
    z = np.asarray(z, dtype=float)
    if (z <= 0).any():
        raise ConfigError("argument must be positive")
    # deferred: importing scipy.special after numpy takes 0.20-0.28 s in a
    # fresh process (-X importtime, scipy 1.17, 2 cores), and only the
    # kernel paths need it
    from scipy.special import kv

    out = kv(nu, z)
    return float(out) if z.ndim == 0 else out


# ---------------------------------------------------------------------------
# semigroup kernel
# ---------------------------------------------------------------------------

def kernel_pt(t, x, d):
    """Convolution kernel of exp(-t sqrt(1 - Laplace)) in d dimensions:

        p_t(x) = (2 pi)^{-(d+1)/2} 2 t (|x|^2 + t^2)^{-(d+1)/4}
                 K_{(d+1)/2}(sqrt(|x|^2 + t^2)).

    Positions carry a trailing axis of length d. Integral over R^d is e^{-t}.
    """
    if not (t > 0 and math.isfinite(t)):  # also rejects NaN
        raise NotApplicableError("t must be positive and finite")
    x = np.asarray(x, dtype=float)
    r2 = (x * x).sum(axis=-1) + t * t
    nu = (d + 1) / 2.0
    root = np.sqrt(r2)
    return ((2.0 * np.pi) ** (-(d + 1) / 2.0) * 2.0 * t
            * r2 ** (-(d + 1) / 4.0) * bessel_k(nu, root))


def displacement_lattice(grid):
    """Wrapped displacements z = r h in DFT index order, trailing axis d."""
    n, d = grid.n, grid.dimension
    z_ax = grid.h * (np.fft.fftfreq(n) * n)
    if d == 1:
        return z_ax[:, None]
    Z1, Z2 = np.meshgrid(z_ax, z_ax, indexing="ij")
    return np.stack([Z1, Z2], axis=-1)


def semigroup_checks(t, s, grid):
    """Three kernel diagnostics on the grid:

    conv:  max relative error of the lattice convolution p_t * p_s against
           p_{t+s} on |z| <= L/2;
    fourier: max error of the lattice transform of p_t against e^{-t <eta>}
           on the low-frequency quarter;
    mass:  |h^d sum p_t - e^{-t}|.
    """
    if not (t > 0 and s > 0 and math.isfinite(t + s)):  # also rejects NaN
        raise NotApplicableError("t and s must be positive and finite")
    # each array is released as soon as its residual is taken; the budget
    # guard of the CLI charges the measured peak (cli.WORK_ARRAYS)
    d = grid.dimension
    hd = grid.h**d
    Z = displacement_lattice(grid)
    pt = kernel_pt(t, Z, d)
    mass_res = float(abs(hd * pt.sum() - math.exp(-t)))
    ft = np.fft.fftn(pt)
    del pt
    br = bracket(grid.eta_nodes).reshape(ft.shape)
    low = br <= 1.0 + grid.nyquist / 4.0
    fourier_res = float(np.abs(hd * ft.real[low] - np.exp(-t * br[low])).max())
    del br, low
    ft *= np.fft.fftn(kernel_pt(s, Z, d))
    conv = np.fft.ifftn(ft, out=ft).real
    conv *= hd
    window = np.sqrt((Z * Z).sum(axis=-1)) <= grid.L / 2.0
    pts = kernel_pt(t + s, Z, d)[window]
    del Z
    conv_res = float(np.abs(conv[window] - pts).max() / pts.max())
    return {"conv": conv_res, "fourier": fourier_res, "mass": mass_res}


# ---------------------------------------------------------------------------
# Kato-type smeared estimate
# ---------------------------------------------------------------------------

def _as_node_values(W, grid):
    vals = np.asarray(W, dtype=float).reshape(-1)
    if vals.shape[0] != grid.size:
        raise ConfigError("potential values do not match the grid")
    if not np.all(np.isfinite(vals)):
        raise ConfigError("non-finite potential value at a node; "
                          "declare a singularity and pass cell averages")
    return vals


def kato_estimate(W, t, grid):
    """sup_x int_0^t (exp(-s H0) W)(x) ds on the periodic grid.

    The semigroup acts spectrally (multiplier e^{-s <eta>} on the dual
    lattice), which keeps the flat-potential identity
    int_0^t e^{-s} ds = 1 - e^{-t} exact uniformly in s.
    """
    if not (t > 0 and math.isfinite(t)):  # also rejects NaN
        raise NotApplicableError("t must be positive and finite")
    vals = _as_node_values(W, grid)
    if (vals < 0).any():
        raise ConfigError("Kato estimate expects W >= 0")
    shape = (grid.n,) * grid.dimension
    what = np.fft.fftn(vals.reshape(shape))
    br = bracket(grid.eta_nodes).reshape(shape)
    nodes, weights = gauss_legendre_0t(KATO_QUAD_ORDER, t)
    acc = np.zeros(shape)
    for s, w in zip(nodes, weights):
        acc += w * np.fft.ifftn(np.exp(-s * br) * what).real
    return float(acc.max())


def kato_scan(W, t0, grid, halvings=6):
    """Rows (t, sup_value) for t = t0 / 2^k; the limit t -> 0 diagnoses the
    smeared-potential class."""
    if halvings < 0:
        raise ConfigError(f"halvings must be >= 0, got {halvings}")
    rows = []
    t = float(t0)
    for _ in range(halvings + 1):
        rows.append((t, kato_estimate(W, t, grid)))
        t /= 2.0
    return rows


# ---------------------------------------------------------------------------
# pointwise eigenfunction bound chain
# ---------------------------------------------------------------------------

def pointwise_bound_check(dec, eps, p, grid):
    """Grid verification of the pointwise decay chain for the ground pair
    (lam, u) of `dec`, the EigenDecomposition of a comparison operator
    H(0, -V_minus) (zero field, v <= 0):

    (i) the kernel exp(-H)/h^d is entrywise above -1e-10 and below
        C_p e^{-<x-y>/p} with C_p fitted on the band |x - y| <= CHAIN_BAND_FRAC * L;
    (ii) sup_x f_eps(x) |u(x)| <= C_p e^lam (int e^{-2|z|(1/p - eps)} dz)^{1/2}
        ||f_eps u||, all integrals by grid sums.

    Requires eps < 1/p.
    """
    if eps >= 1.0 / p:
        raise ConfigError("chain needs eps < 1/p")
    d = grid.dimension
    hd = grid.h**d
    lam = float(dec.eigenvalues[0])
    uvec = np.asarray(dec.eigenvectors[:, 0], dtype=complex)
    uvec = uvec / (np.linalg.norm(uvec) * grid.h ** (d / 2.0))  # discrete L2 = 1
    kern = matrix_exp_neg(dec, 1.0).real / hd
    kernel_min = float(kern.min())
    nodes = grid.nodes
    diff = nodes[:, None, :] - nodes[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    band = dist <= CHAIN_BAND_FRAC * grid.L
    envelope = np.exp(-np.sqrt(1.0 + dist**2) / p)
    C_hat = float((kern[band] / envelope[band]).max())
    fw = np.exp(bracket(eps * nodes) - 1.0)
    lhs = float((fw * np.abs(uvec)).max())
    decay_mass = hd * float(np.sum(np.exp(-2.0 * np.sqrt((nodes**2).sum(-1))
                                          * (1.0 / p - eps))))
    weighted_norm = float(np.sqrt(hd * np.sum((fw * np.abs(uvec)) ** 2)))
    rhs = C_hat * math.exp(lam) * math.sqrt(decay_mass) * weighted_norm
    return {
        "C_hat": C_hat,
        "kernel_min": kernel_min,
        "kernel_margin": 1e-10 + kernel_min,   # positive iff entries > -1e-10
        "chain_lhs": lhs,
        "chain_rhs": rhs,
        "chain_margin": rhs - lhs,
    }
