"""Dense Hermitian eigensolving, resolvents, semigroups, relative bounds,
and contour spectral projectors."""
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError, ContourError, NotApplicableError, SingularShiftError
from .quantize import GridFunction, OperatorMatrix

MIN_SHIFT_DISTANCE = 1e-10  # resolvent shifts closer than this to the spectrum are refused
CONTOUR_NODES = 32          # trapezoidal nodes of the Riesz projector contour
RANK_THRESHOLD = 0.5        # projector singular values above this count toward its rank


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray      # ascending
    eigenvectors: np.ndarray     # unitary columns
    residual: float

    def __iter__(self):
        return iter((self.eigenvalues, self.eigenvectors))


def eig_hermitian(op):
    """Full LAPACK decomposition of a symmetrized operator."""
    if isinstance(op, OperatorMatrix):
        if not op.symmetrized:
            defect = float(np.linalg.norm(op.entries - op.entries.conj().T)
                           / max(np.linalg.norm(op.entries), 1e-300))
            if defect > 1e-12:
                raise NotApplicableError(
                    f"matrix not symmetrized (defect {defect:.3e}); hermitize first")
        H = op.entries
    else:
        H = np.asarray(op)
    lam, V = np.linalg.eigh(H)
    scale = max(float(np.abs(lam).max()), 1e-300)
    residual = float(np.linalg.norm(H @ V - V * lam[None, :], axis=0).max() / scale)
    return EigenDecomposition(lam, V, residual)


@dataclass(frozen=True)
class SpectralWindow:
    """Below essential_threshold - margin counts as discrete spectrum."""

    essential_threshold: float
    margin: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.essential_threshold) and math.isfinite(self.margin)):
            raise ConfigError("threshold and margin must be finite")
        if self.margin <= 0:
            raise NotApplicableError("margin must be positive")


def discrete_spectrum_select(dec, win):
    """Eigenpairs below the window cutoff, each with its spectral gap."""
    lam = dec.eigenvalues
    cutoff = win.essential_threshold - win.margin
    out = []
    for i, lv in enumerate(lam):
        if lv >= cutoff:
            break
        gaps = np.abs(np.delete(lam, i) - lv)
        gap = float(gaps.min()) if gaps.size else np.inf
        out.append((float(lv), dec.eigenvectors[:, i], gap))
    return out


def resolvent_apply(H, z, w):
    """Solve (H - z) u = w by LU with partial pivoting.

    The factorization's condition estimate guards against shifts closer than
    MIN_SHIFT_DISTANCE to the spectrum; the solve is also residual-checked.
    """
    mat = H.entries if isinstance(H, OperatorMatrix) else np.asarray(H)
    grid = H.grid if isinstance(H, OperatorMatrix) else None
    rhs = w.values if isinstance(w, GridFunction) else np.asarray(w, dtype=complex)
    A = (mat - z * np.eye(mat.shape[0])).astype(complex)
    lu, piv = sla.lu_factor(A)
    anorm = float(np.linalg.norm(A, 1))
    rcond = float(sla.lapack.zgecon(lu, anorm)[0])
    if rcond * anorm < MIN_SHIFT_DISTANCE:  # sigma_min estimate for normal A
        lam = np.linalg.eigvalsh(mat) if _hermitian(mat) else np.linalg.eigvals(mat)
        nearest = lam[np.argmin(np.abs(lam - z))]
        raise SingularShiftError(
            f"shift {z} within {rcond * anorm:.3e} of the spectrum",
            nearest_eigenvalue=complex(nearest))
    u = sla.lu_solve((lu, piv), rhs)
    res = float(np.linalg.norm(A @ u - rhs) / max(np.linalg.norm(rhs), 1e-300))
    if res > 1e-9:
        lam = np.linalg.eigvalsh(mat) if _hermitian(mat) else np.linalg.eigvals(mat)
        nearest = lam[np.argmin(np.abs(lam - z))]
        raise SingularShiftError(
            f"solve residual {res:.3e} for shift {z}",
            nearest_eigenvalue=complex(nearest))
    if grid is not None and isinstance(w, GridFunction):
        return GridFunction(u, grid)
    return u


def _hermitian(mat, tol=1e-10):
    return np.linalg.norm(mat - mat.conj().T) <= tol * max(np.linalg.norm(mat), 1e-300)


def matrix_exp_neg(H, t):
    """exp(-t H) through the eigendecomposition (t >= 0)."""
    if t < 0:
        raise NotApplicableError("t must be nonnegative")
    dec = eig_hermitian(H)
    lam, V = dec.eigenvalues, dec.eigenvectors
    return (V * np.exp(-t * lam)[None, :]) @ V.conj().T


def relative_bound(R, H, z=1j):
    """Spectral norm of R (H - z)^{-1}, computed exactly from H = V diag(lam) V^*:
    R (H - z)^{-1} = R V diag(1/(lam - z)) V^*, and the unitary V^* drops out.

    H may also be given as its EigenDecomposition, so that a sweep over many
    R decomposes it once.
    """
    Rm = R.entries if isinstance(R, OperatorMatrix) else np.asarray(R)
    if not Rm.any():
        return 0.0
    lam, V = H if isinstance(H, EigenDecomposition) else eig_hermitian(H)
    return float(np.linalg.norm((Rm @ V) / (lam - z)[None, :], 2))


def riesz_projector(H, center, radius):
    """Trapezoidal contour quadrature of (2 pi i)^{-1} oint (mu - H)^{-1} dmu.

    Hermitian H is reduced once to its Hessenberg form T = Q^* H Q, which is
    tridiagonal; each node then costs one banded solve (mu - T)^{-1}, and the
    quadrature sum S gives P = Q S Q^*. The displayed orientation
    (mu - H)^{-1} is fixed by requiring P^2 = P.
    """
    mat = H.entries if isinstance(H, OperatorMatrix) else np.asarray(H)
    if not _hermitian(mat):
        raise NotApplicableError("contour projector needs a Hermitian matrix")
    n = mat.shape[0]
    T, Q = sla.hessenberg(mat, calc_q=True)
    diag, sub = T.diagonal(), T.diagonal(-1)
    lam = sla.eigvalsh_tridiagonal(diag.real, np.abs(sub))
    dist = np.abs(np.abs(lam - center) - radius)
    if dist.min() < 0.1 * radius:
        raise ContourError(
            f"eigenvalue {lam[np.argmin(dist)]:.6g} within 10% of the contour")
    theta = 2.0 * np.pi * (np.arange(CONTOUR_NODES) + 0.5) / CONTOUR_NODES
    bands = np.zeros((3, n), dtype=complex)   # mu - T in solve_banded layout
    bands[0, 1:] = -T.diagonal(1)
    bands[2, :-1] = -sub
    S = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for th in theta:
        step = radius * np.exp(1j * th)
        bands[1] = center + step - diag
        S += step * sla.solve_banded((1, 1), bands, eye, check_finite=False)
    return (Q @ S @ Q.conj().T) / CONTOUR_NODES


def projector_rank(P):
    """Rank by counting singular values above RANK_THRESHOLD."""
    return int((np.linalg.svd(P, compute_uv=False) > RANK_THRESHOLD).sum())
