"""Dense Hermitian eigensolving, semigroups, relative bounds, and contour
spectral projectors."""
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContourError, NotApplicableError
from .quantize import OperatorMatrix

CONTOUR_NODES = 32          # trapezoidal nodes of the Riesz projector contour
HERMITIAN_TOL = 1e-12       # relative Hermiticity defect below which a matrix counts as Hermitian
RANK_THRESHOLD = 0.5        # projector eigenvalues above this in modulus count toward its rank


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray      # ascending
    eigenvectors: np.ndarray     # unitary columns
    residual: float

    def __iter__(self):
        return iter((self.eigenvalues, self.eigenvectors))


def hermiticity_defect(mat):
    """Relative Frobenius defect |A - A^*| / |A| of a square matrix.

    A is scaled to largest modulus 1 first, so no norm overflows; a matrix
    with a non-finite entry has defect inf.
    """
    top = float(np.abs(mat).max())
    if top == 0.0:
        return 0.0
    if not math.isfinite(top):
        return math.inf
    A = mat / top
    return float(np.linalg.norm(A - A.conj().T) / np.linalg.norm(A))


def eig_hermitian(op):
    """Full LAPACK decomposition of a symmetrized operator."""
    if isinstance(op, OperatorMatrix):
        if not op.symmetrized:
            defect = hermiticity_defect(op.entries)
            if defect > HERMITIAN_TOL:
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

    The diagonal is replaced by diag(1/|lam - z|): the two differ by the
    unitary right factor diag(|lam - z| / (lam - z)), which leaves singular
    values unchanged, so the norm is the same and R V stays real for real R
    and V.

    H may also be given as its EigenDecomposition, so that a sweep over many
    R decomposes it once.
    """
    Rm = R.entries if isinstance(R, OperatorMatrix) else np.asarray(R)
    if not Rm.any():
        return 0.0
    lam, V = H if isinstance(H, EigenDecomposition) else eig_hermitian(H)
    return float(np.linalg.norm((Rm @ V) / np.abs(lam - z)[None, :], 2))


@dataclass(frozen=True)
class ContourProjector:
    """Riesz projector P = V diag(filter) V^* on the eigenbasis of H.

    `filter` holds the quadrature's value r(lam) at each eigenvalue. V is
    unitary, so |P^2 - P|_F = |r^2 - r|_2 and P has the eigenvalues r(lam):
    both checks are computed on `filter`. `eigenvectors` is the
    decomposition's V, shared and not copied.
    """

    eigenvectors: np.ndarray
    filter: np.ndarray
    idempotency_defect: float
    rank: int

    def matrix(self):
        """P = V diag(filter) V^*."""
        V = self.eigenvectors
        return (V * self.filter[None, :]) @ V.conj().T


def riesz_projector(H, center, radius):
    """Trapezoidal contour quadrature of (2 pi i)^{-1} oint (mu - H)^{-1} dmu.

    With H = V diag(lam) V^*, (mu - H)^{-1} = V diag(1/(mu - lam)) V^*, so
    the quadrature is the scalar rational filter
    r(lam) = 1 / (1 + ((lam - center) / radius)^CONTOUR_NODES) applied to the
    eigenvalues. The nodes come in conjugate pairs mu, conj(mu), so half of
    them give r(lam) = (2 / nodes) sum Re(step / (mu - lam)). The displayed
    orientation (mu - H)^{-1} is fixed by requiring P^2 = P.

    H may also be given as its EigenDecomposition, so that a scenario that
    has decomposed H does not decompose it again.
    """
    if not (math.isfinite(center) and math.isfinite(radius) and radius > 0):
        raise ContourError(f"contour needs a finite center and a finite positive "
                           f"radius, got center {center}, radius {radius}")
    if not isinstance(H, EigenDecomposition):
        mat = H.entries if isinstance(H, OperatorMatrix) else np.asarray(H)
        if hermiticity_defect(mat) > HERMITIAN_TOL:
            raise NotApplicableError("contour projector needs a Hermitian matrix")
        H = eig_hermitian(mat)
    lam, V = H
    dist = np.abs(np.abs(lam - center) - radius)
    if dist.min() < 0.1 * radius:
        raise ContourError(
            f"eigenvalue {lam[np.argmin(dist)]:.6g} within 10% of the contour")
    theta = 2.0 * np.pi * (np.arange(CONTOUR_NODES // 2) + 0.5) / CONTOUR_NODES
    step = radius * np.exp(1j * theta)
    r = (2.0 / CONTOUR_NODES) * (
        step[None, :] / (center + step[None, :] - lam[:, None])).real.sum(axis=1)
    idem = float(np.linalg.norm(r * r - r))
    rank = int((np.abs(r) > RANK_THRESHOLD).sum())
    return ContourProjector(V, r, idem, rank)
