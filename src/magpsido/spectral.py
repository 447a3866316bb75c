"""Dense Hermitian eigensolving, discrete-spectrum selection, semigroups and
relative bounds."""
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotApplicableError
from .quantize import OperatorMatrix

HERMITIAN_TOL = 1e-12       # relative Hermiticity defect below which a matrix counts as Hermitian


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


def _hermitian_entries(op):
    """The matrix of an operator, refused when it is an unsymmetrized
    OperatorMatrix whose Hermiticity defect exceeds HERMITIAN_TOL."""
    if not isinstance(op, OperatorMatrix):
        return np.asarray(op)
    if not op.symmetrized:
        defect = hermiticity_defect(op.entries)
        if defect > HERMITIAN_TOL:
            raise NotApplicableError(
                f"matrix not symmetrized (defect {defect:.3e}); hermitize first")
    return op.entries


def eig_hermitian(op):
    """Full LAPACK decomposition of a symmetrized operator."""
    H = _hermitian_entries(op)
    lam, V = np.linalg.eigh(H)
    scale = max(float(np.abs(lam).max()), 1e-300)
    residual = float(np.linalg.norm(H @ V - V * lam[None, :], axis=0).max() / scale)
    return EigenDecomposition(lam, V, residual)


def eigvals_hermitian(op):
    """Ascending eigenvalues of a symmetrized operator, with no eigenvectors
    (LAPACK's eigenvalue-only path, about a third of the time of `eigh`)."""
    return np.linalg.eigvalsh(_hermitian_entries(op))


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

    def below(self, eigenvalues):
        """Indices of the `eigenvalues` below the cutoff, in their order."""
        return np.flatnonzero(eigenvalues < self.essential_threshold - self.margin)


def nearest_gaps(eigenvalues):
    """Distance from each of the ascending `eigenvalues` (at least two) to
    the nearest other one: the smaller of its two neighbour differences."""
    step = np.diff(eigenvalues)
    return np.minimum(np.append(np.inf, step), np.append(step, np.inf))


def discrete_spectrum_select(dec, win):
    """Eigenpairs below the window cutoff, each with its spectral gap."""
    lam = dec.eigenvalues
    gaps = nearest_gaps(lam)
    return [(float(lam[i]), dec.eigenvectors[:, i], float(gaps[i])) for i in win.below(lam)]


def matrix_exp_neg(H, t):
    """exp(-t H) through the eigendecomposition (t >= 0); H may also be
    given as its EigenDecomposition."""
    if t < 0:
        raise NotApplicableError("t must be nonnegative")
    lam, V = H if isinstance(H, EigenDecomposition) else eig_hermitian(H)
    return (V * np.exp(-t * lam)[None, :]) @ V.conj().T


def relative_bound(R, H, z=1j):
    """Spectral norm of R (H - z)^{-1}, computed exactly from H = V diag(lam) V^*:
    R (H - z)^{-1} = R V diag(1/(lam - z)) V^*, and the unitary V^* drops out.

    The diagonal is replaced by diag(1/|lam - z|): the two differ by the
    unitary right factor diag(|lam - z| / (lam - z)), which leaves singular
    values unchanged, so the norm is the same and M = R V diag(1/|lam - z|)
    stays real for real R and V. The norm is the square root of the largest
    eigenvalue of the Gram matrix M^* M, which an eigenvalue-only solve gives
    in under half the time of the SVD behind `np.linalg.norm(M, 2)`.

    H may also be given as its EigenDecomposition, so that a sweep over many
    R decomposes it once.
    """
    Rm = R.entries if isinstance(R, OperatorMatrix) else np.asarray(R)
    if not Rm.any():
        return 0.0
    lam, V = H if isinstance(H, EigenDecomposition) else eig_hermitian(H)
    M = (Rm @ V) / np.abs(lam - z)[None, :]
    top = np.linalg.eigvalsh(M.conj().T @ M)[-1]
    return math.sqrt(max(float(top), 0.0))
