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
    """Riesz projector P = Q S Q^* held in the tridiagonal basis.

    `S` is the real symmetric quadrature sum on T = Q^* H Q. Q is unitary,
    so |P^2 - P|_F = |S^2 - S|_F and P has the eigenvalues of S: both checks
    are computed on S. `reflectors` and `tau` are the `sytrd` (real H) or
    `hetrd` (complex H) output that encodes Q, in the dtype of H.
    """

    S: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    idempotency_defect: float
    rank: int

    def matrix(self):
        """P = Q S Q^*, with Q built from the stored reflectors."""
        if self.S.shape[0] == 1:  # Q = 1; the orghr wrapper rejects an empty tau
            return self.S.astype(self.reflectors.dtype)
        # lower sytrd/hetrd store their reflectors in the gehrd layout that
        # orghr reads; scipy resolves "orghr" to unghr for complex reflectors
        orghr = sla.get_lapack_funcs("orghr", (self.reflectors,))
        Q = orghr(self.reflectors, self.tau)[0]
        return (Q @ self.S) @ Q.conj().T


def riesz_projector(H, center, radius):
    """Trapezoidal contour quadrature of (2 pi i)^{-1} oint (mu - H)^{-1} dmu.

    Hermitian H is reduced once by LAPACK `sytrd` (real H) or `hetrd`
    (complex H) to T = Q^* H Q, real symmetric tridiagonal. The nodes come in
    conjugate pairs mu, conj(mu), and (conj(mu) - T)^{-1} = conj((mu - T)^{-1})
    for real T, so half the nodes give the real sum
    S = (2 / nodes) sum Re(step (mu - T)^{-1}), one banded solve each. The
    displayed orientation (mu - H)^{-1} is fixed by requiring P^2 = P.
    """
    mat = H.entries if isinstance(H, OperatorMatrix) else np.asarray(H)
    if not _hermitian(mat):
        raise NotApplicableError("contour projector needs a Hermitian matrix")
    n = mat.shape[0]
    names = ("hetrd", "hetrd_lwork") if np.iscomplexobj(mat) else ("sytrd", "sytrd_lwork")
    trd, trd_lwork = sla.get_lapack_funcs(names, (mat,))
    lwork = int(trd_lwork(n, lower=1)[0].real)
    reflectors, diag, off, tau, _ = trd(mat, lower=1, lwork=lwork)
    lam = sla.eigvalsh_tridiagonal(diag, off)
    dist = np.abs(np.abs(lam - center) - radius)
    if dist.min() < 0.1 * radius:
        raise ContourError(
            f"eigenvalue {lam[np.argmin(dist)]:.6g} within 10% of the contour")
    theta = 2.0 * np.pi * (np.arange(CONTOUR_NODES // 2) + 0.5) / CONTOUR_NODES
    bands = np.zeros((3, n), dtype=complex)   # mu - T in solve_banded layout
    bands[0, 1:] = -off
    bands[2, :-1] = -off
    S = np.zeros((n, n))
    eye = np.eye(n, dtype=complex)
    for th in theta:
        step = radius * np.exp(1j * th)
        bands[1] = center + step - diag
        S += (step * sla.solve_banded((1, 1), bands, eye, check_finite=False)).real
    S *= 2.0 / CONTOUR_NODES
    idem = float(np.linalg.norm(S @ S - S))
    rank = int((np.abs(np.linalg.eigvalsh(S)) > RANK_THRESHOLD).sum())
    return ContourProjector(S, reflectors, tau, idem, rank)
