"""Dense Hermitian eigensolving, discrete-spectrum selection, semigroups and
relative bounds.

An operator that commutes exactly with the grid's lattice reflection P
(x -> -x, j -> -j mod n per axis) is solved as two blocks of about N/2: its
even and odd parts. A zero-field operator of even factors commutes with P: a
symbol with a radial potential and no modulation, with or without an even
gauge shift such as `quadratic`, and its conjugations by a radial weight.
Node -L is its own lattice image, but unwrapped segment phases and midpoints
treat -L and +L as different points, so a magnetic field, the 2-D `bilinear`
shift x_1 x_2 and a midpoint modulation g break the symmetry in the rows of
the nodes with a coordinate -L; such operators take the full solve. The
choice is made by an exact test, `np.array_equal`, never by a tolerance.
"""
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NotApplicableError
from .quantize import OperatorMatrix

HERMITIAN_TOL = 1e-12       # relative Hermiticity defect below which a matrix counts as Hermitian
_ROOT_HALF = math.sqrt(0.5)


class ParityBlocks:
    """C^N split by a grid's lattice reflection P into even and odd vectors.

    Even basis: e_f on each fixed node (P f = f) and (e_a + e_b)/sqrt(2) on
    each pair a < b = P a; odd basis: (e_a - e_b)/sqrt(2). A matrix that
    commutes with P is block diagonal in this orthonormal basis, with
    blocks gathered in O(N^2) from its entries (S = fixed + pairs):

        even = D (A[S, S] + A[S, P S]) D,  D = 1/sqrt(2) on the fixed nodes,
        odd  = A[pairs, pairs] - A[pairs, partners].
    """

    def __init__(self, grid):
        reflection = grid.reflection
        idx = np.arange(len(reflection))
        self.reflection = reflection
        self.fixed = np.flatnonzero(reflection == idx)
        self.pairs = np.flatnonzero(idx < reflection)
        self.partners = reflection[self.pairs]
        self.even_nodes = np.concatenate([self.fixed, self.pairs])
        self.even_partners = np.concatenate([self.fixed, self.partners])

    @property
    def sizes(self):
        """[n_even, n_odd]."""
        return [len(self.even_nodes), len(self.pairs)]

    def commutes(self, A):
        """A P == P A exactly: A[P][:, P] equals A. Row 0 is compared first,
        so most matrices that do not commute are refused in O(N)."""
        P = self.reflection
        return np.array_equal(A[0, P], A[0]) and np.array_equal(A[P][:, P], A)

    def blocks(self, A):
        """(even, odd) blocks of a matrix that commutes with P."""
        nf = len(self.fixed)
        rows = A.take(self.even_nodes, axis=0)
        even = rows.take(self.even_nodes, axis=1)
        even += rows.take(self.even_partners, axis=1)
        even[:nf] *= _ROOT_HALF
        even[:, :nf] *= _ROOT_HALF
        rows = rows[nf:]
        odd = rows.take(self.pairs, axis=1)
        odd -= rows.take(self.partners, axis=1)
        return even, odd

    def vectors(self, even_vecs, odd_vecs, even_cols):
        """Full-length columns of block eigenvectors; `even_cols` marks which
        columns of the result are even."""
        nf = len(self.fixed)
        V = np.zeros((len(self.reflection),) * 2, dtype=np.result_type(even_vecs, odd_vecs))
        ce, co = np.flatnonzero(even_cols), np.flatnonzero(~even_cols)
        _put(V, self.fixed, ce, even_vecs[:nf])
        half = _ROOT_HALF * even_vecs[nf:]
        _put(V, self.pairs, ce, half)
        _put(V, self.partners, ce, half)
        half = _ROOT_HALF * odd_vecs
        _put(V, self.pairs, co, half)
        _put(V, self.partners, co, np.negative(half, out=half))
        return V

    def block_vectors(self, V, even_cols):
        """The block eigenvectors inside full columns V: the inverse of `vectors`."""
        nf = len(self.fixed)
        even = V[np.ix_(self.even_nodes, even_cols)]
        even[nf:] *= math.sqrt(2.0)
        odd = V[np.ix_(self.pairs, ~even_cols)]
        odd *= math.sqrt(2.0)
        return even, odd


def _put(out, rows, cols, values):
    """out[np.ix_(rows, cols)] = values for a C-contiguous `out`, through flat
    indices (a third of the time of the two-index assignment)."""
    out.reshape(-1)[(rows[:, None] * out.shape[1] + cols).ravel()] = values.ravel()


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray      # ascending
    eigenvectors: np.ndarray     # unitary columns
    residual: float
    parity: Optional[ParityBlocks] = None   # set when solved as even and odd blocks
    even_cols: Optional[np.ndarray] = None  # then: which columns are even

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


def parity_blocks(op):
    """The ParityBlocks of an operator on a grid when its matrix commutes
    exactly with the grid's reflection; None otherwise (and for a bare array,
    which has no grid)."""
    if not isinstance(op, OperatorMatrix):
        return None
    blocks = ParityBlocks(op.grid)
    return blocks if blocks.commutes(op.entries) else None


def eig_hermitian(op):
    """Full LAPACK decomposition of a symmetrized operator.

    When the operator commutes with its grid's reflection (`parity_blocks`),
    the even and odd blocks are solved apart, each of size about N/2, for a
    quarter of the flops, and their eigenvectors are expanded to full
    columns. The residual max_i |H v_i - lam_i v_i| / max|lam| is always
    taken against the full H, so it checks the reduction too.
    """
    H = _hermitian_entries(op)
    parity = parity_blocks(op)
    even_cols = None
    if parity is None:
        lam, V = np.linalg.eigh(H)
    else:
        even, odd = parity.blocks(H)
        lam_e, Y_e = np.linalg.eigh(even)
        del even
        lam_o, Y_o = np.linalg.eigh(odd)
        del odd
        lam = np.concatenate([lam_e, lam_o])
        order = np.argsort(lam, kind="stable")
        lam = lam[order]
        even_cols = order < len(lam_e)
        V = parity.vectors(Y_e, Y_o, even_cols)
        del Y_e, Y_o
    scale = max(float(np.abs(lam).max()), 1e-300)
    residual = float(np.linalg.norm(H @ V - V * lam[None, :], axis=0).max() / scale)
    return EigenDecomposition(lam, V, residual, parity, even_cols)


def eigvals_hermitian(op):
    """Ascending eigenvalues of a symmetrized operator, with no eigenvectors
    (LAPACK's eigenvalue-only path, about a third of the time of `eigh`); by
    blocks under the same rule as `eig_hermitian`."""
    H = _hermitian_entries(op)
    parity = parity_blocks(op)
    if parity is None:
        return np.linalg.eigvalsh(H)
    even, odd = parity.blocks(H)
    return np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))


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
    """exp(-t H) = V e^{-t Lambda} V^* through the eigendecomposition
    (t >= 0); H may also be given as its EigenDecomposition. An operator that
    `eig_hermitian` solves by parity blocks gives its expanded V here, so the
    product is the same full one either way."""
    if t < 0:
        raise NotApplicableError("t must be nonnegative")
    lam, V = H if isinstance(H, EigenDecomposition) else eig_hermitian(H)
    return (V * np.exp(-t * lam)[None, :]) @ V.conj().T


def _gram_norm(Rm, V, lam, z):
    """Largest singular value of M = R V diag(1/|lam - z|), from the Gram
    matrix M^* M. M is first scaled by the power of two 2^-e that brings
    max|M| into [1/2, 1): exact, and M^* M then cannot overflow however
    large the weight ratios in R are."""
    M = (Rm @ V) / np.abs(lam - z)[None, :]
    e = int(np.frexp(np.abs(M).max())[1])
    M *= 2.0 ** -e
    top = float(np.linalg.eigvalsh(M.conj().T @ M)[-1])
    return math.ldexp(math.sqrt(max(top, 0.0)), e)


def relative_bound(R, H, z=1j):
    """Spectral norm of R (H - z)^{-1}, computed exactly from H = V diag(lam) V^*:
    R (H - z)^{-1} = R V diag(1/(lam - z)) V^*, and the unitary V^* drops out.

    The diagonal is replaced by diag(1/|lam - z|): the two differ by the
    unitary right factor diag(|lam - z| / (lam - z)), which leaves singular
    values unchanged, so the norm is the same and M = R V diag(1/|lam - z|)
    stays real for real R and V. The norm is the square root of the largest
    eigenvalue of the Gram matrix M^* M, which an eigenvalue-only solve gives
    in under half the time of the SVD behind `np.linalg.norm(M, 2)`.

    When H was solved by parity blocks and R commutes exactly with the same
    reflection (a radial weight conjugation does), R (H - z)^{-1} is block
    diagonal too: the norm is the larger of the two block norms, each from a
    Gram solve of about N/2, for a quarter of the flops.

    H may also be given as its EigenDecomposition, so that a sweep over many
    R decomposes it once.
    """
    Rm = R.entries if isinstance(R, OperatorMatrix) else np.asarray(R)
    if not Rm.any():
        return 0.0
    dec = H if isinstance(H, EigenDecomposition) else eig_hermitian(H)
    lam, V = dec
    if dec.parity is None or not dec.parity.commutes(Rm):
        return _gram_norm(Rm, V, lam, z)
    R_e, R_o = dec.parity.blocks(Rm)
    Y_e, Y_o = dec.parity.block_vectors(V, dec.even_cols)
    return max(_gram_norm(R_e, Y_e, lam[dec.even_cols], z),
               _gram_norm(R_o, Y_o, lam[~dec.even_cols], z))
