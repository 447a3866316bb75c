"""Dense Hermitian eigensolving, discrete-spectrum selection, semigroups and
relative bounds.

Every solve runs over a list of symmetry blocks. An operator that commutes
exactly with the grid's lattice reflection P (x -> -x, j -> -j mod n per
axis) is two blocks of about N/2, its even and odd parts. A zero-field
operator of even factors commutes with P: a symbol with a radial potential
and no modulation, with or without an even gauge shift such as `quadratic`,
and its conjugations by a radial weight. Node -L is its own lattice image,
but unwrapped segment phases and midpoints treat -L and +L as different
points, so a magnetic field, the 2-D `bilinear` shift x_1 x_2 and a
midpoint modulation g break the symmetry in the rows of the nodes with a
coordinate -L.

A complex operator that fails that test may still satisfy
H[R][:, R] == conj(H) for the reflection R of the last axis about the
lattice centre, j' -> n - 1 - j' (x_2 -> -h - x_2). R moves every node and
maps the lattice onto itself as a true mirror: the wrapped displacement of
a pair goes to its negative and its unwrapped segment to the mirrored
segment, so R has no seam. A field on axis 0 in a gauge centred on the
lattice reverses its flux under R, and conjugation reverses it back, so its
potential-free operators are real symmetric matrices in a basis of R-even
and i times R-odd vectors (`ConjugateReflection`), solved in real
arithmetic; on a 2-D grid that block is folded straight from the gather's
row slabs (`slab_blocks`), so an eigenvalue-only solve never forms H. Any
other operator is the one-block case. Each choice is made by an exact test,
`np.array_equal`, never by a tolerance.
"""
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NotApplicableError
from .quantize import OperatorMatrix

HERMITIAN_TOL = 1e-12       # relative Hermiticity defect below which a matrix counts as Hermitian
LANCZOS_TOL = 2.0 ** -46    # Ritz residual, relative to the top Ritz value, at which Lanczos stops
LANCZOS_CHECK = 4           # Lanczos steps between two solves of the tridiagonal matrix
LANCZOS_MIN_ORDER = 128     # fewer columns than this: a dense eigvalsh of M^* M is faster
SYMMETRY_SLAB = 2**16       # entries ConjugateReflection.fold compares at a time
_ROOT_HALF = math.sqrt(0.5)


class Whole:
    """C^N as one block, the matrix itself, with no copy: the symmetry of an
    operator that commutes with no reflection."""

    name = "whole"

    def __init__(self, size):
        self.node_sets = (np.arange(size),)
        self.sizes = [size]

    def invariant(self, f):
        return True

    def blocks(self, A):
        return (A,)

    def vectors(self, block_vecs, order):
        """The block's eigenvectors, ascending already from `eigh`."""
        return block_vecs[0]


class ParityBlocks:
    """C^N split by a grid's lattice reflection P into even and odd vectors.

    Even basis: e_f on each fixed node (P f = f) and (e_a + e_b)/sqrt(2) on
    each pair a < b = P a; odd basis: (e_a - e_b)/sqrt(2). A matrix that
    commutes with P is block diagonal in this orthonormal basis, with
    blocks gathered in O(N^2) from its entries (S = fixed + pairs):

        even = D (A[S, S] + A[S, P S]) D,  D = 1/sqrt(2) on the fixed nodes,
        odd  = A[pairs, pairs] - A[pairs, partners].
    """

    name = "parity"

    def __init__(self, grid):
        reflection = grid.reflection
        idx = np.arange(len(reflection))
        self.reflection = reflection
        self.fixed = np.flatnonzero(reflection == idx)
        self.pairs = np.flatnonzero(idx < reflection)
        self.partners = reflection[self.pairs]
        self.even_nodes = np.concatenate([self.fixed, self.pairs])
        self.even_partners = np.concatenate([self.fixed, self.partners])
        self.node_sets = (self.even_nodes, self.pairs)
        self.sizes = [len(self.even_nodes), len(self.pairs)]

    def commutes(self, A):
        """A P == P A exactly: A[P][:, P] equals A. Row 0 is compared first,
        so most matrices that do not commute are refused in O(N)."""
        P = self.reflection
        return np.array_equal(A[0, P], A[0]) and np.array_equal(A[P][:, P], A)

    def invariant(self, f):
        """P f == f exactly for a grid function f."""
        return np.array_equal(f[self.reflection], f)

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

    def vectors(self, block_vecs, order):
        """Full-length columns of the block eigenvectors (even_vecs, odd_vecs):
        `order`, the argsort of the even then the odd eigenvalues, gives the
        place of each column in the result."""
        even_vecs, odd_vecs = block_vecs
        nf = len(self.fixed)
        V = np.zeros((len(self.reflection),) * 2, dtype=np.result_type(even_vecs, odd_vecs))
        ce, co = np.split(np.argsort(order), [even_vecs.shape[1]])
        _put(V, self.fixed, ce, even_vecs[:nf])
        half = _ROOT_HALF * even_vecs[nf:]
        _put(V, self.pairs, ce, half)
        _put(V, self.partners, ce, half)
        half = _ROOT_HALF * odd_vecs
        _put(V, self.pairs, co, half)
        _put(V, self.partners, co, np.negative(half, out=half))
        return V


class ConjugateReflection:
    """C^N as one real space, for a complex operator with
    H[R][:, R] == conj(H), R the reflection j' -> n - 1 - j' of the grid's
    last axis about the lattice centre.

    A node is (a, j'): a indexes the leading coordinate (none in 1-D), j'
    the last one. R has no fixed node, so the pairs p = (a, j') with
    j' < n/2 and their partners Rp split the nodes. In the orthonormal basis
    u_p = (e_p + e_Rp)/sqrt(2), w_p = i (e_p - e_Rp)/sqrt(2), each vector
    fixed by the antiunitary R o conj, such a matrix is real:

        K = [[Re A + Re B, Im B - Im A],
             [Im A + Im B, Re A - Re B]],  A = H[P, P], B = H[P, RP],

    folded in O(N^2) through reversed views (`fold`). For a Hermitian H, K
    is real symmetric and has H's eigenvalues.
    """

    name = "conjugate-reflection"

    def __init__(self, grid):
        n = grid.n
        self.shape = (grid.size // n, n)
        nodes = np.arange(grid.size).reshape(self.shape)
        self.reflection = nodes[:, ::-1].ravel()
        pairs = nodes[:, :n // 2].ravel()
        self.node_sets = (np.concatenate([pairs, pairs]),)
        self.sizes = [grid.size]
        self.block_shape = (2, self.shape[0], n // 2) * 2  # K before its reshape to N x N

    def holds(self, A):
        """A[R][:, R] == conj(A) exactly, for a complex A (`fold`)."""
        return np.iscomplexobj(A) and self.fold(self._rows(A))

    def invariant(self, f):
        """R f == f exactly for a real grid function f."""
        return np.array_equal(f[self.reflection], f)

    def blocks(self, A):
        """The one real block K of a matrix with the symmetry (`fold`)."""
        K = np.empty(self.block_shape)
        if not self.fold(self._rows(A), K):
            raise NotApplicableError("matrix lacks the conjugate reflection symmetry")
        return (K.reshape(self.sizes * 2),)

    def _rows(self, A):
        """A's rows as `fold`'s slabs, one leading index each."""
        m, n = self.shape
        return ((a, A.reshape(m, 1, n, m, n)[a]) for a in range(m))

    def fold(self, slabs, K=None):
        """Whether every row slab (a0, H4[a0:a1]), H4 = H.reshape(m, n, m, n),
        has the symmetry, each folded into K (`block_shape`) when given. The
        pair rows (j' < n/2) are compared with their partners, SYMMETRY_SLAB
        entries at a time; the first difference stops the pass."""
        h = self.shape[1] // 2
        for a0, rows in slabs:
            a = np.s_[a0:a0 + len(rows)]
            step = max(1, SYMMETRY_SLAB // (len(rows) * rows[0, 0].size))
            for j0 in range(0, h, step):
                j = np.s_[j0:min(j0 + step, h)]
                if not _conj_equal(rows[:, ::-1][:, j][..., ::-1], rows[:, j]):
                    return False
                if K is not None:
                    same, across = rows[:, j, ..., :h], rows[:, j, ..., ::-1][..., :h]
                    np.add(same.real, across.real, out=K[0, a, j, 0])
                    np.subtract(across.imag, same.imag, out=K[0, a, j, 1])
                    np.add(same.imag, across.imag, out=K[1, a, j, 0])
                    np.subtract(same.real, across.real, out=K[1, a, j, 1])
        return True

    def vectors(self, block_vecs, order):
        """Complex columns of the real eigenvectors Y of K: (Y_u + i Y_w)/sqrt(2)
        on the pairs, (Y_u - i Y_w)/sqrt(2) on the partners; ascending already
        from `eigh`."""
        (Y,) = block_vecs
        m, n = self.shape
        h, N = n // 2, m * n
        V = np.empty((m, n, N), dtype=complex)
        pairs, partners = V[:, :h], V[:, ::-1][:, :h]
        np.multiply(Y[:N // 2].reshape(m, h, N), _ROOT_HALF, out=pairs.real)
        np.multiply(Y[N // 2:].reshape(m, h, N), _ROOT_HALF, out=pairs.imag)
        partners.real[...] = pairs.real
        np.negative(pairs.imag, out=partners.imag)
        return V.reshape(N, N)


def _conj_equal(X, Y):
    """X == conj(Y) exactly, entry by entry."""
    return np.array_equal(X.real, Y.real) and np.array_equal(X.imag, -Y.imag)


def _put(out, rows, cols, values):
    """out[np.ix_(rows, cols)] = values for a C-contiguous `out`, through flat
    indices (a third of the time of the two-index assignment)."""
    out.reshape(-1)[(rows[:, None] * out.shape[1] + cols).ravel()] = values.ravel()


@dataclass
class EigenDecomposition:
    """Eigenpairs, the symmetry blocks the solve ran on and each block's own
    eigenpairs; one built from the first three fields alone is one block."""

    eigenvalues: np.ndarray      # ascending
    eigenvectors: np.ndarray     # unitary columns
    residual: float
    symmetry: Optional[object] = None      # Whole, ParityBlocks or ConjugateReflection
    block_pairs: Optional[tuple] = None    # ((lam_b, Y_b), ...), one per block of `symmetry`

    def __post_init__(self):
        if self.symmetry is None:
            self.symmetry = Whole(len(self.eigenvalues))
            self.block_pairs = ((self.eigenvalues, self.eigenvectors),)

    def __iter__(self):
        return iter((self.eigenvalues, self.eigenvectors))

    def one_block(self):
        """The same eigenpairs as one block, for an R that breaks `symmetry`."""
        return EigenDecomposition(self.eigenvalues, self.eigenvectors, self.residual)


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


def block_symmetry(op):
    """The symmetry blocks of an operator on a grid, by exact tests in this
    order: ParityBlocks when its matrix commutes with the grid's reflection,
    ConjugateReflection when the matrix is complex and conjugation maps it to
    its reflection on the last axis; else the one block Whole(N), as for a
    bare array, which has no grid."""
    if isinstance(op, OperatorMatrix):
        blocks = ParityBlocks(op.grid)
        if blocks.commutes(op.entries):
            return blocks
        real = ConjugateReflection(op.grid)
        if real.holds(op.entries):
            return real
        op = op.entries
    return Whole(len(op))


def slab_blocks(grid, slabs):
    """(ConjugateReflection, K) from the row slabs of an operator, as
    `_kernels.weyl_slabs` yields them, when every slab passes `fold`: what
    `block_symmetry` picks, the operator never formed. None when the slabs
    do not decide: in 1-D (R moves the slab index), for a real operator,
    when row 0 passes the parity prefilter, or when a slab fails."""
    if grid.dimension != 2:
        return None
    first = next(slabs)
    row0 = first[1][0, 0].ravel()
    if not np.iscomplexobj(row0) or np.array_equal(row0[grid.reflection], row0):
        return None
    sym = ConjugateReflection(grid)
    K = np.empty(sym.block_shape)
    held = sym.fold(itertools.chain([first], slabs), K)
    return (sym, K.reshape(sym.sizes * 2)) if held else None


def eig_hermitian(op, symmetry=None):
    """Full LAPACK decomposition of a symmetrized operator, one `eigh` per
    block of its `block_symmetry` (or of `symmetry`, when the caller has
    already taken it).

    Parity blocks are each of size about N/2, for a quarter of the flops; a
    conjugate reflection is one real block of size N, for about a third of
    the time of the complex solve. Block eigenvectors are expanded to full
    columns, and the block eigenpairs are kept as `block_pairs`. The residual
    max_i |H v_i - lam_i v_i| / max|lam| is always taken against the full H,
    so it checks the reduction too.
    """
    H = _hermitian_entries(op)
    sym = block_symmetry(op) if symmetry is None else symmetry
    pairs = tuple(np.linalg.eigh(B) for B in sym.blocks(H))
    lam = np.concatenate([lam_b for lam_b, _ in pairs])
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    V = sym.vectors([Y for _, Y in pairs], order)
    scale = max(float(np.abs(lam).max()), 1e-300)
    residual = float(np.linalg.norm(H @ V - V * lam[None, :], axis=0).max() / scale)
    return EigenDecomposition(lam, V, residual, sym, pairs)


def eigvals_hermitian(op, symmetry=None):
    """Ascending eigenvalues of a symmetrized operator, with no eigenvectors
    (LAPACK's eigenvalue-only path, about a third of the time of `eigh`), one
    solve per block as in `eig_hermitian`."""
    H = _hermitian_entries(op)
    sym = block_symmetry(op) if symmetry is None else symmetry
    return np.sort(np.concatenate([np.linalg.eigvalsh(B) for B in sym.blocks(H)]))


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
    (t >= 0); H may also be given as its EigenDecomposition, whose V holds
    full columns whatever blocks it was solved by."""
    if not (t >= 0 and math.isfinite(t)):  # also rejects NaN
        raise NotApplicableError(f"t must be finite and nonnegative, got {t}")
    lam, V = H if isinstance(H, EigenDecomposition) else eig_hermitian(H)
    return (V * np.exp(-t * lam)[None, :]) @ V.conj().T


def _lanczos_top(M):
    """Largest eigenvalue of M^* M for a matrix M with max|M| <= 1, by Lanczos
    with full reorthogonalization on the products M^* (M q): the Gram matrix
    itself is never formed.

    The start vector is a fixed-seed Gaussian, so two calls give the same
    bits; a constant start is avoided, since a symmetric vector can be
    orthogonal to the top eigenvector. Every LANCZOS_CHECK steps the k x k
    tridiagonal T is solved, and the run stops once the top Ritz pair's
    residual beta_k |s_k| is at most LANCZOS_TOL times its Ritz value, or the
    Krylov space is invariant. At k = n the space is all of C^n and T's top
    eigenvalue is M^* M's own. Before that the result is the top Ritz value:
    never above the top eigenvalue, and within the residual of some
    eigenvalue, but of the top one only if the start vector is not nearly
    orthogonal to the top eigenspace, which a Gaussian start makes unlikely
    but does not rule out.
    """
    n = M.shape[1]
    Q = np.empty((n, n), dtype=M.dtype)
    q = np.random.default_rng(0).standard_normal(n)
    Q[0] = q / math.sqrt(q @ q)
    alpha, beta = np.zeros(n), np.zeros(n)
    for k in range(n):
        w = ((M @ Q[k]).conj() @ M).conj()
        basis = Q[:k + 1]
        for _ in range(2):   # classical Gram-Schmidt, twice
            h = (basis @ w.conj()).conj()
            w -= h @ basis
            alpha[k] += h[k].real
        b = math.sqrt(np.vdot(w, w).real)
        if k == n - 1 or b == 0.0 or (k + 1) % LANCZOS_CHECK == 0:
            T = np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, S = np.linalg.eigh(T)
            if k == n - 1 or b * abs(S[-1, -1]) <= LANCZOS_TOL * theta[-1]:
                return float(theta[-1])
        beta[k] = b
        Q[k + 1] = w / b


def _top_singular_value(M):
    """Largest singular value of M: the square root of the top eigenvalue of
    M^* M, from `_lanczos_top` when M has at least LANCZOS_MIN_ORDER columns
    and from a dense `eigvalsh` of M^* M below that, where it is the faster.
    M is first scaled by the power of two 2^-e that brings max|M| into
    [1/2, 1): exact, so the result scales exactly with M, and M^* M cannot
    overflow however large M is. A non-finite entry gives NaN."""
    big = float(np.abs(M).max())
    if not math.isfinite(big):
        return math.nan
    if big == 0.0:
        return 0.0
    e = int(np.frexp(big)[1])
    M = M * 2.0 ** -e
    if M.shape[1] >= LANCZOS_MIN_ORDER:
        top = _lanczos_top(M)
    else:
        top = float(np.linalg.eigvalsh(M.conj().T @ M)[-1])
    return math.ldexp(math.sqrt(max(top, 0.0)), e)


def _gram_norm(Rm, V, lam, z):
    """Largest singular value of M = R V diag(1/|lam - z|), by `_top_singular_value`."""
    return _top_singular_value((Rm @ V) / np.abs(lam - z)[None, :])


def relative_bound(R, H, z=1j):
    """Spectral norm of R (H - z)^{-1}, computed exactly from H = V diag(lam) V^*:
    R (H - z)^{-1} = R V diag(1/(lam - z)) V^*, and the unitary V^* drops out.

    The diagonal is replaced by diag(1/|lam - z|): the two differ by the
    unitary right factor diag(|lam - z| / (lam - z)), which leaves singular
    values unchanged, so the norm is the same and M = R V diag(1/|lam - z|)
    stays real for real R and V. The norm is the square root of the largest
    eigenvalue of the Gram matrix M^* M (`_top_singular_value`).

    H may also be given as its EigenDecomposition, so that a sweep over many
    R decomposes it once. R is given as its blocks under the decomposition's
    `symmetry`, one per entry of `block_pairs`: R (H - z)^{-1} is then block
    diagonal, and its norm is the largest block norm, each block taken with
    its own eigenpairs. A full R is the one-block case, with the
    decomposition's one-block view.
    """
    dec = H if isinstance(H, EigenDecomposition) else eig_hermitian(H)
    if not isinstance(R, tuple):
        R = (R.entries if isinstance(R, OperatorMatrix) else np.asarray(R),)
        dec = dec.one_block()
    # np.max, not max: a NaN block norm must not be dropped
    return float(np.max([_gram_norm(Rb, Y, lam, z)
                         for Rb, (lam, Y) in zip(R, dec.block_pairs, strict=True)]))
