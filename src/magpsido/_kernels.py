"""Hot assembly kernels: factor gather and amplitude-pair contraction, both
in numpy."""
import numpy as np


GATHER_BLOCK = 2**15  # operator entries weyl_slabs forms per slab

# ---------------------------------------------------------------------------
# factor gather: H[j,k] = omega[j,k] * fhat[wrap(j - k)] * gmid[j + k], the
# wrapped lattice displacement j - k and the lattice index j + k of the
# midpoint (x_j + x_k)/2 taken per axis
# ---------------------------------------------------------------------------

def weyl_slabs(fhat, phase, n, d, gmid=None, v=None):
    """The dense operator from the transformed frequency factor fhat (shape
    (n,) * d), the pair phases (None or a `gauge.AxisPhase`), the modulation
    gmid on the (2n-1)^d midpoint lattice and the node values v added on the
    diagonal, in row slabs of about GATHER_BLOCK entries over the leading
    index a of the node order (a, j', b, k') = (j1, j2, k1, k2): yields
    (a0, H.reshape(n, m, n, m)[a0:a1]). The slabs have fhat's dtype (a
    phase needs a complex fhat), and no index table is N x N, in 1-D either.
    """
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    m = n if d == 2 else 1
    fv = fhat.reshape(n, m)
    r = np.arange(n)
    # the last axis' tables in the slab layout: n x n in 2-D, index 0 in 1-D
    wj = ((r[:m, None] - r[:m]) % n)[None, :, None, :]
    if gmid is not None:
        gv = gmid.reshape(2 * n - 1, -1)
        mj = (r[:m, None] + r[:m])[None, :, None, :]
    step = max(1, GATHER_BLOCK // (m * n * m))
    for a0 in range(0, n, step):
        a1 = min(n, a0 + step)
        lead = r[a0:a1, None]
        blk = fv[((lead - r) % n)[:, None, :, None], wj]
        if phase is not None:
            # omega first: fused complex products round by operand order
            np.multiply(phase.rows(a0, a1), blk, out=blk)
        if gmid is not None:
            blk *= gv[(lead + r)[:, None, :, None], mj]
        if v is not None:  # the diagonal: flat entry a0 m + i (N + 1) for row i
            blk.reshape(-1)[a0 * m::n**d + 1] += v[a0 * m:a1 * m]
        yield a0, blk


def weyl_gather(fhat, phase, n, d, gmid=None, v=None):
    """The dense N x N operator (N = n^d), written once from `weyl_slabs`."""
    H = np.empty((n**d, n**d), dtype=fhat.dtype)
    for a0, blk in weyl_slabs(fhat, phase, n, d, gmid, v):
        H.reshape(n, -1)[a0:a0 + len(blk)] = blk.reshape(len(blk), -1)
    return H


# ---------------------------------------------------------------------------
# amplitude pair contraction, pairs (j[i], k[i]):
#   T[i, r] = n^{-d} sum_q M[i,q] e^{i 2pi r.q/n},
#   forward[i] = T[i, wrap(j-k)] (entry j,k), backward[i] = T[i, wrap(k-j)] (entry k,j)
# ---------------------------------------------------------------------------

def amplitude_pairs(M, j, k, n, d):
    """Contract the samples M[i] of the node pairs (j[i], k[i]) against the
    lattice phases of both entry orders; returns (forward, backward)."""
    i = np.arange(M.shape[0])
    if d == 1:
        T = np.fft.ifft(M, axis=1)
        r = (j - k) % n
        return T[i, r], T[i, -r % n]
    if d == 2:
        T = np.fft.ifft2(M.reshape(-1, n, n), axes=(1, 2))
        r1, r2 = (j // n - k // n) % n, (j % n - k % n) % n
        return T[i, r1, r2], T[i, -r1 % n, -r2 % n]
    raise ValueError("dimension must be 1 or 2")
