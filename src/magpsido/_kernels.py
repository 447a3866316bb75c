"""Hot assembly kernels: factor gather and amplitude-pair contraction, both
in numpy."""
import numpy as np


GATHER_BLOCK = 2**15  # operator entries weyl_gather forms per slab

# ---------------------------------------------------------------------------
# factor gather: H[j,k] = omega[j,k] * fhat[wrap(j - k)] * gmid[j + k], the
# wrapped lattice displacement j - k and the lattice index j + k of the
# midpoint (x_j + x_k)/2 taken per axis
# ---------------------------------------------------------------------------

def weyl_gather(fhat, phase, n, d, gmid=None):
    """Assemble the dense operator from the transformed frequency factor
    fhat (shape (n,) * d), the pair phases, and the modulation gmid on the
    (2n-1)^d midpoint lattice when the symbol has one.

    `phase` is None (every phase 1) or a `gauge.AxisPhase`. H is written
    once, in slabs of about GATHER_BLOCK entries over the leading index a
    of the node order (a, j', b, k') = (j1, j2, k1, k2); each slab's phases
    come from `AxisPhase.rows`. H has fhat's dtype, so a real fhat with no
    phase gives a float64 H; a phase needs a complex fhat.
    """
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    m = n if d == 2 else 1
    fv = fhat.reshape(n, m)
    r = np.arange(n)
    wrap, mid = (r[:, None] - r) % n, r[:, None] + r
    # per-axis index tables in the slab layout; the n x n tables broadcast,
    # so no N x N index array is formed
    wa, ma = wrap[:, None, :, None], mid[:, None, :, None]
    wj, mj = (wrap, mid) if d == 2 else (np.zeros((1, 1), dtype=int),) * 2
    wj, mj = wj[None, :, None, :], mj[None, :, None, :]
    if gmid is not None:
        gv = gmid.reshape(2 * n - 1, -1)
    N = n**d
    H = np.empty((N, N), dtype=fhat.dtype)
    Hv = H.reshape(n, m, n, m)
    step = max(1, GATHER_BLOCK // (m * n * m))
    for a0 in range(0, n, step):
        a1 = min(n, a0 + step)
        blk = fv[wa[a0:a1], wj]
        if phase is not None:
            # omega first: fused complex products round by operand order
            np.multiply(phase.rows(a0, a1), blk, out=blk)
        if gmid is not None:
            blk *= gv[ma[a0:a1], mj]
        Hv[a0:a1] = blk
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
