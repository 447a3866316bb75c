"""Hot assembly kernels: factor gather and amplitude-pair contraction, both
in numpy."""
import numpy as np


# ---------------------------------------------------------------------------
# factor gather: H[j,k] = omega[j,k] * gmid[j + k] * fhat[wrap(j - k)], the
# lattice index j + k of the midpoint (x_j + x_k)/2 and the wrapped lattice
# displacement j - k taken per axis
# ---------------------------------------------------------------------------

def weyl_gather(fhat, omega, n, d, gmid=None):
    """Assemble the dense operator from the transformed frequency factor
    fhat (n^d), the pair phases omega, and the modulation gmid on the
    (2n-1)^d midpoint lattice when the symbol has one."""
    r = np.arange(n)
    wrap = (r[:, None] - r) % n
    mid = r[:, None] + r
    if d == 2:
        # node flat order is C order on (j1, j2): pair axes (j1, j2) x (k1, k2);
        # the n x n tables broadcast, so no N x N index array is formed
        wrap = (wrap[:, None, :, None], wrap[None, :, None, :])
        mid = (mid[:, None, :, None], mid[None, :, None, :])
    elif d != 1:
        raise ValueError("dimension must be 1 or 2")
    H = fhat[wrap].reshape(omega.shape)
    np.multiply(omega, H, out=H)  # omega first: fused complex products round by operand order
    if gmid is not None:
        H *= gmid[mid].reshape(omega.shape)
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
