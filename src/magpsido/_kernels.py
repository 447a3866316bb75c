"""Hot assembly kernels: kernel-table gather and amplitude-pair contraction,
both in numpy."""
import numpy as np


# ---------------------------------------------------------------------------
# kernel-table gather: H[j,k] = omega[j,k] * T[midpoint(j,k), wrap(j-k)]
# ---------------------------------------------------------------------------

def weyl_gather(T, omega, n, d):
    """Assemble the dense operator from the midpoint kernel table."""
    if d == 1:
        j = np.arange(n)
        J, K = np.meshgrid(j, j, indexing="ij")
        return omega * T[J + K, (J - K) % n]
    if d == 2:
        idx = np.arange(n)
        J1, J2, K1, K2 = np.ix_(idx, idx, idx, idx)
        G = T[J1 + K1, J2 + K2, (J1 - K1) % n, (J2 - K2) % n]
        # node flat order is C order on (j1, j2): pair axes (j1,j2) x (k1,k2)
        return omega * G.reshape(n * n, n * n)
    raise ValueError("dimension must be 1 or 2")


# ---------------------------------------------------------------------------
# amplitude pair contraction, pairs (j, k) with k = j + i:
#   T[i, r] = n^{-d} sum_q M[i,q] e^{i 2pi r.q/n},
#   forward[i] = T[i, wrap(j-k)] (entry j,k), backward[i] = T[i, wrap(k-j)] (entry k,j)
# ---------------------------------------------------------------------------

def amplitude_pairs(M, j, n, d):
    """Contract the samples of the node pairs (j, j + i) against the lattice
    phases of both entry orders; returns (forward, backward)."""
    i = np.arange(M.shape[0])
    k = j + i
    if d == 1:
        T = np.fft.ifft(M, axis=1)
        r = (j - k) % n
        return T[i, r], T[i, -r % n]
    if d == 2:
        T = np.fft.ifft2(M.reshape(-1, n, n), axes=(1, 2))
        r1, r2 = (j // n - k // n) % n, (j % n - k % n) % n
        return T[i, r1, r2], T[i, -r1 % n, -r2 % n]
    raise ValueError("dimension must be 1 or 2")
