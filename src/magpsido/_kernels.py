"""Hot assembly kernels: kernel-table gather and amplitude-row contraction,
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
# amplitude row contraction: out[k] = n^{-d} sum_q M[k,q] e^{i 2pi (j-k).q/n}
# ---------------------------------------------------------------------------

def amplitude_row(M, j_multi, n, d):
    """Contract one row of amplitude samples against the lattice phases."""
    N = M.shape[0]
    k = np.arange(N)
    if d == 1:
        T = np.fft.ifft(M, axis=1)
        return T[k, (j_multi[0] - k) % n]
    if d == 2:
        T = np.fft.ifft2(M.reshape(N, n, n), axes=(1, 2))
        k1, k2 = k // n, k % n
        return T[k, (j_multi[0] - k1) % n, (j_multi[1] - k2) % n]
    raise ValueError("dimension must be 1 or 2")

