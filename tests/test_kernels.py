"""The numpy assembly kernels against their explicit-loop definitions."""
import numpy as np
import pytest

import magpsido
from magpsido import _kernels


def loop_weyl_gather_1d(T, omega, n):
    H = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            H[j, k] = omega[j, k] * T[j + k, (j - k) % n]
    return H


def loop_weyl_gather_2d(T, omega, n):
    H = np.empty((n * n, n * n), dtype=complex)
    for j1 in range(n):
        for j2 in range(n):
            for k1 in range(n):
                for k2 in range(n):
                    r, c = j1 * n + j2, k1 * n + k2
                    H[r, c] = omega[r, c] * T[j1 + k1, j2 + k2,
                                              (j1 - k1) % n, (j2 - k2) % n]
    return H


def loop_amplitude_row(M, j_multi, n, d):
    """out[k] = n^{-d} sum_q M[k, q] e^{i 2 pi (j - k).q / n}, q in C order."""
    N = n**d
    out = np.empty(N, dtype=complex)
    for k in range(N):
        k_multi = (k,) if d == 1 else (k // n, k % n)
        acc = 0.0j
        for q in range(N):
            q_multi = (q,) if d == 1 else (q // n, q % n)
            dot = sum((j - kk) * qq for j, kk, qq in zip(j_multi, k_multi, q_multi))
            acc += M[k, q] * np.exp(2j * np.pi * dot / n)
        out[k] = acc / N
    return out


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_backend_is_numpy():
    assert magpsido.backend() == "numpy"


def test_weyl_gather_1d_matches_loop():
    rng = np.random.default_rng(0)
    n = 12
    T = complex_normal(rng, (2 * n - 1, n))
    omega = np.exp(1j * rng.standard_normal((n, n)))
    got = _kernels.weyl_gather(T, omega, n, 1)
    # vectorized complex products may round differently from scalar ones
    assert np.abs(got - loop_weyl_gather_1d(T, omega, n)).max() < 1e-14


def test_weyl_gather_2d_matches_loop():
    rng = np.random.default_rng(1)
    n = 4
    T = complex_normal(rng, (2 * n - 1, 2 * n - 1, n, n))
    omega = np.exp(1j * rng.standard_normal((n * n, n * n)))
    got = _kernels.weyl_gather(T, omega, n, 2)
    assert np.abs(got - loop_weyl_gather_2d(T, omega, n)).max() < 1e-14


def test_weyl_gather_rejects_dimension_three():
    with pytest.raises(ValueError):
        _kernels.weyl_gather(np.zeros((7, 4)), np.ones((4, 4)), 4, 3)


@pytest.mark.parametrize("d, n, j_multi", [(1, 8, (5,)), (2, 4, (3, 1))])
def test_amplitude_row_matches_loop(d, n, j_multi):
    rng = np.random.default_rng(2)
    M = complex_normal(rng, (n**d, n**d))
    got = _kernels.amplitude_row(M, j_multi, n, d)
    assert np.abs(got - loop_amplitude_row(M, j_multi, n, d)).max() < 1e-13

