"""The numpy assembly kernels against their explicit-loop definitions."""
import tracemalloc

import numpy as np
import pytest

import magpsido
from magpsido import _kernels
from magpsido.gauge import AxisPhase


def loop_weyl_gather_1d(fhat, omega, n, gmid):
    H = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            H[j, k] = omega[j, k] * fhat[(j - k) % n] * gmid[j + k]
    return H


def loop_weyl_gather_2d(fhat, omega, n, gmid):
    H = np.empty((n * n, n * n), dtype=complex)
    for j1 in range(n):
        for j2 in range(n):
            for k1 in range(n):
                for k2 in range(n):
                    r, c = j1 * n + j2, k1 * n + k2
                    H[r, c] = (omega[r, c] * fhat[(j1 - k1) % n, (j2 - k2) % n]
                               * gmid[j1 + k1, j2 + k2])
    return H


def loop_axis_phase(table):
    """The phases an `AxisPhase` stands for: omega[(a, j'), (b, k')] =
    conj(table[b, a, j']) table[a, b, k'], and 1 on the diagonal."""
    n, _, m = table.shape
    omega = np.empty((n * m, n * m), dtype=complex)
    for a in range(n):
        for j in range(m):
            for b in range(n):
                for k in range(m):
                    omega[a * m + j, b * m + k] = (
                        1.0 if (a, j) == (b, k) else np.conj(table[b, a, j]) * table[a, b, k])
    return omega


def loop_lattice_sum(m, r_multi, n, d):
    """n^{-d} sum_q m[q] e^{i 2 pi r.q / n}, q in C order."""
    N = n**d
    acc = 0.0j
    for q in range(N):
        q_multi = (q,) if d == 1 else (q // n, q % n)
        acc += m[q] * np.exp(2j * np.pi * sum(r * qq for r, qq in zip(r_multi, q_multi)) / n)
    return acc / N


def loop_amplitude_pairs(M, j, k, n, d):
    """Entries (j, k) and (k, j) of the pairs (j[i], k[i]): the lattice sums
    of pair i's samples at displacements j - k and k - j."""
    multi = (lambda f: (f,)) if d == 1 else (lambda f: (f // n, f % n))
    forward = np.empty(M.shape[0], dtype=complex)
    backward = np.empty(M.shape[0], dtype=complex)
    for i in range(M.shape[0]):
        r = tuple(a - b for a, b in zip(multi(j[i]), multi(k[i])))
        forward[i] = loop_lattice_sum(M[i], r, n, d)
        backward[i] = loop_lattice_sum(M[i], tuple(-x for x in r), n, d)
    return forward, backward


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_backend_is_numpy():
    assert magpsido.backend() == "numpy"


def test_weyl_gather_1d_matches_loop():
    rng = np.random.default_rng(0)
    n = 12
    fhat = complex_normal(rng, n)
    phase = AxisPhase(np.exp(1j * rng.standard_normal((n, n, 1))))
    omega = loop_axis_phase(phase.table)
    gmid = rng.standard_normal(2 * n - 1)
    # vectorized complex products may round differently from scalar ones
    got = _kernels.weyl_gather(fhat, phase, n, 1, gmid)
    assert np.abs(got - loop_weyl_gather_1d(fhat, omega, n, gmid)).max() < 1e-14
    got = _kernels.weyl_gather(fhat, phase, n, 1)
    assert np.abs(got - loop_weyl_gather_1d(fhat, omega, n, np.ones(2 * n - 1))).max() < 1e-14


def test_weyl_gather_2d_matches_loop():
    rng = np.random.default_rng(1)
    n = 4
    fhat = complex_normal(rng, (n, n))
    phase = AxisPhase(np.exp(1j * rng.standard_normal((n, n, n))))
    omega = loop_axis_phase(phase.table)
    gmid = rng.standard_normal((2 * n - 1, 2 * n - 1))
    got = _kernels.weyl_gather(fhat, phase, n, 2, gmid)
    assert np.abs(got - loop_weyl_gather_2d(fhat, omega, n, gmid)).max() < 1e-14
    got = _kernels.weyl_gather(fhat, phase, n, 2)
    assert np.abs(got - loop_weyl_gather_2d(fhat, omega, n, np.ones(gmid.shape))).max() < 1e-14


@pytest.mark.parametrize("d, n", [(1, 12), (2, 4)])
@pytest.mark.parametrize("block", [1, 2**15])
def test_slabs_are_the_gathered_rows_with_v_on_the_diagonal(d, n, block, monkeypatch):
    """weyl_gather writes weyl_slabs' slabs as they come, and v is added on
    the diagonal bit for bit as a pass over the gathered H would add it."""
    monkeypatch.setattr(_kernels, "GATHER_BLOCK", block)
    rng = np.random.default_rng(3)
    fhat = complex_normal(rng, (n,) * d)
    phase = AxisPhase(np.exp(1j * rng.standard_normal((n, n, n if d == 2 else 1))))
    gmid, v = rng.standard_normal((2 * n - 1,) * d), rng.standard_normal(n**d)
    H = _kernels.weyl_gather(fhat, phase, n, d, gmid)
    H.flat[::n**d + 1] += v
    assert np.array_equal(_kernels.weyl_gather(fhat, phase, n, d, gmid, v), H)
    slabs = list(_kernels.weyl_slabs(fhat, phase, n, d, gmid, v))
    assert [a0 for a0, _ in slabs] == list(range(0, n, max(1, block // n**(2 * d - 1))))
    rows = np.concatenate([blk for _, blk in slabs])
    assert np.array_equal(rows.reshape(H.shape), H)


def test_1d_gather_forms_no_n_by_n_index_table():
    # at N = 1024 one int64 N x N table is the size of the float64 H
    n = 1024
    rng = np.random.default_rng(4)
    fhat, gmid, v = rng.standard_normal(n), rng.standard_normal(2 * n - 1), rng.standard_normal(n)
    tracemalloc.start()
    try:
        H = _kernels.weyl_gather(fhat, None, n, 1, gmid, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * H.nbytes


def test_weyl_gather_rejects_dimension_three():
    with pytest.raises(ValueError):
        _kernels.weyl_gather(np.zeros(4), None, 4, 3)


@pytest.mark.parametrize("d, n, start", [(1, 8, 5), (2, 4, 6)])
def test_amplitude_pairs_matches_loop(d, n, start):
    """The pairs j <= k in row-major order from pair `start` on."""
    rng = np.random.default_rng(2)
    j, k = (r[start:] for r in np.triu_indices(n**d))
    M = complex_normal(rng, (j.size, n**d))
    got = _kernels.amplitude_pairs(M, j, k, n, d)
    want = loop_amplitude_pairs(M, j, k, n, d)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() < 1e-13


def test_amplitude_pairs_rejects_dimension_three():
    with pytest.raises(ValueError):
        _kernels.amplitude_pairs(np.zeros((2, 4)), np.zeros(2, int), np.ones(2, int), 4, 3)
