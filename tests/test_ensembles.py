import numpy as np
import pytest

from graphamp import NumericalError
from graphamp.ensembles import (normals, sample_correlated_rows, sample_goe,
                                sample_iid, sample_spatially_coupled,
                                spectral_inv_sqrt, spectral_sqrt, stream)


def test_stream_is_deterministic_and_label_sensitive():
    a = normals(stream(7, "x", 3), (5,))
    b = normals(stream(7, "x", 3), (5,))
    c = normals(stream(7, "x", 4), (5,))
    d = normals(stream(8, "x", 3), (5,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_normals_are_the_streams_standard_normals():
    # numpy's ziggurat on the named stream: same bytes, same stream
    # position afterwards
    for seed in range(8):
        for shape in [(1,), 5, (3, 4), (257, 3), (2, 3, 5), (0,)]:
            a, b = stream(seed, "ref", str(shape)), stream(seed, "ref", str(shape))
            ref = a.standard_normal(shape)
            got = normals(b, shape)
            assert got.shape == ref.shape and got.dtype == np.float64
            assert got.tobytes() == ref.tobytes()
            assert a.integers(0, 1 << 62) == b.integers(0, 1 << 62)


def test_iid_entry_variance():
    # variance 1/N per entry, checked on 10^4 entries
    N = 100.0
    A = sample_iid(100, 100, N, stream(0, "iid"))
    v = A.var() * N
    assert abs(v - 1.0) < 0.05
    assert abs(A.mean()) < 5.0 / np.sqrt(10_000 * N)


def test_goe_symmetry_and_variance_pattern():
    n = 600
    A = sample_goe(n, stream(1, "goe"), scale_N=n)
    assert np.array_equal(A, A.T)
    off = A[np.triu_indices(n, k=1)]
    diag = np.diag(A)
    assert abs(off.var() * n - 1.0) < 0.05
    # n diagonal entries only: wide band
    assert abs(diag.var() * n - 2.0) < 0.5


def test_spatially_coupled_block_variances():
    grid = np.array([[1.0, 0.3], [0.3, 1.0]])
    rows, cols, d = [300, 300], [200, 200], 200
    Z = sample_spatially_coupled(rows, cols, grid, d, stream(2, "sc"))
    assert Z.shape == (600, 400)
    for i in range(2):
        for j in range(2):
            blk = Z[300 * i:300 * (i + 1), 200 * j:200 * (j + 1)]
            assert abs(blk.var() * d - grid[i, j]) < 0.1 * max(grid[i, j], 0.1)


def test_spatially_coupled_zero_blocks_are_zero():
    grid = np.array([[1.0, 0.0], [0.0, 1.0]])
    Z = sample_spatially_coupled([50, 50], [40, 40], grid, 40, stream(3, "sc0"))
    assert np.all(Z[:50, 40:] == 0.0)
    assert np.all(Z[50:, :40] == 0.0)


def test_correlated_rows_covariance():
    Sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    root = spectral_sqrt(Sigma)
    X = sample_correlated_rows(20_000, root, 1.0, stream(4, "corr"))
    emp = X.T @ X / X.shape[0]
    assert np.max(np.abs(emp - Sigma)) < 0.1


def test_samplers_scale_the_normals_exactly():
    # dividing the draws in place rounds as dividing a copy does
    s = 7.0
    ref = normals(stream(5, "scale"), (6, 4)) / np.sqrt(s)
    assert np.array_equal(sample_iid(6, 4, s, stream(5, "scale")), ref)
    assert np.array_equal(
        sample_correlated_rows(6, np.eye(4), s, stream(5, "scale")), ref)
    G = normals(stream(5, "scale"), (5, 5)) / np.sqrt(2.0 * s)
    assert np.array_equal(sample_goe(5, stream(5, "scale"), scale_N=s), G + G.T)


def test_goe_written_into_a_view_is_the_same_matrix():
    big = np.zeros((9, 9))
    view = big[2:7, 3:8]
    got = sample_goe(5, stream(5, "out"), scale_N=7.0, out=view)
    assert got is view
    assert np.array_equal(big[2:7, 3:8], sample_goe(5, stream(5, "out"), scale_N=7.0))
    big[2:7, 3:8] = 0.0
    assert not big.any()


def test_spectral_sqrt_roundtrip():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(4, 4))
    Sigma = B @ B.T + 0.1 * np.eye(4)
    R = spectral_sqrt(Sigma)
    assert np.allclose(R @ R.T, Sigma, atol=1e-10)
    Ri = spectral_inv_sqrt(Sigma)
    assert np.allclose(Ri @ Sigma @ Ri.T, np.eye(4), atol=1e-8)


def test_spectral_sqrt_rejects_indefinite():
    Sigma = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(NumericalError):
        spectral_sqrt(Sigma)
    # the non-strict variant clips the negative part instead
    R = spectral_sqrt(Sigma, require_pd=False)
    assert np.all(np.isfinite(R))
