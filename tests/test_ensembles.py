import numpy as np
import pytest

from graphamp.engine import PANEL_ROWS
from graphamp.ensembles import (normals, sample_goe, sample_iid,
                                sample_spatially_coupled, stream)


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


def _goe_reference(n, rng, s):
    # one (n, n) draw, divided, plus its transpose
    G = normals(rng, (n, n)) / np.sqrt(2.0 * s)
    return G + G.T


def test_samplers_scale_the_normals_exactly():
    # dividing the draws in place rounds as dividing a copy does
    s = 7.0
    ref = normals(stream(5, "scale"), (6, 4)) / np.sqrt(s)
    assert np.array_equal(sample_iid(6, 4, s, stream(5, "scale")), ref)
    # over more than one draw_rows draw
    shape = (PANEL_ROWS + 3, PANEL_ROWS + 5)
    ref = normals(stream(5, "scale"), shape) / np.sqrt(s)
    assert np.array_equal(sample_iid(*shape, s, stream(5, "scale")), ref)
    # one panel, and more than two: panel pairs sum as G + G^T does
    for n in (5, 2 * PANEL_ROWS + 3):
        assert np.array_equal(sample_goe(n, stream(5, "scale"), scale_N=s),
                              _goe_reference(n, stream(5, "scale"), s))
    # each sigma > 0 block takes the next draws in row-major block order,
    # over more than one PANEL_ROWS x PANEL_ROWS draw for the widest block
    rows, cols = [3, PANEL_ROWS + 2], [PANEL_ROWS + 5, 4]
    grid = np.array([[1.0, 0.0], [0.3, 2.5]])
    Z = sample_spatially_coupled(rows, cols, grid, s, stream(5, "scale"))
    rng = stream(5, "scale")
    r, c = np.cumsum([0, *rows]), np.cumsum([0, *cols])
    for i in range(2):
        for j in range(2):
            blk = Z[r[i]:r[i + 1], c[j]:c[j + 1]]
            if grid[i, j] > 0:
                ref = normals(rng, blk.shape) / np.sqrt(s / grid[i, j])
                assert np.array_equal(blk, ref), (i, j)
            else:
                assert not blk.any()


def test_goe_written_into_a_view_is_the_same_matrix():
    for n in (5, 2 * PANEL_ROWS + 3):
        big = np.zeros((n + 4, n + 4))
        view = big[2:n + 2, 3:n + 3]
        got = sample_goe(n, stream(5, "out"), scale_N=7.0, out=view)
        assert got is view
        assert np.array_equal(big[2:n + 2, 3:n + 3], sample_goe(n, stream(5, "out"), scale_N=7.0))
        assert np.array_equal(view, _goe_reference(n, stream(5, "out"), 7.0))
        big[2:n + 2, 3:n + 3] = 0.0
        assert not big.any()
    with pytest.raises(ValueError, match="shape"):
        sample_goe(5, stream(5, "out"), out=np.zeros((5, 6)))
