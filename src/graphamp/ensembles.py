"""Gaussian random-matrix samplers and deterministic seed streams.

All normal variates come from numpy's ziggurat sampler
(Generator.standard_normal) on a PCG64 stream, so draws are
reproducible byte-for-byte for a fixed (master seed, stream key) and a
fixed numpy version; uniform variates come from the same streams'
integers.  Stream keys are derived by hashing string labels,
giving every (edge, purpose, index) its own independent substream.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Sequence

import numpy as np

from .engine import PANEL_ROWS


def stream(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator keyed by (master_seed, labels)."""
    tag = "/".join(str(x) for x in labels)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    spawn_key = tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))
    ss = np.random.SeedSequence(entropy=int(master_seed) & ((1 << 64) - 1), spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals of the given shape: with uniforms, the one entry
    point every sampler draws through."""
    return rng.standard_normal(shape)


def uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms on (0, 1) of the given shape, (k + 1/2) / 2^53 for k
    uniform on the integers below 2^53: never 0 or 1."""
    return (rng.integers(0, 1 << 53, size=shape) + 0.5) / float(1 << 53)


def sample_goe(n: int, rng: np.random.Generator, scale_N: Optional[float] = None,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """A = G + G^T with G_ij iid N(0, 1/(2 scale)): off-diagonal variance
    1/scale, diagonal 2/scale.  Default scale is n itself.  out, an
    n x n array or view, receives A in place of a new array.

    G is drawn into A a block of rows at a time, in stream order, and
    divided in place (draw_rows).  Then each pair of PANEL_ROWS panels
    P <= Q gets A[P, Q] + A[Q, P]^T in both blocks, so no temporary is
    larger than a panel block.  Entry for entry that is the sum
    G + G^T takes, so A has its bits.
    """
    scale = float(scale_N if scale_N is not None else n)
    if out is None:
        out = np.empty((n, n))
    elif out.shape != (n, n):
        raise ValueError(f"out has shape {out.shape}, expected {(n, n)}")
    draw_rows(out, rng, 2.0 * scale)
    for lo in range(0, n, PANEL_ROWS):
        p = slice(lo, lo + PANEL_ROWS)
        for hi in range(lo, n, PANEL_ROWS):
            q = slice(hi, hi + PANEL_ROWS)
            out[p, q] = out[p, q] + out[q, p].T
            if hi > lo:
                out[q, p] = out[p, q].T
    return out


def draw_rows(out: np.ndarray, rng: np.random.Generator, scale_N: float) -> None:
    """Fill out, in stream order, with iid N(0, 1/scale_N): the bits of
    normals(rng, out.shape) / sqrt(scale_N).  Whole rows are drawn at a
    time, at most a PANEL_ROWS x PANEL_ROWS block's entries (or one row)
    per draw: a small temporary, and few draws."""
    sd = math.sqrt(float(scale_N))
    k = max(1, PANEL_ROWS * PANEL_ROWS // max(1, out.shape[1]))
    for lo in range(0, out.shape[0], k):
        rows = out[lo:lo + k]
        np.divide(normals(rng, rows.shape), sd, out=rows)


def sample_iid(rows: int, cols: int, scale_N: float, rng: np.random.Generator) -> np.ndarray:
    Z = normals(rng, (rows, cols))
    Z /= math.sqrt(float(scale_N))
    return Z


def sample_spatially_coupled(
    block_rows: Sequence[int],
    block_cols: Sequence[int],
    sigma,
    scale_N: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Block matrix with block (i, j) iid N(0, sigma[i][j]/scale_N);
    zero sigma gives an exactly zero block."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (len(block_rows), len(block_cols)):
        raise ValueError(
            f"sigma grid shape {sigma.shape} does not match blocks "
            f"({len(block_rows)}, {len(block_cols)})"
        )
    out = np.zeros((sum(block_rows), sum(block_cols)))
    r, c = np.cumsum([0, *block_rows]), np.cumsum([0, *block_cols])
    # block by block in row-major order, each drawn into place
    for i, j in zip(*np.nonzero(sigma > 0)):
        draw_rows(out[r[i]:r[i + 1], c[j]:c[j + 1]], rng, scale_N / sigma[i, j])
    return out
