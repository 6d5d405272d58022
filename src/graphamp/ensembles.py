"""Gaussian random-matrix samplers and deterministic seed streams.

All normal variates come from numpy's ziggurat sampler
(Generator.standard_normal) on a PCG64 stream, so draws are
reproducible byte-for-byte for a fixed (master seed, stream key) and a
fixed numpy version.  Stream keys are derived by hashing string labels,
giving every (edge, purpose, index) its own independent substream.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError


def stream(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator keyed by (master_seed, labels)."""
    tag = "/".join(str(x) for x in labels)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    spawn_key = tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))
    ss = np.random.SeedSequence(entropy=int(master_seed) & ((1 << 64) - 1), spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals of the given shape: the one entry point every
    sampler draws through."""
    return rng.standard_normal(shape)


def sample_goe(n: int, rng: np.random.Generator, scale_N: Optional[float] = None,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """A = G + G^T with G_ij iid N(0, 1/(2 scale)): off-diagonal variance
    1/scale, diagonal 2/scale.  Default scale is n itself.  out, an
    n x n array or view, receives A in place of a new array."""
    scale = float(scale_N if scale_N is not None else n)
    G = normals(rng, (n, n))
    G /= math.sqrt(2.0 * scale)
    return np.add(G, G.T, out=out)


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
    r0 = 0
    for i, nr in enumerate(block_rows):
        c0 = 0
        for j, nc in enumerate(block_cols):
            if sigma[i, j] > 0:
                out[r0 : r0 + nr, c0 : c0 + nc] = normals(rng, (nr, nc)) * math.sqrt(
                    sigma[i, j] / float(scale_N)
                )
            c0 += nc
        r0 += nr
    return out


def sample_correlated_rows(
    rows: int, sigma_factor: np.ndarray, scale_N: float, rng: np.random.Generator
) -> np.ndarray:
    """Z @ Sigma^{1/2} with Z iid N(0, 1/scale_N): row covariance Sigma/scale_N."""
    sigma_factor = np.asarray(sigma_factor, dtype=float)
    if sigma_factor.ndim != 2 or sigma_factor.shape[0] != sigma_factor.shape[1]:
        raise ValueError("covariance factor must be square")
    Z = normals(rng, (rows, sigma_factor.shape[0]))
    Z /= math.sqrt(float(scale_N))
    return Z @ sigma_factor


EIG_FLOOR = 1e-12


def spectral_sqrt(Sigma: np.ndarray, require_pd: bool = True) -> np.ndarray:
    """Symmetric square root by eigendecomposition; rejects non-PD input
    (eigenvalue below EIG_FLOOR relative to the largest)."""
    Sigma = np.asarray(Sigma, dtype=float)
    Sigma = 0.5 * (Sigma + Sigma.T)
    w, V = np.linalg.eigh(Sigma)
    floor = EIG_FLOOR * max(1.0, float(w[-1]))
    if require_pd and w[0] < floor:
        raise NumericalError(f"covariance not positive definite: min eigenvalue {w[0]:.3e}")
    w = np.maximum(w, floor)
    return (V * np.sqrt(w)) @ V.T


def spectral_inv_sqrt(Sigma: np.ndarray) -> np.ndarray:
    Sigma = np.asarray(Sigma, dtype=float)
    Sigma = 0.5 * (Sigma + Sigma.T)
    w, V = np.linalg.eigh(Sigma)
    floor = EIG_FLOOR * max(1.0, float(w[-1]))
    if w[0] < floor:
        raise NumericalError(f"covariance not positive definite: min eigenvalue {w[0]:.3e}")
    return (V / np.sqrt(w)) @ V.T

