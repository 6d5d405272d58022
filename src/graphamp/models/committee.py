"""Two-unit committee iteration: matrix-valued messages on a chain.

The weight matrix has q = 2 columns (one per hidden unit), so every
iterate, message, and correction coefficient is matrix valued; the
correction b is a full 2 x 2 matrix because the denoisers mix the
units.  Update functions are fixed (no adaptive scales):

    signal side:   U -> soft_threshold(U, theta) @ R
    observation:   V -> (Y - V) @ C

with R, C non-diagonal 2 x 2 matrices and Y independent side data
(drawn separately from the design, so the plain covariance recursion
covers the instance).  This is the stress case for the q x q Onsager
algebra and the flattening's block bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import GraphInstance, stationary_provider
from ..ensembles import normals, sample_iid, stream
from ..graphs import EdgeId, line_graph
from ..nonlinearity import (AffineResidual, LinearEntrywiseLinear, SideData,
                            soft_threshold_pieces)


R = np.array([[0.9, 0.25], [-0.15, 0.8]])
C = np.array([[0.6, 0.2], [0.1, 0.5]])


@dataclass(frozen=True)
class CommitteeModel:
    d: int
    n: int
    theta: float = 0.4

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError(f"theta: must be >= 0, got {self.theta}")


def build_committee_instance(model: CommitteeModel, seed: int = 0):
    """Chain instance with q = 2 on both edges; returns (instance, Y)."""
    fwd = EdgeId("wts", "obs")
    bwd = fwd.reversed()
    g = line_graph(["wts", "obs"], [model.d, model.n], q=2)
    A = sample_iid(model.n, model.d, model.d, stream(seed, "committee", "A"))
    Y = normals(stream(seed, "committee", "Y"), (model.n, 2))

    theta = model.theta
    # soft_threshold(U, theta) @ R, by its pieces
    kinks, pieces = soft_threshold_pieces(theta, 1.0)
    sig = LinearEntrywiseLinear(out_cols=R.shape[1], L=[1.0], R=R, kinks=kinks, pieces=pieces)
    instance = GraphInstance(
        graph=g,
        matrices={fwd: A},
        provider=stationary_provider({fwd: sig, bwd: AffineResidual("Y", C)}),
        x0={bwd: 0.5 * np.ones((model.d, 2))},
        side={bwd: SideData(arrays={"Y": Y})},
        scale_base={fwd: float(model.d)},
    )
    return instance, Y
