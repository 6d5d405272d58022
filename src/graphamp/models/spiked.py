"""Rank-one spiked symmetric matrix, optionally with a generative prior.

Observation Y = (sqrt(lam)/N) v0 v0^T + W with W a GOE(N) draw
(off-diagonal variance 1/N), so lam = 1 is the spectral threshold.
Estimation iterates x^{t+1} = Y f(x^t) - b f(x^{t-1}) on a single-loop
graph whose matrix is Y itself.

For the plain (depth-0) prior the rank-one part contributes a
deterministic signal direction and two scalars close the recursion:

    mu_{t+1} = sqrt(lam) E[V f(mu_t V + sqrt(q_t) G)]
    q_{t+1}  = E[f(mu_t V + sqrt(q_t) G)^2]

with V ~ PRIOR, a Rademacher sign (its unit second moment makes lam
the SNR), and G standard normal.  q is the full second moment: the
noise W is independent of v0, so no projection is involved.

With depth L >= 1 the spike is generated by a small pipeline
v0 = phi(A_L ... phi(A_1 w)) and the estimation graph attaches the
generative chain below the loop node; the loop node averages the loop
field with the chain field before its denoiser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..engine import GraphInstance, stationary_provider
from ..ensembles import sample_goe, stream
from ..gamp_se import RademacherPrior, gh_points
from ..graphs import EdgeId, edges_into, line_graph, single_loop, with_loop
from ..nonlinearity import Entrywise
from .multilayer import (InteriorMessage, _activation, check_activation, check_dims,
                         interior_messages, line_matrices, push_pipeline)

PRIOR = RademacherPrior()


@dataclass(frozen=True)
class SpikedModel:
    N: int
    lam: float
    denoiser: str = "tanh"
    theta: float = 1.0
    init_overlap: float = 0.2
    gen_dims: Tuple[int, ...] = ()
    gen_activation: str = "tanh"

    def __post_init__(self):
        check_activation("denoiser", self.denoiser)
        check_activation("gen_activation", self.gen_activation)
        check_dims("gen_dims", self.gen_dims)
        if self.lam < 0:
            raise ValueError(f"lam: must be >= 0, got {self.lam}")

    @property
    def depth(self) -> int:
        return len(self.gen_dims)


def build_spiked_instance(model: SpikedModel, seed: int = 0):
    """Sample (v0, W), form Y, and assemble the estimation graph.

    Returns (instance, v0).  Depth 0 is a single loop; depth L >= 1 is
    the line g0 - ... - g(L-1) - spike with the loop added at spike.
    """
    N, lam = model.N, model.lam
    dims = model.gen_dims + (N,)
    names = [f"g{l}" for l in range(model.depth)] + ["spike"]
    gact = _activation(model.gen_activation)
    if model.depth == 0:
        v0 = PRIOR.sample(N, stream(seed, "spiked", "v0"))
    else:
        gen, _ = line_matrices(names, dims, seed, "spiked", "G")
        v0 = push_pipeline(PRIOR.sample(dims[0], stream(seed, "spiked", "w0")),
                           gen.values(), [Entrywise(**gact).phi] * model.depth)

    W = sample_goe(N, stream(seed, "spiked", "W"), scale_N=N)
    Y = (math.sqrt(lam) / N) * np.outer(v0, v0) + W

    denoiser = _activation(model.denoiser, model.theta)
    loop = EdgeId("spike", "spike")

    if model.depth == 0:
        # informative start aligned with the spike: the two-scalar
        # recursion then begins at (mu0, q0) = (init_overlap, 0)
        inst = GraphInstance(
            graph=single_loop("spike", N),
            matrices={loop: Y},
            provider=stationary_provider({loop: Entrywise(**denoiser)}),
            x0={loop: model.init_overlap * v0.reshape(-1, 1)},
        )
        return inst, v0

    g = with_loop(line_graph(names, dims), "spike")
    mats, scale = line_matrices(names, dims, seed, "spiked", "A")
    fns = interior_messages(g, names, [gact] * model.depth)
    top_up = EdgeId(names[-2], "spike")
    ins_at_spike = edges_into(g, loop)
    # the loop node mixes the loop field with the chain field before
    # the denoiser, and sends the same output both ways
    fns[loop] = fns[top_up.reversed()] = InteriorMessage(
        "up", ins_at_spike.index(loop), ins_at_spike.index(top_up), denoiser)
    fns[EdgeId(names[0], names[1])] = Entrywise(**_activation("tanh"))

    inst = GraphInstance(
        graph=g,
        matrices={loop: Y, **mats},
        provider=stationary_provider(fns),
        x0={loop: 0.1 * np.ones((N, 1))},
        scale_base={loop: float(N), **scale},
    )
    return inst, v0


@dataclass
class SpikedSePoint:
    t: int
    mu: float  # the limit of <v0, x^t> / N
    q: float

    def second_moment(self) -> float:
        """Limit of ||x^t||^2 / N (prior has unit second moment)."""
        return self.mu ** 2 + self.q


def spiked_scalar_se(model: SpikedModel, T: int) -> List[SpikedSePoint]:
    """Two-scalar recursion for the depth-0 spike from (mu, q) =
    (init_overlap, 0), on a 121-node Gauss-Hermite rule."""
    if model.depth != 0:
        raise ValueError("gen_dims: the scalar SE covers the depth-0 spike only")
    f = Entrywise(**_activation(model.denoiser, model.theta)).phi
    v, wv = PRIOR.quad_points()
    gz, wg = gh_points(121)
    sl = math.sqrt(model.lam)
    mu, q = model.init_overlap, 0.0
    pts = [SpikedSePoint(t=0, mu=mu, q=q)]
    for t in range(1, T + 1):
        X = mu * v[:, None] + math.sqrt(max(q, 0.0)) * gz[None, :]
        W2 = wv[:, None] * wg[None, :]
        fx = f(X)
        a = float(np.sum(W2 * v[:, None] * fx))
        q = float(np.sum(W2 * fx ** 2))
        mu = sl * a
        pts.append(SpikedSePoint(t=t, mu=mu, q=q))
    return pts
