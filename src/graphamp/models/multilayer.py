"""Multilayer estimation on a line graph.

A depth-L pipeline z_0 -> phi_1(A_1 z_0) -> ... -> y couples L + 1
nodes in a line; each interior node carries two incoming fields (one
from below, one from above) and sends messages both ways:

    zhat      = (x_below + x_above) / 2        (combined local field)
    downward  = zhat - x_below                 (residual message)
    upward    = phi(zhat)                      (activation push)

The end nodes apply a penalty prox (signal side) and the residual
(y - v) / 2 (observation side).  All scales are fixed constants, so the
provider is time-independent and the plain covariance recursion
applies at every depth, L = 1 (one edge pair, no interior node)
included.

The observations are sampled from an independent copy of the pipeline
(fresh matrices), which keeps the side data independent of the
matrices the iteration multiplies by; that is the regime the
Gaussian-limit prediction covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Dict, Tuple

import numpy as np

from ..engine import GraphInstance, stationary_provider
from ..ensembles import sample_iid, stream
from ..gamp_se import GaussBernoulliPrior, GlmScalars
from ..graphs import EdgeId, edges_into, line_graph
from ..nonlinearity import (AffineResidual, Entrywise, LinearEntrywiseLinear,
                            Nonlinearity, SideData)

PRIOR = GaussBernoulliPrior()
# Soft threshold small enough that typical interior fields (rms
# around 0.15 for unit weights) are not annihilated.
SIGNAL_PROX = GlmScalars("abs", 0.05)
# the weight of each of an interior node's two fields in zhat
MIX = 0.5

# name -> theta -> the LinearEntrywiseLinear arguments giving phi, the
# map x -> name(theta x): its kinks and pieces where it is linear between
# them, else phi and phi'
ACTIVATIONS = {
    "linear": lambda theta: {"pieces": ((theta, 0.0),)},
    "relu": lambda theta: {"kinks": (0.0,),
                           "pieces": ((min(theta, 0.0), 0.0), (max(theta, 0.0), 0.0))},
    "tanh": lambda theta: {"phi": lambda x: np.tanh(theta * x),
                           "dphi": lambda x: theta * (1.0 - np.tanh(theta * x) ** 2)},
}


def check_activation(path: str, kind) -> None:
    if not isinstance(kind, str) or kind not in ACTIVATIONS:
        raise ValueError(f"{path}: unknown activation {kind!r}; expected one "
                         f"of {', '.join(ACTIVATIONS)}")


def check_dims(path: str, dims) -> None:
    for i, d in enumerate(dims):
        if isinstance(d, bool) or not isinstance(d, Integral) or d < 1:
            raise ValueError(f"{path}[{i}]: expected a positive int, got {d!r}")


def _activation(kind: str, theta: float = 1.0):
    """The LinearEntrywiseLinear arguments giving phi, the named map
    x -> kind(theta x)."""
    return ACTIVATIONS[kind](theta)


@dataclass(frozen=True)
class LayerSpec:
    """One linear-then-activation stage: output width and nonlinearity."""

    dim: int
    activation: str = "linear"


def layer_specs(dims, activations):
    if len(dims) != len(activations):
        raise ValueError("dims and activations must have equal length")
    return tuple(LayerSpec(d, a) for d, a in zip(dims, activations))


@dataclass(frozen=True)
class MultilayerModel:
    d0: int
    layers: Tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("dims: need at least one layer")
        check_dims("dims", self.dims[1:])
        for i, layer in enumerate(self.layers):
            check_activation(f"activations[{i}]", layer.activation)

    @property
    def L(self) -> int:
        return len(self.layers)

    @property
    def dims(self) -> Tuple[int, ...]:
        return (self.d0,) + tuple(l.dim for l in self.layers)


def InteriorMessage(direction: str, below_index: int, above_index: int,
                    act=None) -> LinearEntrywiseLinear:
    """Message out of a node with two incoming fields: combines them as
    zhat = MIX x_below + MIX x_above and emits either the residual
    zhat - x_below ("down") or phi(zhat) ("up", with act the arguments
    giving phi, see _activation).  Interior nodes of the multilayer and
    generative chains use it, and so does the spiked loop node."""
    coef = [None, None]
    if direction == "down":
        coef[below_index], coef[above_index] = MIX - 1.0, MIX
        return LinearEntrywiseLinear(arity=2, M=coef)
    coef[below_index] = coef[above_index] = MIX
    return LinearEntrywiseLinear(arity=2, L=coef, **act)


def push_pipeline(z: np.ndarray, mats, phis) -> np.ndarray:
    """z pushed through the layer maps z <- phi_l(A_l z), l = 1..L."""
    for A, phi in zip(mats, phis):
        z = phi(A @ z)
    return z


def line_matrices(names, dims, seed: int, *labels):
    """(matrices, scale bases) of the upward edges names[l-1] -> names[l]
    of a line: A_l is iid with variance 1/dims[l-1], drawn from
    stream(seed, *labels, l), and dims[l-1] is its scale base."""
    up = [EdgeId(a, b) for a, b in zip(names, names[1:])]
    mats = {e: sample_iid(dims[l], dims[l - 1], dims[l - 1], stream(seed, *labels, l))
            for l, e in enumerate(up, start=1)}
    return mats, {e: float(dims[l - 1]) for l, e in enumerate(up, start=1)}


def interior_messages(g, names, acts) -> Dict[EdgeId, Nonlinearity]:
    """The down/up InteriorMessage pair out of every interior node
    names[l] (0 < l < L) of a line in g.  Both read the fields from below
    (names[l-1] -> names[l]) and above (names[l+1] -> names[l]) in their
    edges_into slots; acts[l - 1] is the up message's activation."""
    fns: Dict[EdgeId, Nonlinearity] = {}
    for l in range(1, len(names) - 1):
        below, above = EdgeId(names[l - 1], names[l]), EdgeId(names[l + 1], names[l])
        ins = edges_into(g, above.reversed())
        bi, ai = ins.index(below), ins.index(above)
        fns[below.reversed()] = InteriorMessage("down", bi, ai)
        fns[above.reversed()] = InteriorMessage("up", bi, ai, acts[l - 1])
    return fns


def build_multilayer_instance(model: MultilayerModel, seed: int = 0):
    """Assemble the line-graph instance; returns (instance, y)."""
    dims = model.dims
    names = [f"z{l}" for l in range(model.L + 1)]
    g = line_graph(names, dims)
    mats, scale = line_matrices(names, dims, seed, "mlayer", "A")
    fresh, _ = line_matrices(names, dims, seed, "mlayer", "indep")
    acts = [_activation(layer.activation) for layer in model.layers]
    y = push_pipeline(PRIOR.sample(model.d0, stream(seed, "mlayer", "teacher", "signal")),
                      fresh.values(), [Entrywise(**act).phi for act in acts])

    up = list(mats)
    fns = interior_messages(g, names, acts)
    fns[up[0]] = SIGNAL_PROX.signal_map(1.0)
    fns[up[-1].reversed()] = AffineResidual("y", den=2.0)

    instance = GraphInstance(
        graph=g,
        matrices=mats,
        provider=stationary_provider(fns),
        x0={up[0]: np.full(g.x_shape(up[0]), 0.3)},
        side={up[-1].reversed(): SideData(arrays={"y": y})},
        scale_base=scale,
    )
    return instance, y
