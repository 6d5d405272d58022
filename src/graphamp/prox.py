"""Proximal operators used by the denoiser library.

prox_{gamma f}(v) = argmin_p f(p) + ||p - v||^2 / (2 gamma), applied
entrywise (all shipped penalties/losses are separable).  Shipped kinds:

  abs       f(p) = weight * |p|               (soft threshold)
  squared   f(p) = weight/2 * p^2
  logistic  f(p) = weight * log(1 + exp(-y p)), labels y in {+-1}

The derivative at the kinks of abs uses the closed-active-set
convention (derivative 0 exactly at the kink).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

LOGISTIC_TOL = 1e-10
LOGISTIC_MAX_ITERS = 100

_KINDS = ("abs", "squared", "logistic")


@dataclass(frozen=True)
class ProxSpec:
    """Identifies a penalty/loss and its prox scale gamma > 0."""

    kind: str
    gamma: float
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown prox kind {self.kind!r}; expected one of {_KINDS}")
        if not self.gamma > 0:
            raise ValueError(f"prox scale gamma must be > 0, got {self.gamma}")


def soft_threshold(v, thresh):
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def soft_threshold_pieces(thresh: float, slope: float):
    """(kinks, pieces) of slope * soft_threshold(x, thresh), the map
    linear between its kinks (see nonlinearity.LinearEntrywiseLinear)."""
    cut = slope * thresh
    return (-thresh, thresh), ((slope, cut), (0.0, 0.0), (slope, -cut))


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_prox(v, gw, y):
    """Solve p - v - gw * y * sigmoid(-y p) = 0 per entry.

    Safeguarded Newton: the residual is strictly increasing in p with
    slope >= 1, and the root lies in [v - gw, v + gw]; iterates are
    clamped to the shrinking bracket.
    """
    v = np.asarray(v, dtype=float)
    lo = v - gw
    hi = v + gw
    p = v.copy()
    for _ in range(LOGISTIC_MAX_ITERS):
        s = _sigmoid(-y * p)
        res = p - v - gw * y * s
        below = res < 0
        lo = np.where(below, p, lo)
        hi = np.where(below, hi, p)
        slope = 1.0 + gw * s * (1.0 - s)
        step = res / slope
        p_new = p - step
        outside = (p_new < lo) | (p_new > hi)
        p_new = np.where(outside, 0.5 * (lo + hi), p_new)
        if np.max(np.abs(res)) < LOGISTIC_TOL and np.max(np.abs(p_new - p)) < LOGISTIC_TOL:
            return p_new
        p = p_new
    res = p - v - gw * y * _sigmoid(-y * p)
    worst = float(np.max(np.abs(res)))
    if worst > 100 * LOGISTIC_TOL:
        raise NumericalError(f"logistic prox did not converge, residual {worst:.3e}")
    return p


def prox(spec: ProxSpec, v, labels=None):
    """Entrywise prox_{gamma f}(v); logistic needs labels of v's shape."""
    v = np.asarray(v, dtype=float)
    g, w = spec.gamma, spec.weight
    if spec.kind == "abs":
        return soft_threshold(v, g * w)
    if spec.kind == "squared":
        return v / (1.0 + g * w)
    if spec.kind == "logistic":
        if labels is None:
            raise ValueError("logistic prox needs labels")
        y = np.asarray(labels, dtype=float)
        if y.shape != v.shape:
            raise ValueError(f"labels shape {y.shape} != input shape {v.shape}")
        return _logistic_prox(v, g * w, y)
    raise AssertionError(spec.kind)


def prox_deriv(spec: ProxSpec, v, labels=None):
    """Entrywise derivative d prox_{gamma f}(v) / dv.

    For logistic it follows from the implicit optimality equation:
    dp/dv = 1 / (1 + gamma w sigmoid'(-y p)).
    """
    v = np.asarray(v, dtype=float)
    g, w = spec.gamma, spec.weight
    if spec.kind == "abs":
        return (np.abs(v) > g * w).astype(float)
    if spec.kind == "squared":
        return np.full_like(v, 1.0 / (1.0 + g * w))
    if spec.kind == "logistic":
        p = prox(spec, v, labels)
        y = np.asarray(labels, dtype=float)
        s = _sigmoid(-y * p)
        return 1.0 / (1.0 + g * w * s * (1.0 - s))
    raise AssertionError(spec.kind)


def penalty_value(spec: ProxSpec, p, labels=None):
    """f(p) summed over entries (used by optimality checks)."""
    p = np.asarray(p, dtype=float)
    w = spec.weight
    if spec.kind == "abs":
        return w * float(np.sum(np.abs(p)))
    if spec.kind == "squared":
        return 0.5 * w * float(np.sum(p * p))
    if spec.kind == "logistic":
        y = np.asarray(labels, dtype=float)
        z = -y * p
        return w * float(np.sum(np.logaddexp(0.0, z)))
    raise AssertionError(spec.kind)


def penalty_grad(spec: ProxSpec, p, labels=None):
    """f'(p) entrywise for the differentiable kinds."""
    p = np.asarray(p, dtype=float)
    w = spec.weight
    if spec.kind == "squared":
        return w * p
    if spec.kind == "logistic":
        y = np.asarray(labels, dtype=float)
        return -w * y * _sigmoid(-y * p)
    raise ValueError(f"penalty_grad undefined for kind {spec.kind!r}")
