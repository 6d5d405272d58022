"""Update functions f^t_e with Jacobian-trace (Onsager) capability.

A Nonlinearity consumes the ordered incoming-edge variables of an edge
(all sharing the row dimension of the edge's start node) and produces
the n_start x q_e output m_e.  jacobian_trace returns the un-normalized
block B[j, c] = sum_i d f_{ij} / d X_{ic} with respect to a designated
input block; the engine divides by the edge's variance scale base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import ShapeError

FD_STEP = float(np.cbrt(np.finfo(float).eps))


@dataclass(frozen=True)
class SideData:
    """Named arrays attached to an edge's update function."""

    arrays: Mapping[str, np.ndarray] = field(default_factory=dict)

    def array(self, name):
        return self.arrays[name]


class Nonlinearity:
    """Base class; subclasses implement apply and, ideally, an analytic
    jacobian_trace.  The default jacobian_trace falls back to central
    finite differences (O(n q) applies when row_local, O(n^2 q) else).
    """

    arity: int = 1
    out_cols: int = 1
    # True when output row i depends only on row i of every input block.
    # Per-row data (anything that differs between rows) must then come
    # only through SideData: with no side data, the state evolution takes
    # the rows as exchangeable and integrates one row on a grid.
    row_local: bool = False

    def apply(self, inputs: Sequence[np.ndarray], side: Optional[SideData] = None) -> np.ndarray:
        raise NotImplementedError

    def jacobian_trace(self, inputs, side=None, wrt: int = 0) -> np.ndarray:
        return fd_jacobian_trace(self, inputs, side=side, wrt=wrt)

    @property
    def fd_trace(self) -> bool:
        """True when jacobian_trace is the finite-difference fallback."""
        return type(self).jacobian_trace is Nonlinearity.jacobian_trace

    def check_inputs(self, inputs):
        if len(inputs) != self.arity:
            raise ShapeError(f"{type(self).__name__}: expected {self.arity} input blocks, got {len(inputs)}")
        rows = {x.shape[0] for x in inputs}
        if len(rows) > 1:
            raise ShapeError(f"{type(self).__name__}: input row counts differ: {sorted(rows)}")


def fd_jacobian_trace(f: Nonlinearity, inputs, side=None, wrt=0) -> np.ndarray:
    """Central-difference Jacobian trace, step h = cbrt(eps) * (1 + |x|)."""
    inputs = [np.asarray(x, dtype=float) for x in inputs]
    X = inputs[wrt]
    n, qw = X.shape
    B = np.zeros((f.apply(inputs, side).shape[1], qw))

    def eval_with(Xmod):
        mod = list(inputs)
        mod[wrt] = Xmod
        return f.apply(mod, side)

    for c in range(qw):
        h = FD_STEP * (1.0 + np.abs(X[:, c]))
        if f.row_local:
            Xp = X.copy()
            Xp[:, c] += h
            Xm = X.copy()
            Xm[:, c] -= h
            fp = eval_with(Xp)
            fm = eval_with(Xm)
            inv2h = 1.0 / (2.0 * h)
            B[:, c] = ((fp - fm) * inv2h[:, None]).sum(axis=0)
        else:
            for i in range(n):
                hi = h[i]
                Xp = X.copy()
                Xp[i, c] += hi
                Xm = X.copy()
                Xm[i, c] -= hi
                fp = eval_with(Xp)
                fm = eval_with(Xm)
                B[:, c] += (fp[i, :] - fm[i, :]) / (2.0 * hi)
    return B


class Identity(Nonlinearity):
    row_local = True

    def __init__(self, cols=1):
        self.out_cols = cols

    def apply(self, inputs, side=None):
        self.check_inputs(inputs)
        return np.array(inputs[0], dtype=float, copy=True)

    def jacobian_trace(self, inputs, side=None, wrt=0):
        n, q = inputs[0].shape
        return float(n) * np.eye(q)


class Zero(Nonlinearity):
    """Constant zero output (used for off-phase half-iterations)."""

    row_local = True

    def __init__(self, cols=1, arity=1):
        self.out_cols = cols
        self.arity = arity

    def apply(self, inputs, side=None):
        self.check_inputs(inputs)
        return np.zeros((inputs[0].shape[0], self.out_cols))

    def jacobian_trace(self, inputs, side=None, wrt=0):
        return np.zeros((self.out_cols, inputs[wrt].shape[1]))


class Entrywise(Nonlinearity):
    """phi applied entrywise to a single input block."""

    row_local = True

    def __init__(self, phi: Callable, dphi: Callable):
        self.phi = phi
        self.dphi = dphi

    def apply(self, inputs, side=None):
        self.check_inputs(inputs)
        return self.phi(np.asarray(inputs[0], dtype=float))

    def jacobian_trace(self, inputs, side=None, wrt=0):
        X = np.asarray(inputs[0], dtype=float)
        return np.diag(self.dphi(X).sum(axis=0))


class EntrywiseThenMix(Nonlinearity):
    """X -> phi(X) @ R: entrywise map followed by a column mix.

    The per-row Jacobian is R^T diag(phi'(X_i)), so the trace block is
    R^T diag(column sums of phi').  Exercises non-diagonal Onsager
    blocks in the matrix-valued path.
    """

    row_local = True

    def __init__(self, phi, dphi, R):
        self.phi = phi
        self.dphi = dphi
        self.R = np.asarray(R, dtype=float)
        self.out_cols = self.R.shape[1]

    def apply(self, inputs, side=None):
        self.check_inputs(inputs)
        X = np.asarray(inputs[0], dtype=float)
        if X.shape[1] != self.R.shape[0]:
            raise ShapeError(f"mix expects {self.R.shape[0]} input columns, got {X.shape[1]}")
        return self.phi(X) @ self.R

    def jacobian_trace(self, inputs, side=None, wrt=0):
        X = np.asarray(inputs[0], dtype=float)
        return self.R.T * self.dphi(X).sum(axis=0)[None, :]


class Scaled(Nonlinearity):
    """c * f, same inputs; Jacobian trace scales linearly."""

    def __init__(self, inner: Nonlinearity, c: float):
        self.inner = inner
        self.c = float(c)
        self.arity = inner.arity
        self.out_cols = inner.out_cols
        self.row_local = inner.row_local

    def apply(self, inputs, side=None):
        return self.c * self.inner.apply(inputs, side)

    def jacobian_trace(self, inputs, side=None, wrt=0):
        return self.c * self.inner.jacobian_trace(inputs, side=side, wrt=wrt)

    @property
    def fd_trace(self) -> bool:
        return self.inner.fd_trace


class FromCallable(Nonlinearity):
    """Adapter for ad-hoc functions; Jacobian trace by finite differences
    unless an analytic jac(inputs, side, wrt) is supplied."""

    def __init__(self, fn, out_cols=1, arity=1, jac=None, row_local=False):
        self.fn = fn
        self.out_cols = out_cols
        self.arity = arity
        self.jac = jac
        self.row_local = row_local

    def apply(self, inputs, side=None):
        self.check_inputs(inputs)
        return self.fn(inputs, side)

    def jacobian_trace(self, inputs, side=None, wrt=0):
        if self.jac is not None:
            return self.jac(inputs, side, wrt)
        return fd_jacobian_trace(self, inputs, side=side, wrt=wrt)

    @property
    def fd_trace(self) -> bool:
        return self.jac is None


def relu(x):
    return np.maximum(x, 0.0)


def estimate_pl_constant(f: Nonlinearity, in_cols, n_rows, budget=64, rng=None, k=1, side=None):
    """Empirical pseudo-Lipschitz constant probe.

    Samples input pairs at a few magnitudes and returns (k, Lhat) where
    Lhat is the max of ||f(x)-f(y)||_F/sqrt(m) over the order-k bound
    factor times ||x-y||_F/sqrt(n).  A sanity probe, not a certificate.
    """
    rng = rng or np.random.default_rng(0)
    if isinstance(in_cols, int):
        in_cols = [in_cols]
    best = 0.0
    for _ in range(budget):
        scale = float(rng.choice([0.1, 1.0, 3.0, 10.0]))
        xs = [scale * rng.standard_normal((n_rows, q)) for q in in_cols]
        ys = [x + rng.standard_normal(x.shape) * scale * float(rng.uniform(0.01, 1.0)) for x in xs]
        fx = f.apply(xs, side)
        fy = f.apply(ys, side)
        m = fx.shape[0]
        num = np.linalg.norm(fx - fy) / np.sqrt(m)
        nx = np.sqrt(sum(np.linalg.norm(x) ** 2 for x in xs) / n_rows)
        ny = np.sqrt(sum(np.linalg.norm(y) ** 2 for y in ys) / n_rows)
        dist = np.sqrt(sum(np.linalg.norm(x - y) ** 2 for x, y in zip(xs, ys)) / n_rows)
        if dist == 0:
            continue
        bound_factor = (1.0 + nx ** (k - 1) + ny ** (k - 1)) * dist
        best = max(best, num / bound_factor)
    return k, best
