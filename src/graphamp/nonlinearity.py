"""Update functions f^t_e with Jacobian-trace (Onsager) capability.

A Nonlinearity consumes the ordered incoming-edge variables of an edge
(all sharing the row dimension of the edge's start node) and produces
the n_start x q_e output m_e.  jacobian_trace returns the un-normalized
block B[j, c] = sum_i d f_{ij} / d X_{ic} with respect to a designated
input block; the engine divides by the edge's variance scale base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Tuple

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
    # only through SideData: the state evolution's Monte Carlo route
    # evaluates all copies in one call, with the side arrays tiled.
    row_local: bool = False
    # (row slice, column slice) pairs with disjoint column slices outside
    # which apply writes exact zeros; the engine multiplies only these
    # and raises ShapeError on a nonzero entry elsewhere.  None: one block.
    out_blocks: Optional[Sequence[Tuple[slice, slice]]] = None

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


def times(X, A):
    """X A for a fixed matrix A; X a for a scalar a, which stands for a I
    at whatever width it meets."""
    return X * A if np.ndim(A) == 0 else X @ A


def _transpose(A):
    return A if np.ndim(A) == 0 else A.T


def sandwich(A, K, B):
    """A^T K B for coefficients A, B (matrices or scalars, see times)."""
    return times(times(_transpose(K), A).T, B)


def _piecewise_linear(kinks, pieces):
    """(phi, phi') of the map slope x + intercept on each interval
    between the ascending kinks.  On a kink phi takes the piece left of
    it, and phi' the flatter of the two pieces meeting there: 0 for relu
    and the soft threshold, as their indicators (x > 0) and (|x| > theta)
    read."""
    slope, intercept = np.array(pieces, dtype=float).T
    left = [False] * len(kinks)
    right = [abs(b) < abs(a) for a, b in zip(slope, slope[1:])]

    def piece(x, on_right):
        # the number of kinks below x, a kink counting when x is on it
        # and on_right says so
        i = np.zeros(np.shape(x), dtype=np.intp)
        for k, r in zip(kinks, on_right):
            i += (x >= k) if r else (x > k)
        return i

    def phi(x):
        i = piece(x, left)
        return slope.take(i) * x + intercept.take(i)

    def dphi(x):
        return slope.take(piece(x, right))

    return phi, dphi


class LinearEntrywiseLinear(Nonlinearity):
    """f(X_1..X_k) = (Y + sum_j X_j M_j + phi(W) R) / den, W = sum_j X_j L_j.

    Y is the side array named offset[0], taken as n rows, times the
    coefficient offset[1]; M and L hold one coefficient per input block,
    None where the block does not enter that term.  A coefficient is a
    fixed matrix or a scalar a, standing for a I.  phi is entrywise with
    derivative dphi and smooth between the points in kinks.  A phi that
    is linear between them is given by its pieces instead of phi and
    dphi: one (slope, intercept) pair per interval, the kinks ascending
    and the pieces meeting at each (to rounding), from which both are
    built (see _piecewise_linear).  Every part is optional; den divides
    last, so (y - V) / (1 + beta) rounds as written.  The Jacobian sum
    with respect to block j is
    (n M_j^T + R^T diag(sum over rows of phi'(W)) L_j^T) / den, and the
    state evolution integrates these maps exactly (see state_evolution).
    """

    row_local = True

    def __init__(self, arity=1, out_cols=1, offset=None, M=None, phi=None,
                 dphi=None, L=None, R=1.0, kinks=(), den=1.0, pieces=None):
        self.arity, self.out_cols, self.offset = arity, out_cols, offset
        self.M = tuple(M) if M is not None else (None,) * arity
        self.L = tuple(L) if L is not None else (None,) * arity
        self.R, self.kinks, self.den = R, tuple(kinks), float(den)
        self.pieces = None if pieces is None else tuple(
            (float(s), float(c)) for s, c in pieces)
        if self.pieces is not None:
            if phi is not None or dphi is not None:
                raise ValueError("pieces: give phi by its pieces or as phi and dphi, not both")
            if (len(self.pieces) != len(self.kinks) + 1
                    or list(self.kinks) != sorted(self.kinks)):
                raise ValueError("pieces: need one (slope, intercept) pair per interval "
                                 "between ascending kinks")
            for k, (s, c), (t, d) in zip(self.kinks, self.pieces, self.pieces[1:]):
                if abs(s * k + c - (t * k + d)) > 1e-12 * max(1.0, abs(s * k), abs(c),
                                                              abs(t * k), abs(d)):
                    raise ValueError(f"pieces: the pieces either side of kink {k} "
                                     "do not meet there")
            phi, dphi = _piecewise_linear(self.kinks, self.pieces)
        self.phi, self.dphi = phi, dphi

    @property
    def affine(self) -> bool:
        """Whether f has a part outside phi (Y or some M_j)."""
        return self.offset is not None or any(A is not None for A in self.M)

    def offset_rows(self, side, n) -> Optional[np.ndarray]:
        """Y, or None when f has no offset."""
        if self.offset is None:
            return None
        return times(side.array(self.offset[0]).reshape(n, -1), self.offset[1])

    def field(self, inputs) -> np.ndarray:
        """W = sum_j X_j L_j."""
        terms = [times(x, A) for x, A in zip(inputs, self.L) if A is not None]
        return sum(terms[1:], terms[0])

    def apply(self, inputs, side=None):
        self.check_inputs(inputs)
        X = [np.asarray(x, dtype=float) for x in inputs]
        terms = [] if self.offset is None else [self.offset_rows(side, len(X[0]))]
        terms += [times(x, A) for x, A in zip(X, self.M) if A is not None]
        if self.phi is not None:
            terms.append(times(self.phi(self.field(X)), self.R))
        if not terms:
            return np.zeros((len(X[0]), self.out_cols))
        return sum(terms[1:], terms[0]) / self.den

    def jacobian_trace(self, inputs, side=None, wrt=0):
        X = [np.asarray(x, dtype=float) for x in inputs]
        n, q = X[wrt].shape
        terms = []
        if self.M[wrt] is not None:
            terms.append(n * sandwich(self.M[wrt], np.eye(q), 1.0))
        if self.phi is not None and self.L[wrt] is not None:
            s = self.dphi(self.field(X)).sum(axis=0)
            terms.append(sandwich(self.R, np.diag(s), _transpose(self.L[wrt])))
        if not terms:
            return np.zeros((self.out_cols, q))
        return sum(terms[1:], terms[0]) / self.den

    def slopes(self, inputs, side=None) -> np.ndarray:
        """d f_i / d x_i entrywise, for a map of one input block of one
        column: (M + phi'(W) L R) / den, which sums to jacobian_trace."""
        self.check_inputs(inputs)
        (x,) = [np.asarray(x, dtype=float) for x in inputs]
        if x.shape[1] != 1:
            raise ShapeError(f"slopes: need one input column, got {x.shape[1]}")
        s = np.zeros(x.shape)
        if self.M[0] is not None:
            s += self.M[0]
        if self.phi is not None and self.L[0] is not None:
            s += self.dphi(self.field([x])) * self.L[0] * self.R
        return s / self.den


def Identity(cols=1) -> LinearEntrywiseLinear:
    return LinearEntrywiseLinear(out_cols=cols, M=[1.0])


def Zero(cols=1, arity=1) -> LinearEntrywiseLinear:
    """Constant zero output (used for off-phase half-iterations)."""
    return LinearEntrywiseLinear(arity=arity, out_cols=cols)


def Entrywise(phi: Optional[Callable] = None, dphi: Optional[Callable] = None,
              kinks=(), pieces=None) -> LinearEntrywiseLinear:
    """phi applied entrywise to a single input block; phi and dphi, or
    the pieces of a phi linear between its kinks."""
    return LinearEntrywiseLinear(phi=phi, dphi=dphi, L=[1.0], kinks=kinks, pieces=pieces)


def AffineResidual(name: str, C=1.0, den=1.0) -> LinearEntrywiseLinear:
    """V -> (Y - V) C / den with Y the side array name: the observation
    residual of the committee (C mixes its columns), the multilayer and
    gmm_spatial chains and the squared-loss GLM (den 1 + beta).  C is a
    matrix or a scalar (see times); the Jacobian sum is -n C^T / den."""
    return LinearEntrywiseLinear(out_cols=np.shape(C)[1] if np.ndim(C) else 1,
                                 offset=(name, C), M=[-C], den=den)


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

