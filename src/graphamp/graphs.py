"""Symmetric directed graphs that index AMP iterations.

A graph couples vertices carrying dimensions n_v with directed edges
carrying column counts q_e.  Every edge (v, w) must come with its
reversed partner (w, v); loops are allowed and are their own reverse.
The iterate x_e attached to edge e = (v, w) is an n_w x q_e matrix, so
the global scale is N = sum of end-node dimensions over directed edges.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

from .errors import GraphError


@dataclass(frozen=True, order=True)
class EdgeId:
    """Directed edge, identified by its start and end vertex ids."""

    start: str
    end: str

    def reversed(self) -> "EdgeId":
        return EdgeId(self.end, self.start)

    def is_loop(self) -> bool:
        return self.start == self.end

    def __str__(self):
        return f"{self.start}->{self.end}"


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple = ()

    def first(self):
        return self.violations[0] if self.violations else None


@dataclass(frozen=True)
class GraphSpec:
    """Symmetric directed graph with node dimensions and edge column counts.

    node_dim maps vertex id -> n_v (rows of variables ending there);
    edge_cols maps edge -> q_e.  Instances are immutable; validate()
    before use.
    """

    node_dim: Mapping[str, int]
    edges: frozenset = field(default_factory=frozenset)
    edge_cols: Mapping[EdgeId, int] = None

    def __post_init__(self):
        object.__setattr__(self, "node_dim", dict(self.node_dim))
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.edge_cols is None:
            object.__setattr__(self, "edge_cols", {e: 1 for e in self.edges})
        else:
            object.__setattr__(self, "edge_cols", dict(self.edge_cols))

    @property
    def vertices(self) -> set:
        return set(self.node_dim)

    @property
    def N(self) -> int:
        """Global dimension: sum of end-node dims over directed edges."""
        return sum(self.node_dim[e.end] for e in self.edges)

    def q(self, e: EdgeId) -> int:
        return self.edge_cols[e]

    def x_shape(self, e: EdgeId) -> tuple:
        return (self.node_dim[e.end], self.edge_cols[e])

    def m_shape(self, e: EdgeId) -> tuple:
        """Shape of m_e = f_e(...): rows live on the start node."""
        return (self.node_dim[e.start], self.edge_cols[e])

    @functools.cached_property
    def _edge_order(self) -> tuple:
        # sorted on first read only: the spec is immutable
        loops = sorted(e for e in self.edges if e.is_loop())
        pairs = sorted(
            {(min(e.start, e.end), max(e.start, e.end)) for e in self.edges if not e.is_loop()}
        )
        order = list(loops)
        for lo, hi in pairs:
            order.append(EdgeId(lo, hi))
            order.append(EdgeId(hi, lo))
        return tuple(order)


def validate(spec: GraphSpec) -> ValidationResult:
    """Check all GraphSpec invariants; reports the violations found."""
    violations = []
    if not spec.edges:
        violations.append("graph has no edges (nothing to iterate)")
    for v, n in spec.node_dim.items():
        if not (isinstance(n, int) and n >= 1):
            violations.append(f"node_dim[{v}] = {n} is not a positive integer")
    for e in sorted(spec.edges):
        if e.start not in spec.node_dim:
            violations.append(f"edge {e}: unknown start vertex {e.start}")
        if e.end not in spec.node_dim:
            violations.append(f"edge {e}: unknown end vertex {e.end}")
        if e.reversed() not in spec.edges:
            violations.append(f"missing symmetric edge ({e.end},{e.start})")
        q = spec.edge_cols.get(e)
        if not (isinstance(q, int) and q >= 1):
            violations.append(f"edge_cols[{e}] = {q} is not a positive integer")
    for e in sorted(spec.edges):
        rev = e.reversed()
        if rev in spec.edge_cols and e in spec.edge_cols:
            if spec.edge_cols[e] != spec.edge_cols[rev]:
                violations.append(
                    f"column symmetry broken: q[{e}]={spec.edge_cols[e]} "
                    f"!= q[{rev}]={spec.edge_cols[rev]}"
                )
    for e in spec.edge_cols:
        if e not in spec.edges:
            violations.append(f"edge_cols mentions unknown edge {e}")
    return ValidationResult(ok=not violations, violations=tuple(violations))


def require_valid(spec: GraphSpec) -> GraphSpec:
    res = validate(spec)
    if not res.ok:
        raise GraphError(res.first())
    return spec


def edges_into(spec: GraphSpec, e: EdgeId) -> tuple:
    """All edges e' with end(e') = start(e), in canonical order.

    These are the variables feeding f_e; the reversed edge of e is
    always among them.
    """
    if e not in spec.edges:
        raise GraphError(f"edge not in graph: {e}")
    return tuple(e2 for e2 in canonical_edge_order(spec) if e2.end == e.start)


def canonical_edge_order(spec: GraphSpec) -> tuple:
    """Deterministic total order on directed edges.

    Loops first, sorted by vertex id; then non-loop pairs sorted by
    (min endpoint, max endpoint), each pair emitted forward (min, max)
    then backward.  This fixes the block layout of the symmetric
    embedding.  Computed once per spec.
    """
    return spec._edge_order


def reversed_input_index(spec: GraphSpec, e: EdgeId) -> int:
    """Position of x_{e<-} among the canonical inputs of f_e."""
    return edges_into(spec, e).index(e.reversed())


def line_graph(names, dims, q: int = 1) -> GraphSpec:
    """Line graph v0 - v1 - ... - vL (L edge pairs)."""
    if len(names) != len(dims) or len(names) < 2:
        raise GraphError("line_graph needs matching names/dims, length >= 2")
    edges = set()
    for a, b in zip(names, names[1:]):
        edges.add(EdgeId(a, b))
        edges.add(EdgeId(b, a))
    return GraphSpec(
        node_dim=dict(zip(names, dims)),
        edges=frozenset(edges),
        edge_cols={e: q for e in edges},
    )


def single_loop(name: str, dim: int, q: int = 1) -> GraphSpec:
    e = EdgeId(name, name)
    return GraphSpec(node_dim={name: dim}, edges=frozenset({e}), edge_cols={e: q})


def with_loop(spec: GraphSpec, name: str) -> GraphSpec:
    """spec with a one-column loop added at its vertex name."""
    e = EdgeId(name, name)
    return GraphSpec(node_dim=spec.node_dim, edges=spec.edges | {e},
                     edge_cols={**spec.edge_cols, e: 1})
