import pytest

from graphamp import GraphError
from graphamp.graphs import (EdgeId, GraphSpec, canonical_edge_order,
                             edges_into, line_graph, require_valid,
                             reversed_input_index, single_loop, validate,
                             with_loop)


def test_edge_id_reverse_and_loop():
    e = EdgeId("a", "b")
    assert e.reversed() == EdgeId("b", "a")
    assert not e.is_loop()
    loop = EdgeId("a", "a")
    assert loop.reversed() == loop
    assert loop.is_loop()


def test_two_node_chain_shapes():
    g = line_graph(["sig", "obs"], [7, 4])
    e = EdgeId("sig", "obs")
    assert validate(g).ok
    # iterate lives at the end node, message at the start node
    assert g.x_shape(e) == (4, 1)
    assert g.m_shape(e) == (7, 1)
    assert g.q(e) == 1
    assert g.N == 11


def test_line_graph_edges_and_order():
    g = line_graph(["z0", "z1", "z2"], [5, 4, 3])
    assert validate(g).ok
    assert len(g.edges) == 4
    order = canonical_edge_order(g)
    assert order == tuple(sorted(order))
    assert set(order) == g.edges


def test_canonical_order_is_loops_then_pairs_and_computed_once():
    edges = [EdgeId("b", "b"), EdgeId("a", "a"), EdgeId("c", "a"), EdgeId("a", "c"),
             EdgeId("b", "a"), EdgeId("a", "b")]
    g = GraphSpec(node_dim={"a": 2, "b": 3, "c": 4}, edges=frozenset(edges))
    order = canonical_edge_order(g)
    assert order == (EdgeId("a", "a"), EdgeId("b", "b"), EdgeId("a", "b"), EdgeId("b", "a"),
                     EdgeId("a", "c"), EdgeId("c", "a"))
    assert canonical_edge_order(g) is order
    assert g == GraphSpec(node_dim=g.node_dim, edges=g.edges)


def test_single_loop_is_self_reversed():
    g = single_loop("spike", 6, q=2)
    loop = EdgeId("spike", "spike")
    assert validate(g).ok
    assert g.x_shape(loop) == (6, 2)
    assert loop in edges_into(g, loop)


def test_with_loop_adds_the_loop_to_a_line():
    line = line_graph(["g0", "spike"], [3, 5])
    g = with_loop(line, "spike")
    loop = EdgeId("spike", "spike")
    assert validate(g).ok
    assert g.edges == line.edges | {loop}
    assert g.node_dim == line.node_dim
    # the top node reads the loop field and the field from below
    assert edges_into(g, loop) == (loop, EdgeId("g0", "spike"))


def test_validate_missing_reverse_edge():
    g = GraphSpec(node_dim={"a": 3, "b": 2},
                  edges=frozenset({EdgeId("a", "b")}),
                  edge_cols={EdgeId("a", "b"): 1})
    res = validate(g)
    assert not res.ok
    assert any("symmetric" in v for v in res.violations)
    with pytest.raises(GraphError):
        require_valid(g)


def test_validate_unknown_vertex_and_bad_dims():
    e, r = EdgeId("a", "ghost"), EdgeId("ghost", "a")
    g = GraphSpec(node_dim={"a": 3}, edges=frozenset({e, r}),
                  edge_cols={e: 1, r: 1})
    res = validate(g)
    assert any("unknown" in v for v in res.violations)
    g2 = GraphSpec(node_dim={"a": 0, "b": 2},
                   edges=frozenset({EdgeId("a", "b"), EdgeId("b", "a")}),
                   edge_cols={EdgeId("a", "b"): 1, EdgeId("b", "a"): 1})
    assert not validate(g2).ok


def test_validate_column_symmetry():
    e, r = EdgeId("a", "b"), EdgeId("b", "a")
    g = GraphSpec(node_dim={"a": 3, "b": 2}, edges=frozenset({e, r}),
                  edge_cols={e: 2, r: 1})
    res = validate(g)
    assert any("column symmetry" in v for v in res.violations)


def test_edges_into_and_reversed_index():
    g = line_graph(["z0", "z1", "z2"], [5, 4, 3])
    e = EdgeId("z1", "z2")
    ins = edges_into(g, e)
    # inputs are the edges ending at the start node of e
    assert set(ins) == {EdgeId("z0", "z1"), EdgeId("z2", "z1")}
    assert ins[reversed_input_index(g, e)] == e.reversed()
