"""Invariants that hold by construction, checked on random symmetric
graphs: loops and pairs over up to three vertices, dims 3-40, q 1-3,
entrywise (optionally column-mixed) update functions, or random
linear-entrywise-linear maps with side-data offsets.

The tests draw their examples from @seed(0), not from a hash of their
source, so an edit to a test body keeps the examples it runs."""

import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from graphamp import CommitteeModel, build_committee_instance
from graphamp.embedding import (embed, onsager_block_pattern_err,
                                verify_equivalence)
import dataclasses

from graphamp.engine import GraphInstance, run, stationary_provider
from graphamp.ensembles import normals, sample_goe, sample_iid, stream
from graphamp.graphs import (EdgeId, GraphSpec, canonical_edge_order, edges_into,
                             reversed_input_index)
from graphamp.nonlinearity import (Entrywise, FromCallable,
                                   LinearEntrywiseLinear, SideData, sandwich)
from graphamp.models.multilayer import ACTIVATIONS, SIGNAL_PROX, _activation
from graphamp.gamp_se import GlmScalars
from graphamp.prox import ProxSpec, prox, prox_deriv, soft_threshold
from graphamp.state_evolution import se_run
from helpers import soft_gaussian_moments

LAM = 0.3  # the soft threshold's level
# name -> the LinearEntrywiseLinear arguments giving phi: phi and phi',
# or the kinks and pieces of a phi linear between them
PHIS = {
    "tanh": {"phi": np.tanh, "dphi": lambda x: 1.0 - np.tanh(x) ** 2},
    "sin": {"phi": np.sin, "dphi": np.cos},
    "soft": {"kinks": (-LAM, LAM), "pieces": ((1.0, LAM), (0.0, 0.0), (1.0, -LAM))},
}


def OnBlock(phi_args, R, k, arity, out_cols):
    """The map of phi_args, mixed by R, applied to block k of an edge
    with several inputs; the Jacobian sum with respect to every other
    block is zero."""
    L = [None] * arity
    L[k] = 1.0
    return LinearEntrywiseLinear(arity=arity, out_cols=out_cols, L=L, R=R, **phi_args)


def _mc_twins(instance):
    """instance with every map wrapped in FromCallable: the same updates,
    which the state evolution takes by Monte Carlo."""
    g = instance.graph
    table = {e: FromCallable(f.apply, out_cols=f.out_cols, arity=f.arity,
                             jac=f.jacobian_trace, row_local=True)
             for e, f in ((e, instance.provider(e, 0, None)) for e in g.edges)}
    return dataclasses.replace(instance, provider=stationary_provider(table))


def _random_graph(draw):
    """(graph, matrices, scale_base, seed) of a random symmetric graph."""
    V = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(V)]
    loops = [EdgeId(v, v) for v in names if draw(st.booleans())]
    pairs = [EdgeId(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if draw(st.booleans())]
    if not loops and not pairs:
        loops = [EdgeId(names[0], names[0])]
    keys = loops + pairs
    used = sorted({v for e in keys for v in (e.start, e.end)})
    node_dim = {v: draw(st.integers(3, 40)) for v in used}
    cols = {}
    for e in keys:
        cols[e] = cols[e.reversed()] = draw(st.integers(1, 3))
    g = GraphSpec(node_dim=node_dim, edges=frozenset(cols), edge_cols=cols)

    seed = draw(st.integers(0, 2 ** 16))
    matrices, scale = {}, {}
    for e in keys:
        rng = stream(seed, "matrix", str(e))
        n_in = node_dim[e.start]
        if e.is_loop():
            matrices[e] = sample_goe(n_in, rng, scale_N=n_in)
        else:
            matrices[e] = sample_iid(node_dim[e.end], n_in, n_in, rng)
        scale[e] = float(n_in)
    return g, matrices, scale, seed


@st.composite
def symmetric_instances(draw):
    g, matrices, scale, seed = _random_graph(draw)
    fns = {}
    for e in canonical_edge_order(g):
        ins = edges_into(g, e)
        k = draw(st.integers(0, len(ins) - 1))
        q_in, q_out = g.q(ins[k]), g.q(e)
        phi_args = PHIS[draw(st.sampled_from(sorted(PHIS)))]
        if q_in != q_out or draw(st.booleans()):
            R = normals(stream(seed, "mix", str(e)), (q_in, q_out))
            f = LinearEntrywiseLinear(out_cols=q_out, L=[1.0], R=R, **phi_args)
        else:
            f = Entrywise(**phi_args)
        fns[e] = f if len(ins) == 1 else OnBlock(phi_args, f.R, k, len(ins), q_out)

    x0 = {e: normals(stream(seed, "x0", str(e)), g.x_shape(e))
          for e in g.edges}
    instance = GraphInstance(graph=g, matrices=matrices,
                             provider=stationary_provider(fns), x0=x0,
                             scale_base=scale)
    return instance, draw(st.integers(1, 5)), seed


@seed(0)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(symmetric_instances())
def test_random_graphs_embed_exactly(case):
    instance, T, seed = case
    g = instance.graph
    order = canonical_edge_order(g)
    assert len(order) == len(g.edges) and set(order) == set(g.edges)

    # two embed seeds: two GOE fills of the untracked blocks
    for s in (seed, seed + 1):
        assert verify_equivalence(instance, T, seed=s).max_err <= 1e-10

    emb = embed(instance, seed=seed)
    loop = emb.loop_edge
    sym = run(emb.symmetric, T)
    for t in range(T):
        f = emb.symmetric.provider(loop, t, {loop: sym.b[loop][t - 1]} if t else None)
        B = f.jacobian_trace([sym.x[loop][t]])
        assert onsager_block_pattern_err(emb.layout, B) == 0.0


def _assert_symmetric_psd(cov, instance):
    for e in instance.graph.edges:
        for t in range(1, cov.T + 1):
            C = cov.kernel(e, t)
            tol = 1e-12 * np.trace(C)
            assert np.abs(C - C.T).max() <= tol, (e, t)
            assert np.linalg.eigvalsh(C)[0] >= -tol, (e, t)


@seed(0)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(symmetric_instances())
def test_random_graph_se_kernels_are_symmetric_psd(case):
    # a small budget on the Monte Carlo route
    instance, T, seed = case
    _assert_symmetric_psd(se_run(_mc_twins(instance), T, reps=16, seed=seed),
                          instance)


@seed(0)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(symmetric_instances())
def test_random_graph_se_kernels_are_symmetric_psd_on_the_grid(case):
    # the exact route (every map is a LinearEntrywiseLinear)
    instance, T, seed = case
    _assert_symmetric_psd(se_run(instance, T, reps=16, seed=seed), instance)


@st.composite
def affine_or_phi_instances(draw):
    """Random graphs whose maps are random LinearEntrywiseLinear maps over
    a random subset of the input blocks, each either affine (a side-data
    offset plus random M_j) or a random phi(sum_j X_j L_j) R.  Every map
    reads its reversed edge, the input its Onsager term corrects, and W
    is as wide as the output."""
    g, matrices, scale, seed = _random_graph(draw)
    fns, side = {}, {}
    for e in canonical_edge_order(g):
        ins = edges_into(g, e)
        use = [draw(st.booleans()) for _ in ins]
        use[reversed_input_index(g, e)] = True
        q = g.q(e)

        def coef(rows, label):
            return normals(stream(seed, label, str(e)), (rows, q)) / np.sqrt(rows * len(ins))

        blocks = [coef(g.q(ein), f"{j}") if u else None
                  for j, (ein, u) in enumerate(zip(ins, use))]
        if draw(st.booleans()):
            side[e] = SideData(arrays={"y": normals(stream(seed, "y", str(e)),
                                                    (g.node_dim[e.start], q))})
            fns[e] = LinearEntrywiseLinear(arity=len(ins), out_cols=q,
                                           offset=("y", coef(q, "Y")), M=blocks)
        else:
            phi_args = PHIS[draw(st.sampled_from(sorted(PHIS)))]
            fns[e] = LinearEntrywiseLinear(arity=len(ins), out_cols=q, L=blocks,
                                           R=coef(q, "R"), **phi_args)
    x0 = {e: normals(stream(seed, "x0", str(e)), g.x_shape(e)) for e in g.edges}
    instance = GraphInstance(graph=g, matrices=matrices,
                             provider=stationary_provider(fns), x0=x0,
                             side=side, scale_base=scale)
    return instance, draw(st.integers(2, 3)), seed


def _unreached_soft_block(instance, cov, e, t, copies):
    """The block K^{t+1,t+1} of edge e from helpers.soft_gaussian_moments
    on the fields of cov's time-t kernels, when e's map is the soft
    threshold and `copies` Monte Carlo copies of its field expect fewer
    than one entry past the threshold; None otherwise."""
    g = instance.graph
    f = instance.provider(e, t, None)
    if f.pieces != PHIS["soft"]["pieces"]:
        return None
    C = sum(sandwich(L, cov.kernel(ein, t), L)
            for L, ein in zip(f.L, edges_into(g, e)) if L is not None)
    n = g.node_dim[e.start]
    # P(|W_a| > LAM) = erfc(LAM / (sd_a sqrt 2))
    past = sum(math.erfc(LAM / math.sqrt(2.0 * v)) for v in np.diag(C) if v > 0.0)
    if copies * n * past >= 1.0:
        return None
    return n * sandwich(f.R, soft_gaussian_moments(C, LAM), f.R) / (
        f.den * f.den * instance.scale(e))


@seed(0)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(affine_or_phi_instances())
def test_random_maps_exact_kernels_match_tenfold_monte_carlo(case):
    # exact kernels against the mean of R Monte Carlo runs of the twins
    # at ten times the budget, each time's q x q block within 4 sd of
    # that mean; the floor covers tails (a soft threshold far above its
    # field's sd) that the copies seldom reach.  A soft block whose copies
    # expect to reach none is held to soft_gaussian_moments, which does
    instance, T, seed = case
    B, R = 50, 32
    exact = se_run(instance, T, reps=B, seed=seed)
    refs = [se_run(_mc_twins(instance), T, reps=10 * B, seed=seed + 1 + r)
            for r in range(R)]
    for e in instance.graph.edges:
        K = np.stack([ref.K[e] for ref in refs])
        mean, var = K.mean(axis=0), K.var(axis=0, ddof=1)
        floor = 1e-8 * np.abs(exact.K[e]).max()
        for t in range(T):
            want, sd = mean[t], np.sqrt(var[t].sum() / R)
            unreached = _unreached_soft_block(instance, exact, e, t, 10 * B) if t else None
            if unreached is not None:
                want, sd = unreached, 0.0
            assert np.linalg.norm(exact.K[e][t] - want) <= 4 * sd + floor, (e, t)


@seed(0)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(affine_or_phi_instances())
def test_flattened_se_is_the_graph_se(case):
    # the reduction at the level of the SE: the flattened loop's kernel,
    # on the Monte Carlo route (its map is no LinearEntrywiseLinear), holds
    # each edge's exact graph kernel on its diagonal block, within 4 sd of
    # the mean of R runs as in the tenfold test, and zeros across edges;
    # a flattening whose variance base is 10% off fails the comparison
    instance, _, seed = case
    T, B, R = 3, 24, 16
    graph = se_run(instance, T, seed=seed)
    emb = embed(instance)
    loop = emb.loop_edge
    diagonal = np.zeros((emb.layout.q_tot,) * 2, dtype=bool)
    for cols in emb.layout.col_slices.values():
        diagonal[cols, cols] = True

    def errors(flat):
        """(t = 1 error, largest cross-edge entry, largest excess of a
        later diagonal block over 4 sd plus the floor)"""
        K = np.stack([se_run(flat, T, reps=B, seed=seed + 1 + r).K[loop]
                      for r in range(R)])
        t1 = excess = 0.0
        for e, cols in emb.layout.col_slices.items():
            exact, runs = graph.K[e], K[:, :, cols, cols]
            big = np.abs(exact).max()
            t1 = max(t1, np.abs(runs[:, 0] - exact[0]).max() / max(big, 1.0))
            mean, var = runs.mean(axis=0), runs.var(axis=0, ddof=1)
            for t in range(1, T):
                sd = np.sqrt(var[t].sum() / R)
                excess = max(excess, np.linalg.norm(exact[t] - mean[t])
                             - 4 * sd - 1e-8 * big)
        return t1, np.abs(K[:, :, ~diagonal]).max(initial=0.0), excess

    t1, cross, excess = errors(emb.symmetric)
    assert t1 <= 1e-12 and cross <= 1e-12 and excess <= 0.0
    wrong = dataclasses.replace(emb.symmetric, scale_base={loop: 1.1 * emb.layout.N})
    t1, _, excess = errors(wrong)
    assert t1 > 1e-12 and excess > 0.0


def _piecewise_maps(theta):
    """(map, phi, phi', rel) for every map given by its pieces, with the
    phi and phi' it stands for, to within rel of their size (0: to the
    bit): the committee's soft threshold at |theta|, the activations
    given by pieces at theta, PHIS's soft threshold, and the GLM penalty
    prox u -> prox_{alpha penalty}(alpha u) at alpha 1 and 1.7 and, for
    "abs", weights 0, the multilayer's, 1.2 and |theta|.  relu's phi'
    reads the sign of theta x off theta and x, which keeps it where
    theta x underflows to 0."""
    def soft(t):
        return (lambda x: soft_threshold(x, t)), (lambda x: (np.abs(x) > t).astype(float))

    def penalty(kind, alpha, w):
        spec = ProxSpec(kind, alpha, w)
        f = GlmScalars(penalty=ProxSpec(kind, 1.0, w)).signal_map(alpha)
        # the "squared" map is the slope alpha / (1 + alpha w) times u,
        # which rounds differently from prox's alpha u / (1 + alpha w):
        # two roundings either side, so within 4 units of rounding
        return (f, lambda x: prox(spec, alpha * x),
                lambda x: alpha * prox_deriv(spec, alpha * x),
                0.0 if kind == "abs" else 2 * np.finfo(float).eps)

    inst, _ = build_committee_instance(CommitteeModel(d=2, n=2, theta=abs(theta)))
    committee = [f for f in (inst.provider(e, 0, None) for e in sorted(inst.graph.edges))
                 if f.pieces is not None]
    assert len(committee) == 1
    acts = {kind: _activation(kind, theta) for kind in ACTIVATIONS}
    assert sorted(kind for kind, act in acts.items() if "pieces" in act) == ["linear", "relu"]
    return [(committee[0], *soft(abs(theta)), 0.0),
            (Entrywise(**acts["relu"]), lambda x: np.maximum(theta * x, 0.0),
             lambda x: theta * (np.sign(theta) * x > 0), 0.0),
            (Entrywise(**acts["linear"]), lambda x: theta * x,
             lambda x: np.full_like(x, theta), 0.0),
            (Entrywise(**PHIS["soft"]), *soft(LAM), 0.0)] + [
        penalty(kind, alpha, w) for alpha in (1.0, 1.7)
        for kind, w in [("abs", w) for w in (0.0, SIGNAL_PROX.weight, 1.2, abs(theta))]
        + [("squared", 1.2)]]


@seed(0)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.floats(-3.0, 3.0), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20))
def test_declared_pieces_are_phi(theta, points):
    # a map given by its pieces builds phi and phi' from them, and they
    # are the maps it stands for (to the bit, or within rel), at random
    # points and on and either side of each kink; a copy with its first
    # slope raised by 1, and its intercept re-solved so that the pieces
    # still meet at the first kink, is not
    def close(a, b, rel):
        return np.all(np.abs(a - b) <= rel * np.abs(b))

    changed = 0
    for f, phi, dphi, rel in _piecewise_maps(theta):
        x = np.array(points + [k + d for k in f.kinks for d in (-1e-9, 0.0, 1e-9)])
        assert close(f.phi(x), phi(x), rel), f.pieces
        assert close(f.dphi(x), dphi(x), rel), f.pieces
        if f.kinks:
            (s, c), k = f.pieces[0], f.kinks[0]
            wrong = LinearEntrywiseLinear(L=[1.0], kinks=f.kinks,
                                          pieces=((s + 1.0, c - k),) + f.pieces[1:])
            assert not close(wrong.phi(x), phi(x), rel), wrong.pieces
            changed += 1
    assert changed
