"""Shared oracles and instance catalogs for the test suite.

The convex solvers here are deliberately independent of the package
internals (plain numpy) so fixed-point tests compare against a second
implementation, not the code under test.
"""

import math
import threading
import tracemalloc
import weakref

import numpy as np

from graphamp import (CommitteeModel, GaussBernoulliPrior, GmmSpatialModel,
                      MultilayerModel, SpikedModel, build_committee_instance,
                      build_gamp_instance, build_gmm_spatial_instance,
                      build_multilayer_instance, build_spiked_instance,
                      lasso_model, layer_specs, logistic_model, ridge_model,
                      soft_threshold)


def fista_lasso(A, y, lam, iters=20000):
    """Accelerated proximal gradient for 0.5||Ax - y||^2 + lam ||x||_1."""
    L = np.linalg.norm(A, 2) ** 2
    x = np.zeros(A.shape[1])
    z = x.copy()
    tk = 1.0
    for _ in range(iters):
        g = A.T @ (A @ z - y)
        xn = soft_threshold(z - g / L, lam / L)
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        z = xn + ((tk - 1.0) / tn) * (xn - x)
        x, tk = xn, tn
    return x


def ridge_direct(A, y, lam):
    """Normal-equations solution of 0.5||Ax - y||^2 + 0.5 lam ||x||^2."""
    d = A.shape[1]
    return np.linalg.solve(A.T @ A + lam * np.eye(d), A.T @ y)


def default_prior():
    return GaussBernoulliPrior(eps=0.25, var=4.0)


def zoo_instances(seed=0):
    """One small instance per model family, each with global N <= 2000.

    Yields (name, instance) pairs; used by the embedding equivalence
    sweep and smoke tests.
    """
    prior = default_prior()
    inst, _ = build_gamp_instance(
        lasso_model(d=220, n=110, lam=1.2, prior=prior, sigma=0.5), seed=seed)
    yield "lasso", inst
    inst, _ = build_gamp_instance(
        ridge_model(d=200, n=100, lam=1.0, prior=prior, sigma=0.5), seed=seed)
    yield "ridge", inst
    inst, _ = build_gamp_instance(
        logistic_model(d=160, n=80, lam=0.8, prior=prior), seed=seed)
    yield "logistic", inst
    ml = MultilayerModel(d0=160, layers=layer_specs([140, 120], ["linear", "relu"]))
    inst, _ = build_multilayer_instance(ml, seed=seed)
    yield "multilayer", inst
    inst, _ = build_spiked_instance(SpikedModel(N=300, lam=2.5), seed=seed)
    yield "spiked", inst
    gen = SpikedModel(N=260, lam=2.5, gen_dims=(100,), gen_activation="tanh")
    inst, _ = build_spiked_instance(gen, seed=seed)
    yield "spiked_generative", inst
    inst, _ = build_committee_instance(CommitteeModel(d=240, n=160), seed=seed)
    yield "committee", inst
    gmm = GmmSpatialModel(K=2, d=120, n_per_cluster=100, lam=1.0, coupling=0.3)
    inst, _ = build_gmm_spatial_instance(gmm, seed=seed)
    yield "gmm_spatial", inst


def read_report_csv(path):
    """Rows of a schema-tagged CSV as dicts; returns (schema_line, rows)."""
    import csv

    with open(path) as fh:
        schema = fh.readline().strip()
        rows = list(csv.DictReader(fh))
    return schema, rows


def bounded_call(fn, *args, timeout=120.0, **kwargs):
    """fn(*args, **kwargs) on a daemon thread joined within timeout.

    Returns its result or re-raises its exception, after asserting that
    the call finished in time (a deadlock fails the test instead of
    hanging the suite) and left no thread of its own running.
    """
    before = threading.active_count()
    out = {}

    def target():
        try:
            out["result"] = fn(*args, **kwargs)
        except BaseException as ex:  # re-raised below, on the test's thread
            out["error"] = ex

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    assert not th.is_alive(), f"call still running after {timeout} s"
    assert threading.active_count() == before
    if "error" in out:
        raise out["error"]
    return out["result"]


def traced_peak(fn, *args, **kwargs):
    """The peak traced memory (tracemalloc), in bytes, of fn(*args,
    **kwargs); tracing stops however the call ends."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class StepRecorder:
    """Weak references to the iterates, outputs and Onsager coefficients
    that engine.step makes.

    wrap(step) returns a step that, on an instance for which
    tracks(instance) holds, records x^0 before the first step (but not
    the x0 entries, which the instance itself holds) and after each step
    t its x^t, m^{t-1} and b^{t-1}, as (kind, time, edge, weakref) in
    held.  stale(t) lists those still alive that no step after step t
    reads: x older than x^{t-1}, m and b older than t - 2.
    """

    def __init__(self, tracks=lambda instance: True):
        self.tracks = tracks
        self.held = []

    def wrap(self, step):
        def recording_step(instance, traj):
            tracked = self.tracks(instance)
            if tracked and traj.T == 0:
                self.held.extend(("x", 0, e, weakref.ref(xs[0]))
                                 for e, xs in traj.x.items() if e not in instance.x0)
            step(instance, traj)
            if tracked:
                t = traj.T
                for kind, hist, s in (("x", traj.x, t), ("m", traj.m, t - 1),
                                      ("b", traj.b, t - 1)):
                    self.held.extend((kind, s, e, weakref.ref(h[-1]))
                                     for e, h in hist.items())
            return traj

        return recording_step

    def stale(self, t):
        oldest = {"x": t - 1, "m": t - 2, "b": t - 2}
        return [(kind, s, str(e)) for kind, s, e, ref in list(self.held)
                if s < oldest[kind] and ref() is not None]


def _soft_mean(mu, s, lam):
    """E soft(mu + s Z, lam), Z standard normal, in closed form: soft is
    (x - lam)_+ - (-x - lam)_+, and E (m + s Z)_+ = m Phi(m/s) + s phi(m/s).
    s is one sd per column of mu, 0 meaning no spread."""
    sd = np.where(s > 0.0, s, 1.0)

    def plus(m):
        r = m / sd
        cdf = 0.5 * np.vectorize(math.erfc)(-r / math.sqrt(2.0))
        return m * cdf + sd * np.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)

    return np.where(s > 0.0, plus(mu - lam) - plus(-mu - lam), soft_threshold(mu, lam))


def soft_gaussian_moments(C, lam):
    """E soft(W)^T soft(W) for W ~ N(0, C), soft at threshold lam.

    Row a integrates W_a past each threshold (soft(W_a) is 0 between
    them) out to 14 of its sds, against the closed-form
    E[soft(W_b) | W_a], by composite Simpson in u with W_a - lam =
    14 sd u^2, which packs the nodes where the density falls steepest.
    No Gauss-Legendre rule and no nesting, so it shares nothing with the
    state evolution's exact route but the Gaussian."""
    u = np.linspace(0.0, 1.0, 2001)
    simpson = np.ones_like(u)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    z, simpson = 14.0 * u * u, simpson * (u[1] - u[0]) / 3.0 * 28.0 * u
    var = np.diag(C)
    E = np.zeros_like(C)
    for a in np.flatnonzero(var > 0.0):
        slope = C[a] / var[a]
        s = np.sqrt(np.maximum(var - slope * C[a], 0.0))
        for side in (1.0, -1.0):
            x = side * (lam + math.sqrt(var[a]) * z)
            w = simpson * np.exp(-0.5 * x * x / var[a]) / math.sqrt(2.0 * math.pi)
            E[a] += (w * soft_threshold(x, lam)) @ _soft_mean(np.outer(x, slope), s, lam)
    return 0.5 * (E + E.T)
