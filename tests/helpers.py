"""Shared oracles and instance catalogs for the test suite.

The convex solvers here are deliberately independent of the package
internals (plain numpy) so fixed-point tests compare against a second
implementation, not the code under test.
"""

import threading

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
