"""Graph-indexed approximate message passing with state evolution.

Iterations are indexed by the directed edges of a small graph; each
edge carries a matrix multiplication, a nonlinearity consuming the
incoming edges, and a memory correction.  The package provides the
engine, an exact embedding into a single symmetric iteration, Gaussian
covariance recursions that predict iterate statistics, a model zoo
(penalized GLMs, multilayer chains, spiked matrices, mixture
classification) and a batch runner.
"""

from .errors import (ConfigError, GraphError, GraphampError, NumericalError,
                     ShapeError)
from .graphs import (EdgeId, GraphSpec, canonical_edge_order, edges_into,
                     line_graph, require_valid, single_loop, validate)
from .nonlinearity import (Entrywise, FromCallable, Identity,
                           LinearEntrywiseLinear, Nonlinearity, SideData, Zero)
from .ensembles import normals, sample_goe, sample_iid, stream
from .engine import (AmpTrajectory, GraphInstance, Observable, init,
                     norm_sq_observable, observe, run, stationary_provider,
                     step)
from .embedding import (BlockLayout, EmbeddedInstance, EquivalenceReport,
                        embed, run_symmetric, verify_equivalence)
from .state_evolution import (SECovariances, compare, mc_observable_stats,
                              se_run)
from .gamp_se import (Channel, GampSePoint, GaussBernoulliPrior, GlmScalars,
                      LinearGaussianChannel, LogisticChannel, Prior, QuadSpec,
                      RademacherPrior, gamp_overlap_se)
from .config import ExperimentConfig, load, loads
from . import models
from .models import (CommitteeModel, GlmModel, GlmTeacher, GmmSpatialModel,
                     LayerSpec, MultilayerModel, SpikedModel,
                     build_committee_instance, build_gamp_instance,
                     build_gmm_spatial_instance, build_multilayer_instance,
                     build_spiked_instance, lasso_model, layer_specs,
                     logistic_model, ridge_model, spiked_scalar_se)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "GraphError", "GraphampError", "NumericalError", "ShapeError",
    "EdgeId", "GraphSpec", "canonical_edge_order", "edges_into",
    "line_graph", "require_valid", "single_loop", "validate",
    "Entrywise", "FromCallable", "Identity",
    "LinearEntrywiseLinear", "Nonlinearity", "SideData", "Zero",
    "normals", "sample_goe", "sample_iid", "stream",
    "AmpTrajectory", "GraphInstance", "Observable", "init",
    "norm_sq_observable", "observe", "run", "stationary_provider", "step",
    "BlockLayout", "EmbeddedInstance", "EquivalenceReport", "embed",
    "run_symmetric", "verify_equivalence",
    "SECovariances", "compare", "mc_observable_stats", "se_run",
    "Channel", "GampSePoint", "GaussBernoulliPrior", "GlmScalars",
    "LinearGaussianChannel", "LogisticChannel", "Prior", "QuadSpec",
    "RademacherPrior", "gamp_overlap_se",
    "ExperimentConfig", "load", "loads",
    "models",
    "CommitteeModel", "GlmModel", "GlmTeacher", "GmmSpatialModel",
    "LayerSpec", "MultilayerModel", "SpikedModel",
    "build_committee_instance", "build_gamp_instance",
    "build_gmm_spatial_instance", "build_multilayer_instance",
    "build_spiked_instance", "lasso_model", "layer_specs",
    "logistic_model", "ridge_model", "spiked_scalar_se",
]
