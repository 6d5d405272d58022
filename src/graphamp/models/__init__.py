"""Model zoo: concrete graph-iteration instances."""

from .glm import (GlmModel, GlmTeacher, build_gamp_instance, gamp_stats,
                  kkt_residual, lasso_model, logistic_model, ridge_model)
from .multilayer import (LayerSpec, MultilayerModel,
                         build_multilayer_instance, layer_specs)
from .spiked import SpikedModel, build_spiked_instance, spiked_scalar_se
from .gmm import (GmmSpatialModel, accuracy, build_gmm_spatial_instance,
                  gmm_weights, ridge_baseline, sample_gmm_data)
from .committee import CommitteeModel, build_committee_instance

__all__ = [
    "GlmModel", "GlmTeacher", "build_gamp_instance", "gamp_stats",
    "kkt_residual", "lasso_model", "logistic_model", "ridge_model",
    "LayerSpec", "MultilayerModel", "build_multilayer_instance", "layer_specs",
    "SpikedModel", "build_spiked_instance", "spiked_scalar_se",
    "GmmSpatialModel", "accuracy", "build_gmm_spatial_instance",
    "gmm_weights", "ridge_baseline", "sample_gmm_data",
    "CommitteeModel", "build_committee_instance",
]
