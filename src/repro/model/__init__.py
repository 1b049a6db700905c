"""Learned cost models: the GRACEFUL GNN and the paper's baselines."""

from repro.model.baselines import (
    FlatGraphBaseline,
    GracefulModel,
    GraphGraphBaseline,
)
from repro.model.batching import (
    GraphBatch,
    compute_levels,
    make_batch,
    make_batch_prepared,
)
from repro.model.flatvector import FLAT_FEATURE_NAMES, FlatVectorUDFModel, flat_features
from repro.model.prepared import (
    PreparedGraph,
    PreparedGraphCache,
    default_graph_cache,
    prepare_graph,
)
from repro.model.gbm import GBMConfig, GBMRegressor
from repro.model.gnn import CostGNN, GNNConfig
from repro.model.persistence import load_model, model_summary, save_model
from repro.model.training import (
    TrainConfig,
    TrainResult,
    evaluate_cost_model,
    predict_runtimes,
    train_cost_model,
)

__all__ = [
    "CostGNN",
    "FLAT_FEATURE_NAMES",
    "FlatGraphBaseline",
    "FlatVectorUDFModel",
    "GBMConfig",
    "GBMRegressor",
    "GNNConfig",
    "GracefulModel",
    "GraphBatch",
    "GraphGraphBaseline",
    "PreparedGraph",
    "PreparedGraphCache",
    "TrainConfig",
    "TrainResult",
    "compute_levels",
    "default_graph_cache",
    "evaluate_cost_model",
    "flat_features",
    "load_model",
    "model_summary",
    "save_model",
    "make_batch",
    "make_batch_prepared",
    "predict_runtimes",
    "prepare_graph",
    "train_cost_model",
]
