"""Desk-scale benchmark engine for dual-modality document classification."""

__version__ = "0.1.0"

from .config import Config, ConfigError
from .data import (AugmentConfig, Corpus, CorpusSpec, ImageLoader, TextLoader,
                   generate_corpus, load_corpus, make_splits, save_corpus)
from .efficientnet import BASE_STAGES, StageSpec, build_efficientnet
from .ensemble import (FusionWeights, evaluate, fuse, grid_search_weights,
                       predict_class, predict_classes)
from .layers import Ctx, Network
from .optim import (AdamConfig, AdamOptimizer, LayerwiseDecayConfig, SgdConfig,
                    SgdOptimizer, StlrConfig, group_lrs, reference_lr, stlr_lr)
from .parallel import (ParallelConfig, measure_speedup, ring_allreduce,
                       train_parallel)
from .scaling import ScaledDims, ScalingSpec, compound_scale
from .tensor import ShapeError, Tensor, trace
from .text_encoder import TextEncoderSpec, build_text_encoder

__all__ = [
    "__version__",
    "Tensor", "ShapeError", "trace",
    "Ctx", "Network",
    "ScalingSpec", "ScaledDims", "compound_scale",
    "StageSpec", "BASE_STAGES", "build_efficientnet",
    "TextEncoderSpec", "build_text_encoder",
    "SgdConfig", "AdamConfig", "StlrConfig", "LayerwiseDecayConfig",
    "SgdOptimizer", "AdamOptimizer",
    "reference_lr", "stlr_lr", "group_lrs",
    "CorpusSpec", "Corpus", "AugmentConfig", "generate_corpus",
    "save_corpus", "load_corpus", "make_splits", "ImageLoader", "TextLoader",
    "ParallelConfig", "train_parallel", "ring_allreduce", "measure_speedup",
    "FusionWeights", "fuse", "predict_class", "predict_classes", "evaluate",
    "grid_search_weights",
    "Config", "ConfigError",
]
