"""Hierarchical visual embeddings for one-class collaborative filtering.

A category-tree-structured embedding projects pre-extracted image features
into a small set of visual dimensions: rows allocated near the root are
shared by everything, rows at deeper layers are instantiated per category
node. Training is pairwise ranking SGD over implicit feedback; evaluation is
leave-one-out average AUC with warm- and cold-start protocols. The classic
baselines (BPR-MF, VBPR, VBPR-C, random) are configurations of the same
parameter system.
"""

__version__ = "0.1.0"

from .errors import HierBprError
from .hierarchy import (
    AllocationScheme,
    CategoryHierarchy,
    LayerAssignment,
    assign_layers,
    build_hierarchy,
)
from .embedding import SegmentStore
from .ingestion import InteractionCorpus, Positives, TrainingCorpus, load_corpus
from .model import (
    KIND_BPRMF,
    KIND_HVBPR,
    KIND_RAND,
    KIND_VBPR,
    KIND_VBPRC,
    KINDS,
    ItemTable,
    ModelConfig,
    ModelParams,
    PreferenceModel,
    make_baseline,
)
from .training import (
    RegWeights,
    TrainConfig,
    Trainer,
    sample_triple,
    train,
)
from .evaluation import (
    AucResult,
    ColdItemSet,
    EvalSplit,
    auc,
    evaluate_report,
    split_leave_one_out,
    validation_auc,
)
from .synthdata import SynthConfig, generate, make_corpus
from .checkpoint import CheckpointBundle, load_checkpoint, save_checkpoint

__all__ = [
    "AllocationScheme",
    "AucResult",
    "CategoryHierarchy",
    "CheckpointBundle",
    "ColdItemSet",
    "EvalSplit",
    "HierBprError",
    "InteractionCorpus",
    "ItemTable",
    "KIND_BPRMF",
    "KIND_HVBPR",
    "KIND_RAND",
    "KIND_VBPR",
    "KIND_VBPRC",
    "KINDS",
    "LayerAssignment",
    "ModelConfig",
    "ModelParams",
    "Positives",
    "PreferenceModel",
    "RegWeights",
    "SegmentStore",
    "SynthConfig",
    "TrainConfig",
    "Trainer",
    "TrainingCorpus",
    "assign_layers",
    "auc",
    "build_hierarchy",
    "evaluate_report",
    "generate",
    "load_checkpoint",
    "load_corpus",
    "make_baseline",
    "make_corpus",
    "sample_triple",
    "save_checkpoint",
    "split_leave_one_out",
    "train",
    "validation_auc",
]
