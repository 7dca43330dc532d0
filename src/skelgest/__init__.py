"""Skeleton-based gesture recognition.

Parsing of 20-joint depth-sensor skeleton streams, two feature-extraction
schemes (depth-normalized triangle-centroid distances for single-person
hand gestures; weighted-mean-joint direction-cosine angles for two-person
interactions), three from-scratch classifiers, an evaluation layer with a
Friedman test, and a synthetic-data experiment harness.
"""

from . import classifiers, errors, evaluation, features, harness, skeleton
from .classifiers import (
    BaggedTreeEnsemble,
    GaussianKernelSVM,
    KNearestNeighbors,
    LabeledDataset,
    load_model,
    save_model,
)
from .evaluation import confusion, evaluate, friedman, rank_algorithms
from .harness import ExperimentConfig, run_experiment
from .rng import PortableRNG
from .skeleton import (
    Frame,
    Joint,
    SkeletonSequence,
    parse_skeleton_stream,
    serialize_skeleton_stream,
)

__version__ = "0.1.0"

__all__ = [
    "classifiers",
    "errors",
    "evaluation",
    "features",
    "harness",
    "skeleton",
    "Joint",
    "Frame",
    "SkeletonSequence",
    "parse_skeleton_stream",
    "serialize_skeleton_stream",
    "LabeledDataset",
    "GaussianKernelSVM",
    "BaggedTreeEnsemble",
    "KNearestNeighbors",
    "save_model",
    "load_model",
    "confusion",
    "evaluate",
    "rank_algorithms",
    "friedman",
    "ExperimentConfig",
    "run_experiment",
    "PortableRNG",
    "__version__",
]
