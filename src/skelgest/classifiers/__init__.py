from .dataset import LabeledDataset
from .knn import KNearestNeighbors
from .model_io import CLASSIFIERS, dumps_model, load_model, loads_model, save_model
from .svm import GaussianKernelSVM, gaussian_kernel
from .trees import BaggedTreeEnsemble, DecisionTree

__all__ = [
    "CLASSIFIERS",
    "LabeledDataset",
    "GaussianKernelSVM",
    "gaussian_kernel",
    "BaggedTreeEnsemble",
    "DecisionTree",
    "KNearestNeighbors",
    "save_model",
    "load_model",
    "dumps_model",
    "loads_model",
]
