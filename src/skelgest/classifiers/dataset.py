"""Labeled feature-vector datasets fed to the classifiers."""

from dataclasses import dataclass

import numpy as np

from ..base import check_feature_matrix, check_labels


@dataclass
class LabeledDataset:
    """Fixed-length feature vectors with class labels.

    vectors: (n, L) float array; labels: one string per row; label_set: the
    declared classes (training requires at least 2, each with >= 1 sample).
    Labels must be single tokens (see check_labels).
    """

    vectors: np.ndarray
    labels: list[str]
    label_set: tuple[str, ...] = ()

    def __post_init__(self):
        self.vectors = check_feature_matrix(self.vectors, name="vectors")
        self.labels = check_labels(self.labels, self.vectors.shape[0])
        if not self.label_set:
            self.label_set = tuple(sorted(set(self.labels)))
        else:
            self.label_set = tuple(self.label_set)
            unknown = set(self.labels) - set(self.label_set)
            if unknown:
                raise ValueError(f"labels outside declared set: {sorted(unknown)}")

    def __len__(self):
        return self.vectors.shape[0]

    @property
    def total_scalars(self):
        """Total count of feature scalars across all samples."""
        return int(self.vectors.size)

    def subset(self, indices):
        idx = list(indices)
        return LabeledDataset(
            self.vectors[idx], [self.labels[i] for i in idx], self.label_set
        )
