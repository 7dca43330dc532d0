"""Classifier plumbing: the parameter list and fit/predict contract, and
input validation."""

import dataclasses
import numbers

import numpy as np

from .errors import DimensionMismatchError, TrainingDegenerateError


class ClassifierMixin:
    """The classifiers' base: a dataclass kind's fields are its parameter
    list; fit() checks the inputs and sets what the kind's
    _fit(X, codes, n_classes) returns, the attributes model_io stores; and
    predict() takes the best of _class_scores(X), one (n_samples, n_classes) array."""

    @classmethod
    def _defaults(cls):
        """Each parameter field and its default, in declaration order."""
        return {f.name: f.default for f in dataclasses.fields(cls)}

    def get_params(self):
        return {name: getattr(self, name) for name in self._defaults()}

    def fit(self, X, y):
        """Fit to rows X and labels y after checking them, the parameters' types and _check_params(n_samples).
        classes_, n_features_ and _fit's attributes are set together: a fit that raises leaves the model as it was."""
        X = check_feature_matrix(X)
        y = check_labels(y, X.shape[0])
        check_param_types(self, self._defaults())
        self._check_params(X.shape[0])
        classes, codes = encode_labels(y)
        fitted = self._fit(X, codes, len(classes))
        vars(self).update(classes_=classes, n_features_=X.shape[1], **fitted)
        return self

    def _checked(self, X=None):
        """X checked as a feature matrix as wide as the training rows; with
        no X, only that the model is fitted."""
        if not hasattr(self, "n_features_"):
            raise RuntimeError(f"{type(self).__name__} is not fitted yet")
        return None if X is None else check_feature_matrix(X, n_features=self.n_features_)

    def predict(self, X):
        """Label with the highest class score; ties at the lowest label."""
        return [self.classes_[i] for i in np.argmax(self._class_scores(X), axis=1)]

    def score(self, X, y):
        """Fraction of samples whose predicted label equals y."""
        pred = self.predict(X)
        y = check_labels(y, len(pred))
        return float(np.mean([p == t for p, t in zip(pred, y)]))


def check_param_types(obj, defaults):
    """A ValueError naming the first of obj's parameters not of its default's type as a model
    file reads it: an int default takes integers, a float one real numbers, neither a bool."""
    for name, default in defaults.items():
        value, integral = getattr(obj, name), isinstance(default, int)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
            raise ValueError(f"{name} must be {'an integer' if integral else 'a real number'}, got {value!r}")


def feature_matrix(sequence_features, sequences):
    """(n_sequences, T*F) array: each sequence's (T, F) sequence_features,
    flattened row-major. Sequences are featurized one at a time; a
    ValueError names differing frame counts."""
    mats = [sequence_features(seq) for seq in sequences]
    lengths = {m.shape[0] for m in mats}
    if len(lengths) > 1:
        raise ValueError(f"sequences have differing lengths: {sorted(lengths)} frames")
    return np.stack(mats).reshape(len(mats), -1)


def check_feature_matrix(X, n_features=None, name="X"):
    """Coerce to a finite 2-D float64 array with columns, optionally checking width."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError(f"{name} must be 2-D with at least one column, got shape {X.shape}")
    if X.size and not np.isfinite(X).all():
        raise ValueError(f"{name} contains NaN or Inf")
    if n_features is not None and X.shape[1] != n_features:
        raise DimensionMismatchError(n_features, X.shape[1])
    return X


def check_labels(y, n_samples):
    """Labels as a list of strings, one per sample. Each must be a single
    ASCII token, without whitespace or commas, so it survives the text
    formats used for manifests and model files."""
    y = [str(v) for v in y]
    if len(y) != n_samples:
        raise ValueError(f"{len(y)} labels for {n_samples} samples")
    for lab in dict.fromkeys(y):
        if not lab or not lab.isascii() or "," in lab or any(ch.isspace() for ch in lab):
            raise ValueError(f"label {lab!r} must be a single comma-free token of ASCII characters")
    return y


def encode_labels(y):
    """Sorted class list and each label's index in it, as int64; a
    TrainingDegenerateError when fewer than 2 classes are present."""
    classes = sorted(set(y))
    if len(classes) < 2:
        raise TrainingDegenerateError(f"need at least 2 classes, got {classes}")
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.array([index[c] for c in y], dtype=np.int64)
