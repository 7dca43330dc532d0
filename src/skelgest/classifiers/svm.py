"""One-vs-all soft-margin SVM with a Gaussian kernel, trained by SMO.

Each class gets a binary machine separating it from the rest; prediction
takes the class whose machine reports the largest decision value. The dual
problem is solved with sequential minimal optimization over the precomputed
kernel matrix, which all machines share.

Training rows are sorted into a canonical (lexicographic) order before
optimization, so the fitted machine, its decision values, and its
predictions are exactly invariant under any reordering of the training set.
"""

import numpy as np

from ..base import ParamsMixin, ScoringClassifierMixin, check_feature_matrix, check_labels, check_fitted
from ..errors import ConvergenceFailureError, TrainingDegenerateError

# optimization steps allowed per sample before giving up
_MAX_STEPS_PER_SAMPLE = 10_000


def gaussian_kernel(X, Y, sigma=1.0):
    """K(x, y) = exp(-||x - y||^2 / (2 sigma^2)) for all row pairs.

    Distances use the explicit difference form so bitwise-equal rows give
    a squared distance of exactly 0 and K(x, x) of exactly 1; the dot
    product expansion would leave cancellation residue on the diagonal.
    Row chunking keeps the (chunk, m, d) intermediate bounded.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    n, d = X.shape
    m = Y.shape[0]
    sq = np.empty((n, m))
    chunk = max(1, (1 << 22) // max(1, m * d))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = X[start:stop, None, :] - Y[None, :, :]
        sq[start:stop] = np.einsum("ijk,ijk->ij", diff, diff)
    return np.exp(-sq / (2.0 * sigma * sigma))


def _canonical_order(X, y):
    """Indices sorting rows lexicographically by features, then label."""
    keys = [np.asarray(y)] + [X[:, c] for c in range(X.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


class _BinarySMO:
    """SMO for one binary machine over a shared kernel matrix."""

    def __init__(self, K, y, C, tol):
        self.K = K
        self.y = y.astype(np.float64)  # +1 / -1
        self.C = float(C)
        self.tol = float(tol)
        n = len(y)
        self.alpha = np.zeros(n)
        self.b = 0.0
        self._budget = _MAX_STEPS_PER_SAMPLE * n

    def _errors(self):
        return (self.alpha * self.y) @ self.K + self.b - self.y

    def _take_step(self, i, j, Ei, Ej):
        if i == j:
            return False
        ai_old, aj_old = self.alpha[i], self.alpha[j]
        yi, yj = self.y[i], self.y[j]
        if yi != yj:
            L = max(0.0, aj_old - ai_old)
            H = min(self.C, self.C + aj_old - ai_old)
        else:
            L = max(0.0, ai_old + aj_old - self.C)
            H = min(self.C, ai_old + aj_old)
        if L >= H:
            return False
        eta = self.K[i, i] + self.K[j, j] - 2.0 * self.K[i, j]
        if eta <= 0.0:
            return False
        aj = aj_old + yj * (Ei - Ej) / eta
        aj = min(H, max(L, aj))
        # reject microscopic steps or SMO inches forever without converging
        if abs(aj - aj_old) < 1e-6 * (aj + aj_old + 1e-6):
            return False
        ai = ai_old + yi * yj * (aj_old - aj)
        # keep the bias consistent with the KKT conditions of the new pair
        b1 = (
            self.b - Ei
            - yi * (ai - ai_old) * self.K[i, i]
            - yj * (aj - aj_old) * self.K[i, j]
        )
        b2 = (
            self.b - Ej
            - yi * (ai - ai_old) * self.K[i, j]
            - yj * (aj - aj_old) * self.K[j, j]
        )
        if 0.0 < ai < self.C:
            self.b = b1
        elif 0.0 < aj < self.C:
            self.b = b2
        else:
            self.b = (b1 + b2) / 2.0
        self.alpha[i], self.alpha[j] = ai, aj
        return True

    def solve(self):
        n = len(self.y)
        steps = 0
        examine_all = True
        while True:
            changed = 0
            errors = self._errors()
            if examine_all:
                candidates = range(n)
            else:
                candidates = np.nonzero((self.alpha > 0.0) & (self.alpha < self.C))[0]
            for i in candidates:
                Ei = errors[i]
                r = Ei * self.y[i]
                if (r < -self.tol and self.alpha[i] < self.C) or (
                    r > self.tol and self.alpha[i] > 0.0
                ):
                    # second choice: largest |Ei - Ej|, ties at lowest index
                    j = int(np.argmax(np.abs(errors - Ei)))
                    stepped = self._take_step(i, j, Ei, errors[j])
                    if not stepped:
                        for j in range(n):
                            if self._take_step(i, j, Ei, errors[j]):
                                stepped = True
                                break
                    if stepped:
                        changed += 1
                        errors = self._errors()
                    steps += 1
                    if steps > self._budget:
                        raise ConvergenceFailureError(
                            f"SMO exceeded {self._budget} optimization steps"
                        )
            if examine_all:
                if changed == 0:
                    break
                examine_all = False
            elif changed == 0:
                examine_all = True
        return self


class GaussianKernelSVM(ScoringClassifierMixin, ParamsMixin):
    """Multi-class one-vs-all SVM with the Gaussian kernel.

    Parameters: sigma (kernel width), C (soft-margin penalty), tol (KKT
    tolerance of the SMO stopping rule). After fit: classes_ (sorted label
    list) and one set of dual coefficients per class.
    """

    def __init__(self, sigma=1.0, C=10.0, tol=1e-3):
        self.sigma = sigma
        self.C = C
        self.tol = tol

    def _check_params(self, n_samples=None):
        """Reject a sigma, C or tol that is not a positive finite number."""
        for name in ("sigma", "C", "tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")

    def fit(self, X, y):
        self._check_params()
        X = check_feature_matrix(X)
        y = check_labels(y, X.shape[0])
        classes = sorted(set(y))
        if len(classes) < 2:
            raise TrainingDegenerateError(f"need at least 2 classes, got {classes}")
        if X.shape[0] >= 2 and np.all(X == X[0]):
            raise TrainingDegenerateError("all training vectors identical but labels differ")
        order = _canonical_order(X, np.array([classes.index(c) for c in y]))
        Xs = X[order]
        ys = [y[i] for i in order]

        K = gaussian_kernel(Xs, Xs, self.sigma)
        self.classes_ = classes
        self.X_ = Xs
        self.dual_coef_ = np.zeros((len(classes), len(ys)))
        self.bias_ = np.zeros(len(classes))
        for k, cls in enumerate(classes):
            target = np.where(np.array(ys) == cls, 1.0, -1.0)
            smo = _BinarySMO(K, target, self.C, self.tol).solve()
            self.dual_coef_[k] = smo.alpha * target
            self.bias_[k] = smo.b
        self.n_features_ = X.shape[1]
        return self

    def decision_function(self, X):
        """Per-class decision values, shape (n_samples, n_classes)."""
        check_fitted(self, "classes_")
        X = check_feature_matrix(X, n_features=self.n_features_)
        K = gaussian_kernel(X, self.X_, self.sigma)  # (n, m)
        return K @ self.dual_coef_.T + self.bias_[None, :]

    _class_scores = decision_function  # predict takes the largest decision value
