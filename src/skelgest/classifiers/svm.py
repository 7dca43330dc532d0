"""One-vs-all soft-margin SVM with a Gaussian kernel, trained by SMO.

Each class gets a binary machine separating it from the rest; prediction
takes the class whose machine reports the largest decision value. The
machines share the precomputed kernel matrix and are solved in lockstep by
sequential minimal optimization with LIBSVM's second-order working-set
selection (WSS3; Fan, Chen & Lin, JMLR 6, 2005).

A machine stops once max over I_up of -y*grad minus min over I_low of
-y*grad is at most 2 tol. That holds exactly when some bias passes Platt's
per-sample KKT check at tol (y f(x) >= 1 - tol where alpha < C, <= 1 + tol
where alpha > 0). The bias is the mean of -y*grad over the free support
vectors (0 < alpha < C), or the midpoint of that gap when there are none;
either lies in the gap, so every training row passes the check at 2 tol.

Training rows are sorted into a canonical (lexicographic) order before
optimization, so the fitted machine, its decision values, and its
predictions are exactly invariant under any reordering of the training set.
"""

from dataclasses import dataclass

import numpy as np

from ..base import ClassifierMixin
from ..errors import ConvergenceFailureError, TrainingDegenerateError

# optimization steps allowed per sample and machine before giving up
_MAX_STEPS_PER_SAMPLE = 10_000
# curvature used when a pair's K_ii + K_jj - 2 K_ij is not positive (LIBSVM's TAU)
_TAU = 1e-12


def squared_distances(X, Y=None):
    """||x - y||^2 for every row x of X and y of Y; Y=None pairs X with itself.

    The explicit difference form gives bitwise-equal rows a distance of
    exactly 0, so K(x, x) is exactly 1; the dot product expansion would leave
    cancellation residue. One row of X at a time keeps the (m, d) difference
    cache-sized, in one buffer that every row reuses.

    With Y=None each pair is measured once: row i measures only rows i.. and
    mirrors them into column i. The result equals squared_distances(X, X) bit
    for bit. A rounded difference is odd, fl(x - y) = -fl(y - x), so the two
    square alike; and einsum sums one output's d products along the row in an
    order set by d alone, not by the row's place in the block, so a pair sums
    the same way whichever row measures it and however many rows follow.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    sym = Y is None
    Y = X if sym else np.atleast_2d(np.asarray(Y, dtype=np.float64))
    sq, diff = np.empty((X.shape[0], Y.shape[0])), np.empty(Y.shape)
    for i, x in enumerate(X):
        lo = i if sym else 0
        np.subtract(Y[lo:], x, out=diff[lo:])
        np.einsum("jk,jk->j", diff[lo:], diff[lo:], out=sq[i, lo:])
        if sym:
            sq[lo:, i] = sq[i, lo:]
    return sq


def gaussian_kernel(X, Y=None, sigma=1.0):
    """K(x, y) = exp(-||x - y||^2 / (2 sigma^2)) for all row pairs; Y=None pairs X with itself."""
    with np.errstate(over="ignore"):  # a tiny sigma's quotient is -inf, whose exp is the right 0
        return np.exp(-squared_distances(X, Y) / (2.0 * sigma * sigma))


def _canonical_order(X, y):
    """Indices sorting rows lexicographically by features, then label."""
    order = np.argsort(X[:, 0], kind="stable")
    if np.all(X[order[1:], 0] > X[order[:-1], 0]):  # distinct first features decide alone
        return order
    keys = [np.asarray(y)] + [X[:, c] for c in range(X.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def _up_low(Y, alpha, grad, C):
    """-y * grad on LIBSVM's index sets: I_up (-inf off it) and I_low (+inf off it).

    I_up holds the samples whose alpha can move so that y * alpha grows,
    I_low those whose alpha can move so that it shrinks.
    """
    v = -Y * grad
    up = np.where(np.where(Y > 0.0, alpha < C, alpha > 0.0), v, -np.inf)
    low = np.where(np.where(Y > 0.0, alpha > 0.0, alpha < C), v, np.inf)
    return v, up, low


def _smo(K, Y, C, tol):
    """Alphas and biases of every one-vs-all machine, solved in lockstep.

    Y holds one row of +1/-1 targets per machine. Each step takes, for each
    machine not yet converged, the maximal violating i and the second-order
    j (WSS3 of Fan, Chen & Lin 2005), makes LIBSVM's two-variable update and
    updates the gradient of the dual objective in O(n).
    """
    m, n = Y.shape
    alpha = np.zeros((m, n))
    grad = np.full((m, n), -1.0)  # Q alpha - 1, with Q = y y^T * K
    kdiag = np.diag(K)
    budget = _MAX_STEPS_PER_SAMPLE * n
    act = np.arange(m)
    steps = 0
    while True:
        v, up, low = _up_low(Y[act], alpha[act], grad[act], C)
        going = up.max(axis=1) - low.min(axis=1) > 2.0 * tol
        if not going.any():
            break
        if steps == budget:
            raise ConvergenceFailureError(f"SMO exceeded {budget} optimization steps")
        steps += 1
        act, v, up, low = act[going], v[going], up[going], low[going]
        rows = np.arange(len(act))
        i = up.argmax(axis=1)
        vmax = up[rows, i][:, None]
        Ki = K[i]
        quad = kdiag[i, None] + kdiag - 2.0 * Ki
        quad = np.where(quad > 0.0, quad, _TAU)
        j = np.where(low < vmax, -((vmax - v) ** 2) / quad, np.inf).argmin(axis=1)

        yi, yj = Y[act, i], Y[act, j]
        ai, aj = alpha[act, i], alpha[act, j]
        s = yi * yj
        r = ai + s * aj  # conserved by the step
        delta = (s * grad[act, i] - grad[act, j]) / quad[rows, j]
        # a variable leaving the box lands exactly on its bound and its
        # partner follows from r, as in LIBSVM's Solver::Solve
        tj = aj + delta
        nj = np.clip(tj, 0.0, C)
        ni = np.where(nj != tj, r - s * nj, ai - s * delta)
        ci = np.clip(ni, 0.0, C)
        nj = np.where(ci != ni, s * r - s * ci, nj)
        alpha[act, i], alpha[act, j] = ci, nj
        grad[act] += Y[act] * (Ki * (yi * (ci - ai))[:, None] + K[j] * (yj * (nj - aj))[:, None])

    v, up, low = _up_low(Y, alpha, grad, C)
    free = (alpha > 0.0) & (alpha < C)
    nfree = free.sum(axis=1)
    mid = (up.max(axis=1) + low.min(axis=1)) / 2.0
    bias = np.where(nfree > 0, np.where(free, v, 0.0).sum(axis=1) / np.maximum(nfree, 1), mid)
    return alpha, bias


@dataclass(eq=False)
class GaussianKernelSVM(ClassifierMixin):
    """Multi-class one-vs-all SVM with the Gaussian kernel.

    Parameters: sigma (kernel width), C (soft-margin penalty), tol (KKT
    tolerance of the SMO stopping rule). After fit: classes_ (sorted label
    list) and one set of dual coefficients per class.
    """

    sigma: float = 1.0
    C: float = 10.0
    tol: float = 1e-3

    def _check_params(self, n_samples=None):
        """Reject a sigma, C, tol or kernel divisor 2 sigma^2 that is not a
        positive finite number; a tiny sigma's 2 sigma^2 underflows to 0."""
        for name, value in [*self.get_params().items(), ("2 sigma^2", 2.0 * self.sigma * self.sigma)]:
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def _fit(self, X, codes, n_classes):
        if X.shape[0] >= 2 and np.all(X == X[0]):
            raise TrainingDegenerateError("all training vectors identical but labels differ")
        order = _canonical_order(X, codes)
        X = X[order]
        Y = np.where(codes[order] == np.arange(n_classes)[:, None], 1.0, -1.0)
        alpha, bias = _smo(gaussian_kernel(X, sigma=self.sigma), Y, self.C, self.tol)
        return {"X_": X, "dual_coef_": alpha * Y, "bias_": bias}

    def decision_function(self, X):
        """Per-class decision values, shape (n_samples, n_classes)."""
        K = gaussian_kernel(self._checked(X), self.X_, self.sigma)  # (n, m)
        return K @ self.dual_coef_.T + self.bias_[None, :]

    _class_scores = decision_function  # predict takes the largest decision value
