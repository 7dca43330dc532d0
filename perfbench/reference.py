"""A fixed reference task, timed between the workload's calls.

The benchmark host shares its physical cores with other machines: the
same call can take 1.5 to 1.8 times longer for seconds or minutes at a
time, and that shows in wall time and CPU time alike. The reference task
does the kinds of work skelgest does, in about equal parts, but none of
skelgest's code: a Python loop over a dict (as in the SMO solver and the
synthesis), and the array operations of a split search (argsort, gather,
cumulative class counts, Gini) on a fixed 36×1080 array, the size of one
bootstrap sample on interaction-wide. Its time follows the host's speed
and not the program's. The end-to-end timings are reported in multiples
of it.
"""

import time

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((36, 1080))
_ONEHOT = np.eye(8)[_RNG.integers(0, 8, 36)]


def reference_s():
    """Seconds taken by one run of the reference task (about 15 ms on a
    2 GHz Xeon)."""
    start = time.perf_counter()
    d = {}
    for i in range(40000):
        d[i % 97] = d.get(i % 97, 0) + i * 3
    order = np.argsort(_X, axis=0, kind="stable")
    sx = np.take_along_axis(_X, order, axis=0)
    left = np.cumsum(_ONEHOT[order], axis=0)
    gini = 1.0 - np.sum(left * left, axis=2)
    np.argmin(np.where(sx[1:] > sx[:-1], gini[:-1], np.inf))
    return time.perf_counter() - start
