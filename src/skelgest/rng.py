"""Portable seeded random numbers.

Every stochastic step in this package (bootstrap sampling, synthetic noise,
train/test shuffling) draws from the counter-based splitmix64 generator.
Output k of the stream with seed s is frozen as:

    output(k) = mix64(s + k * 0x9E3779B97F4A7C15)   (mod 2**64, k = 1, 2, ...)

where mix64 is the splitmix64 finalizer:

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

Every draw is a frozen formula in these outputs:

  * integer_rows: integer j = 0, 1, ... in [0, n) is output(j + 1) % n
    (modulo; n is tiny against 2**64 here)
  * normal_rows: Box-Muller pair p takes u1 from output 2p+1 and u2 from
    output 2p+2, each the uniform double (output >> 11) * 2**-53, u1 nudged
    to 2**-53 when zero; its values are sqrt(-2 ln u1) cos(2 pi u2), then the
    sin twin
  * shuffle: Fisher-Yates from the last position down, position i swapping
    with position output(n - i) % (i + 1), so output k serves position n - k
  * spawn(i): the substream with seed mix64(s + (i+1) * 0xBB67AE8584CAA73B)

The integers and permutations are exact, so any platform or reimplementation
reproduces them bit for bit. The normals are bit-identical only where log,
sqrt, cos and sin round as numpy's do: computed with Python's math module,
some differ by up to 2 ulp. Because output k depends on k alone, any subset
of the Box-Muller pairs can be drawn alone, with the bits it has in the whole
stream, and many streams vectorize as one uint64 array.
"""

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_SPAWN_GAMMA = 0xBB67AE8584CAA73B
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(z):
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z):
    """mix64 of a uint64 array, in place; its ops wrap modulo 2**64, as _mix's masks do."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def _outputs(seeds, ks):
    """(len(seeds), len(ks)) uint64: outputs ks (counters) of each seed's stream."""
    seeds = np.array([int(s) & _MASK for s in seeds], dtype=np.uint64)
    return _mix_array(seeds[:, None] + np.asarray(ks, dtype=np.uint64) * np.uint64(_GAMMA))


def _uniforms(seeds, ks):
    """Outputs ks of each seed's stream as doubles in [0, 1): the top 53 bits."""
    return (_outputs(seeds, ks) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def normal_rows(seeds, pairs):
    """(len(seeds), 2 len(pairs)) normals: columns 2j and 2j+1 of row i are
    Box-Muller pair pairs[j] of seeds[i]'s stream. u2 and u1 come as two arrays,
    one counter array serving both, and log, sqrt, cos and sin run on them in
    place, to save memory."""
    ks = 2 * np.asarray(pairs, dtype=np.uint64) + np.uint64(2)
    theta = _uniforms(seeds, ks) * (2.0 * math.pi)
    ks -= np.uint64(1)
    r = _uniforms(seeds, ks)
    del ks  # freed before log and sqrt make their temporaries
    r[r == 0.0] = 2.0 ** -53
    r = np.sqrt(np.log(r, out=r) * -2.0)
    cos = np.cos(theta) * r
    r *= np.sin(theta, out=theta)
    del theta  # freed before the result is allocated: the peak is two result sizes
    return np.stack((cos, r), axis=-1).reshape(len(r), -1)


def integer_rows(seeds, n, size):
    """(len(seeds), size) integers in [0, n): row i is outputs 1..size of seeds[i]'s stream, mod n."""
    return (_outputs(seeds, np.arange(1, size + 1)) % np.uint64(n)).astype(np.int64)


class PortableRNG:
    """A 64-bit seed, its substreams, and the shuffle drawn from its outputs."""

    def __init__(self, seed):
        self._seed = int(seed) & _MASK

    @property
    def seed(self):
        return self._seed

    def spawn(self, index):
        """Independent child stream; used for per-tree / per-sample streams."""
        return PortableRNG(_mix(self._seed + (int(index) + 1) * _SPAWN_GAMMA))

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle of a list or 1-D array."""
        n = len(items)
        for i in range(n - 1, 0, -1):
            j = _mix(self._seed + (n - i) * _GAMMA) % (i + 1)
            items[i], items[j] = items[j], items[i]
