"""Portable seeded random numbers.

Every stochastic step in this package (bootstrap sampling, synthetic noise,
train/test shuffling) draws from the counter-based splitmix64 generator.
Its integer and uniform outputs are exact, so any platform or
reimplementation reproduces them bit for bit. The normals are bit-identical
only where log, sqrt, cos and sin round as numpy's do: computed with
Python's math module, 17 of the first 10,800 normals of seed 7 differ in the
last bit (by at most 1.1e-16). The generator is frozen as:

    output(k) = mix64(seed + k * 0x9E3779B97F4A7C15)   (mod 2**64, k = 1, 2, ...)

where mix64 is the splitmix64 finalizer:

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

Derived quantities are also frozen:

  * uniform double in [0, 1): (output >> 11) * 2**-53
  * standard normals: Box-Muller on consecutive uniform pairs (u1 nudged to
    2**-53 when zero), first output sqrt(-2 ln u1) cos(2 pi u2), second the
    sin twin
  * integer in [0, n): output % n (modulo; n is tiny against 2**64 here)
  * substream i of a stream with seed s: seed = mix64(s + (i+1) * 0xBB67AE8584CAA73B)

Counter-based form means array draws vectorize with numpy uint64 arithmetic
while staying identical to the scalar path, and that any subset of the
Box-Muller pairs can be drawn alone, with the bits it has in the whole stream.
normal_rows and integer_rows draw many streams as one array, row i being what
PortableRNG(seeds[i]).normal_array or .integers gives; Box-Muller draws the u1
and u2 outputs as two arrays, which keeps every normal's bits and saves memory.
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
    """mix64 of a uint64 array, in place; its ops wrap modulo 2**64, as the scalar path."""
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


def _box_muller(seeds, ks):
    """Each seed's normals from counter pairs (ks, ks + 1): column 2j is sqrt(-2 ln u1)
    cos(2 pi u2) of pair j, 2j+1 the sin twin; u1 and u2 come as two arrays, to save memory."""
    r = _uniforms(seeds, ks)
    r[r == 0.0] = 2.0 ** -53
    r = np.sqrt(np.log(r, out=r) * -2.0)
    theta = _uniforms(seeds, ks + 1) * (2.0 * math.pi)
    cos = np.cos(theta) * r
    r *= np.sin(theta, out=theta)
    del theta  # freed before the result is allocated: the peak is two result sizes
    return np.stack((cos, r), axis=-1).reshape(len(r), -1)


def normal_rows(seeds, pairs):
    """(len(seeds), 2 len(pairs)) normals: Box-Muller pair p (counters 2p+1, 2p+2)
    of each seed's stream, pair by pair. Row i is columns 2p and 2p+1 of
    PortableRNG(seeds[i]).normal_array; pairs 0, 1, ..., m-1 give its first 2m values."""
    return _box_muller(seeds, 2 * np.asarray(pairs, dtype=np.uint64) + np.uint64(1))


def integer_rows(seeds, n, size):
    """(len(seeds), size) integers in [0, n): row i is PortableRNG(seeds[i]).integers(n, size=size)."""
    return (_outputs(seeds, np.arange(1, size + 1)) % np.uint64(n)).astype(np.int64)


class PortableRNG:
    """Deterministic stream of pseudo-random numbers for a 64-bit seed."""

    def __init__(self, seed):
        self._seed = int(seed) & _MASK
        self._count = 0

    @property
    def seed(self):
        return self._seed

    def spawn(self, index):
        """Independent child stream; used for per-tree / per-sample streams."""
        child = _mix((self._seed + (int(index) + 1) * _SPAWN_GAMMA) & _MASK)
        return PortableRNG(child)

    def next_u64(self):
        self._count += 1
        return _mix((self._seed + self._count * _GAMMA) & _MASK)

    def u64_array(self, n):
        self._count += n
        return _outputs([self._seed], np.arange(self._count - n + 1, self._count + 1))[0]

    def integers(self, n, size=None):
        """Uniform integer(s) in [0, n)."""
        if size is None:
            return self.next_u64() % n
        return (self.u64_array(size) % np.uint64(n)).astype(np.int64)

    def normal_array(self, n):
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        first, self._count = self._count + 1, self._count + 2 * ((n + 1) // 2)
        return _box_muller([self._seed], np.arange(first, self._count, 2, dtype=np.uint64))[0, :n]

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle of a list or 1-D array."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self.integers(i + 1))
            items[i], items[j] = items[j], items[i]
