import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelgest.rng import PortableRNG, _mix, _outputs, _uniforms, integer_rows, normal_rows

# The frozen formulas of the module docstring, in plain Python on Python ints:
# the reference the numpy draws are checked against. _mix itself is pinned by
# splitmix64's published outputs below.
GAMMA = 0x9E3779B97F4A7C15
SPAWN_GAMMA = 0xBB67AE8584CAA73B


def output(seed, k):
    """Output k of seed's stream."""
    return _mix(int(seed) + k * GAMMA)


def uniform(seed, k):
    return (output(seed, k) >> 11) * 2.0 ** -53


def box_muller(seed, n):
    """The first n normals of seed's stream, Box-Muller in the math module."""
    values = []
    for p in range((n + 1) // 2):
        u1 = uniform(seed, 2 * p + 1) or 2.0 ** -53
        r, theta = math.sqrt(-2.0 * math.log(u1)), 2.0 * math.pi * uniform(seed, 2 * p + 2)
        values += [r * math.cos(theta), r * math.sin(theta)]
    return np.array(values[:n])


def fisher_yates(seed, items):
    """Position i, from the last down, swaps with output n - i modulo i + 1."""
    items, n = list(items), len(items)
    for i in range(n - 1, 0, -1):
        j = output(seed, n - i) % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def within_2_ulp(drawn, reference):
    # numpy's log, cos and sin and the math module's may round apart
    return np.all(np.abs(drawn - reference) <= 2 * np.spacing(np.abs(reference)))


class TestGeneratorContract:
    def test_known_mix_values(self):
        # splitmix64's first outputs from state 0 are outputs 1, 2, 3 of seed 0
        known = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert _mix(0) == 0
        assert [output(0, k) for k in (1, 2, 3)] == known
        assert integer_rows([0], 2**63, 3)[0].tolist() == [x % 2**63 for x in known]

    def test_scalar_and_array_paths_identical(self):
        assert _outputs([12345], np.arange(1, 201))[0].tolist() == [output(12345, k) for k in range(1, 201)]

    def test_mixed_consumption_stays_aligned(self):
        # output k depends on k alone: any counters give the bits they have in the run 1..n
        full = _outputs([9], np.arange(1, 11))
        assert np.array_equal(_outputs([9], [4, 2, 10]), full[:, [3, 1, 9]])

    def test_same_seed_same_stream(self):
        assert _outputs([5, 5], np.arange(1, 17)).tolist() == [[output(5, k) for k in range(1, 17)]] * 2

    def test_different_seeds_differ(self):
        a, b = _outputs([5, 6], np.arange(1, 17))
        assert a.tolist() != b.tolist()


class TestDerived:
    def test_uniforms_in_unit_interval(self):
        u = _uniforms([3], np.arange(1, 10_001))[0]
        assert (u >= 0.0).all() and (u < 1.0).all()
        assert abs(u.mean() - 0.5) < 0.02
        assert u[:100].tolist() == [uniform(3, k) for k in range(1, 101)]

    def test_normal_moments(self):
        z = normal_rows([4], np.arange(25_000))[0]
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_normal_odd_count(self):
        # an odd count is the covering pairs' values, cos before sin, cut after the last
        rows = normal_rows([4], np.arange(4))
        assert rows.shape == (1, 8)
        assert within_2_ulp(rows[0, :7], box_muller(4, 7))

    def test_integers_range_and_determinism(self):
        draws = integer_rows([8], 13, 1000)[0]
        assert draws.min() >= 0 and draws.max() < 13
        assert integer_rows([8], 13, 1000)[0].tolist() == draws.tolist()

    def test_shuffle_deterministic_permutation(self):
        items = list(range(10))
        PortableRNG(2).shuffle(items)
        again = list(range(10))
        PortableRNG(2).shuffle(again)
        assert items == again
        assert sorted(items) == list(range(10))
        assert items != list(range(10))

    @pytest.mark.parametrize("seed", [0, 2, 2**64 - 1])
    def test_shuffle_is_fisher_yates_over_outputs(self, seed):
        for n in [0, 1, 2, 3, 10, 257]:
            items = list(range(n))
            PortableRNG(seed).shuffle(items)
            assert items == fisher_yates(seed, range(n))
            array = np.arange(n)
            PortableRNG(seed).shuffle(array)
            assert array.tolist() == items


class TestSpawn:
    def test_children_are_independent_streams(self):
        base = PortableRNG(1)
        kids = [base.spawn(i).seed for i in range(10)]
        assert kids == [_mix(1 + (i + 1) * SPAWN_GAMMA) for i in range(10)]
        assert len({tuple(row) for row in integer_rows(kids, 2**63, 4).tolist()}) == 10

    def test_spawn_ignores_parent_position(self):
        # a shuffle advances no state: the parent's children are those of its seed
        a, b = PortableRNG(1), PortableRNG(1)
        a.shuffle(list(range(100)))
        assert a.spawn(3).seed == b.spawn(3).seed


class TestNormalRows:
    @pytest.mark.parametrize("n", [1, 7, 5400])
    def test_each_row_is_its_seeds_stream(self, n):
        seeds = [PortableRNG(17).spawn(i).seed for i in range(49)] + [2**64 - 1]
        rows = normal_rows(seeds, np.arange((n + 1) // 2))[:, :n]  # pairs 0.. cover the first n
        assert rows.shape == (50, n)
        for seed, row in zip(seeds, rows):
            assert within_2_ulp(row, box_muller(seed, n))

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
           frames=st.integers(1, 4), rows=st.sets(st.integers(0, 19), min_size=1))
    def test_pair_subset_is_the_same_columns(self, seeds, frames, rows):
        # the pairs that cover some joint rows of every 60-value frame, as
        # synthesis draws them; pair p holds stream values 2p and 2p+1
        n = 60 * frames
        pairs = sorted({(60 * f + 3 * r + axis) // 2 for f in range(frames) for r in rows for axis in range(3)})
        cols = [2 * p + half for p in pairs for half in (0, 1)]
        full = normal_rows(seeds, np.arange(n // 2))
        assert np.array_equal(normal_rows(seeds, np.array(pairs)), full[:, cols])

    def test_peak_memory_is_bounded_by_the_output(self):
        # 48 streams of 60 frames of 60 values, as synthesis draws them, and one long stream
        seeds = [PortableRNG(3).spawn(i).seed for i in range(48)]
        for draw in (lambda: normal_rows(seeds, np.arange(1800)), lambda: normal_rows([4], np.arange(50_001))):
            tracemalloc.start()
            try:
                out = draw()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * out.nbytes


class TestIntegerRows:
    SEEDS = [0, 2**64 - 1, -1, np.int64(5), np.uint64(7)]

    @pytest.mark.parametrize("n", [1, 7, 2**40])
    @pytest.mark.parametrize("size", [1, 15, 1000])
    def test_each_row_is_its_seeds_integers(self, n, size):
        rows = integer_rows(self.SEEDS, n, size)
        assert rows.shape == (len(self.SEEDS), size) and rows.dtype == np.int64
        for seed, row in zip(self.SEEDS, rows):
            assert row.tolist() == [output(seed, k) % n for k in range(1, size + 1)]
