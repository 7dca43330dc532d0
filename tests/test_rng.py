import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelgest.rng import PortableRNG, _mix, integer_rows, normal_rows


class TestGeneratorContract:
    def test_known_mix_values(self):
        # splitmix64 finalizer fixed points of the documented constants
        assert _mix(0) == 0
        assert 0 < _mix(1) < 2**64
        assert _mix(2**64 - 1) < 2**64

    def test_scalar_and_array_paths_identical(self):
        a, b = PortableRNG(12345), PortableRNG(12345)
        assert [a.next_u64() for _ in range(200)] == b.u64_array(200).tolist()

    def test_mixed_consumption_stays_aligned(self):
        a, b = PortableRNG(9), PortableRNG(9)
        first = a.u64_array(3).tolist()
        fourth = a.next_u64()
        assert b.u64_array(4).tolist() == first + [fourth]

    def test_same_seed_same_stream(self):
        assert PortableRNG(5).u64_array(16).tolist() == PortableRNG(5).u64_array(16).tolist()

    def test_different_seeds_differ(self):
        assert PortableRNG(5).u64_array(16).tolist() != PortableRNG(6).u64_array(16).tolist()


class TestDerived:
    def test_uniforms_in_unit_interval(self):
        # the top 53 bits scaled to [0, 1), as _box_muller maps them
        u = (PortableRNG(3).u64_array(10_000) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        assert (u >= 0.0).all() and (u < 1.0).all()
        assert abs(u.mean() - 0.5) < 0.02

    def test_normal_moments(self):
        z = PortableRNG(4).normal_array(50_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_normal_odd_count(self):
        assert len(PortableRNG(4).normal_array(7)) == 7

    def test_integers_range_and_determinism(self):
        r = PortableRNG(8)
        draws = r.integers(13, size=1000)
        assert draws.min() >= 0 and draws.max() < 13
        assert PortableRNG(8).integers(13, size=1000).tolist() == draws.tolist()

    def test_shuffle_deterministic_permutation(self):
        items = list(range(10))
        PortableRNG(2).shuffle(items)
        again = list(range(10))
        PortableRNG(2).shuffle(again)
        assert items == again
        assert sorted(items) == list(range(10))
        assert items != list(range(10))


class TestSpawn:
    def test_children_are_independent_streams(self):
        base = PortableRNG(1)
        kids = [tuple(base.spawn(i).u64_array(4).tolist()) for i in range(10)]
        assert len(set(kids)) == 10

    def test_spawn_ignores_parent_position(self):
        a, b = PortableRNG(1), PortableRNG(1)
        a.u64_array(100)
        assert a.spawn(3).seed == b.spawn(3).seed


class TestNormalRows:
    @pytest.mark.parametrize("n", [1, 7, 5400])
    def test_each_row_is_its_seeds_stream(self, n):
        seeds = [PortableRNG(17).spawn(i).seed for i in range(49)] + [2**64 - 1]
        rows = normal_rows(seeds, np.arange((n + 1) // 2))[:, :n]  # pairs 0.. cover the first n
        assert rows.shape == (50, n)
        for seed, row in zip(seeds, rows):
            assert np.array_equal(row, PortableRNG(seed).normal_array(n))

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
        for seed, row in zip(seeds, full):
            assert np.array_equal(row, PortableRNG(seed).normal_array(n))
        assert np.array_equal(normal_rows(seeds, np.array(pairs)), full[:, cols])

    def test_peak_memory_is_bounded_by_the_output(self):
        # 48 streams of 60 frames of 60 values, as synthesis draws them, and one long stream
        seeds = [PortableRNG(3).spawn(i).seed for i in range(48)]
        for draw in (lambda: normal_rows(seeds, np.arange(1800)), lambda: PortableRNG(4).normal_array(100_001)):
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
            assert np.array_equal(row, PortableRNG(seed).integers(n, size=size))
