import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspmc import kernels
from graspmc.kernels import median_bandwidth


def reference_median_bandwidth(points, floor=kernels.BANDWIDTH_FLOOR):
    """The median of every rooted pairwise distance, as first written."""
    if len(points) < 2:
        return max(1.0, floor)
    stacked = np.asarray(points, dtype=float)
    sq_norms = np.sum(stacked * stacked, axis=1)
    sq_dists = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (stacked @ stacked.T)
    upper = sq_dists[np.triu_indices(len(points), k=1)]
    median = float(np.median(np.sqrt(np.maximum(upper, 0.0))))
    return max(median, floor)


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestMedianBandwidth:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.sampled_from([2, 3]) | st.integers(4, 100),
        dim=st.integers(1, 7),
        log_scale=st.floats(-3.0, 1.0),
        duplicates=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_full_median(self, n, dim, log_scale, duplicates, seed):
        # n(n-1)/2 pairs: odd and even counts both occur over n; duplicate
        # rows put exact (and rounded-negative squared) zero distances in
        rng = np.random.default_rng(seed)
        points = 10.0**log_scale * rng.standard_normal((n, dim)) + rng.uniform(-5.0, 5.0, dim)
        for _ in range(duplicates):
            points[rng.integers(n)] = points[rng.integers(n)]
        assert same_float(median_bandwidth(points), reference_median_bandwidth(points))
        assert same_float(median_bandwidth(list(points)), reference_median_bandwidth(points))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 100])
    def test_all_points_equal_gives_the_floor(self, n):
        points = np.tile([0.1, -0.3, 0.7], (n, 1))
        assert median_bandwidth(points) == reference_median_bandwidth(points) == kernels.BANDWIDTH_FLOOR

    def test_fewer_than_two_points(self):
        assert median_bandwidth([]) == median_bandwidth([np.zeros(3)]) == 1.0

    def test_nan_distance_gives_nan(self):
        points = np.random.default_rng(0).standard_normal((10, 3))
        points[4, 1] = np.nan
        assert np.isnan(median_bandwidth(points)) and np.isnan(reference_median_bandwidth(points))

    def test_cached_pairs_are_read_only(self):
        rows, cols = kernels._upper_pairs(5)
        assert kernels._upper_pairs(5)[0] is rows
        assert not rows.flags.writeable and not cols.flags.writeable
        expected = np.triu_indices(5, k=1)
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
        with pytest.raises(ValueError):
            rows[0] = 1
