import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graspmc.targets import gaussian_mixture_target


@settings(max_examples=300, deadline=None)
@given(
    modes=st.integers(1, 6),
    dim=st.integers(1, 8),
    sigma=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixture_is_the_mean_form(modes, dim, sigma, seed):
    """The density is the np.mean of the mode kernels, bit for bit."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((modes, dim))
    target = gaussian_mixture_target(centers, sigma)
    inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma)
    for state in rng.standard_normal((20, dim)) * rng.uniform(0.1, 3.0):
        diffs = centers - state[None, :]
        sq = np.sum(diffs * diffs, axis=1)
        expected = float(np.mean(np.exp(-sq * inv_two_sigma_sq)))
        value = target(state)
        assert value.outcome is None
        assert np.float64(value.density).tobytes() == np.float64(expected).tobytes()
