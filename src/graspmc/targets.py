"""Target-density contract shared by all samplers.

A target maps a state vector to a TargetValue: an unnormalized nonnegative
density plus an optional outcome label (the grasp domain attaches one of
success/slipped/collision/miss; synthetic benchmark targets leave it None).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class TargetValue(NamedTuple):
    density: float
    outcome: str | None = None


TargetFn = Callable[[np.ndarray], TargetValue]


def gaussian_mixture_target(centers: np.ndarray, sigma: float) -> TargetFn:
    """Equal-weight isotropic Gaussian mixture, a standard sampler benchmark."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma)
    count = len(centers)

    def density(state: np.ndarray) -> TargetValue:
        diffs = centers - np.asarray(state, dtype=float)[None, :]
        sq = np.add.reduce(diffs * diffs, axis=1)
        return TargetValue(float(np.add.reduce(np.exp(-sq * inv_two_sigma_sq)) / count), None)

    return density


def standard_normal_target(dim: int) -> TargetFn:
    def density(state: np.ndarray) -> TargetValue:
        s = np.asarray(state, dtype=float)
        return TargetValue(float(np.exp(-0.5 * float(s @ s))), None)

    return density
