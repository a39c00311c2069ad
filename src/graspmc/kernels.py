"""Gaussian kernel and the median-distance bandwidth heuristic."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

BANDWIDTH_FLOOR = 1e-6


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)); k(x, x) = 1."""

    bandwidth_sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.bandwidth_sigma) or self.bandwidth_sigma <= 0.0:
            raise ValueError("bandwidth must be a positive real")

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return float(np.exp(-float(diff @ diff) / (2.0 * self.bandwidth_sigma**2)))


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k=1), built once per n and read-only."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def median_bandwidth(points: list[np.ndarray]) -> float:
    """Median of pairwise distances among points, floored at BANDWIDTH_FLOOR;
    1.0 for fewer than two points.

    The median is taken on the squared distances and only the one or two
    middle values are clamped at zero and rooted: sqrt is monotone and
    correctly rounded, so this is the median of the distances bit for bit.
    """
    if len(points) < 2:
        return 1.0
    stacked = np.asarray(points, dtype=float)
    sq_norms = np.sum(stacked * stacked, axis=1)
    sq_dists = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (stacked @ stacked.T)
    upper = sq_dists[_upper_pairs(len(points))]
    half = upper.size // 2
    middle = [half] if upper.size % 2 else [half - 1, half]
    part = np.partition(upper, [*middle, -1])
    if np.isnan(part[-1]):  # as in np.median, a NaN distance makes the median NaN
        return float("nan")
    median = float(np.mean(np.sqrt(np.maximum(part[middle[0] : middle[-1] + 1], 0.0))))
    return max(median, BANDWIDTH_FLOOR)
