"""von Mises-Fisher sampling on S^2 and S^3.

Rejection sampling after Wood (1994), "Simulation of the von Mises Fisher
distribution": draw the radial component w along the mean direction from
the marginal ~ exp(kappa*w) (1-w^2)^((p-3)/2) via a beta envelope, pair it
with a uniform tangent direction, and rotate the canonical frame onto the
mean. The normalization constant C_p(kappa) never appears. The draws do
not look at the mean, so `draw_vmf` can make them before the mean is
known and `orient_vmf` apply it later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SUPPORTED_DIMS = (3, 4)


@dataclass(frozen=True)
class VonMisesFisher:
    """Direction distribution on the unit sphere in R^p, p in {3, 4}.

    mean_direction must be unit length (tol 1e-9); kappa >= 0 is the
    concentration, with kappa = 0 meaning uniform on the sphere.
    """

    mean_direction: np.ndarray
    kappa: float

    def __post_init__(self) -> None:
        mu = np.ascontiguousarray(self.mean_direction, dtype=float)
        if mu.ndim != 1 or mu.size not in _SUPPORTED_DIMS:
            raise ValueError(f"mean direction must live in R^3 or R^4, got shape {mu.shape}")
        if abs(math.sqrt(float(mu.dot(mu))) - 1.0) > 1e-9:
            raise ValueError("mean direction must be unit length")
        if not np.isfinite(self.kappa) or self.kappa < 0.0:
            raise ValueError("kappa must be a finite nonnegative real")
        object.__setattr__(self, "mean_direction", mu)

    @property
    def dim(self) -> int:
        return self.mean_direction.size


@lru_cache(maxsize=16)
def _wood_constants(kappa: float, m: int) -> tuple[float, float, float]:
    # Wood's b, x0 and c, as Python floats; the b expression is the
    # numerically stable form. math.sqrt rounds correctly, as np.sqrt does.
    b = m / (2.0 * kappa + math.sqrt(4.0 * kappa * kappa + m * m))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + m * np.log(1.0 - x0 * x0)
    return float(b), float(x0), float(c)


def _radial_component(kappa: float, p: int, rng: np.random.Generator) -> float:
    # Wood's VM* algorithm
    m = p - 1
    b, x0, c = _wood_constants(kappa, m)
    while True:
        z = rng.beta(0.5 * m, 0.5 * m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random()
        if kappa * w + m * np.log(1.0 - x0 * w) - c >= np.log(u):
            return w


def draw_vmf(kappa: float, dim: int, rng: np.random.Generator) -> np.ndarray:
    """The random part of one vMF sample, which does not depend on the mean.

    For kappa = 0 this is the sample itself, a uniform unit vector.
    Otherwise it is the sample in the frame whose first axis is the mean:
    (w, sqrt(1 - w^2) * tangent). `orient_vmf` turns it into the sample.
    """
    if dim not in _SUPPORTED_DIMS:
        raise ValueError(f"dimension must be 3 or 4, got {dim}")
    if not np.isfinite(kappa) or kappa < 0.0:
        raise ValueError("kappa must be a finite nonnegative real")
    if kappa == 0.0:
        while True:
            raw = rng.standard_normal(dim)
            norm = math.sqrt(float(raw.dot(raw)))
            if norm > 1e-12:
                return raw / norm
    w = _radial_component(kappa, dim, rng)
    while True:
        tangent = rng.standard_normal(dim - 1)
        norm = math.sqrt(float(tangent.dot(tangent)))
        if norm > 1e-12:
            break
    scale = math.sqrt(max(0.0, 1.0 - w * w))
    return np.array([w, *(scale * (t / norm) for t in tangent.tolist())])


def orient_vmf(dist: VonMisesFisher, drawn: np.ndarray) -> np.ndarray:
    """The sample of `dist` whose random part `draw_vmf` drew; uses no rng."""
    if dist.kappa == 0.0:
        return drawn
    sample = _rotate_from_e1(dist.mean_direction, drawn)
    return sample / math.sqrt(float(sample.dot(sample)))


def sample_vmf(dist: VonMisesFisher, rng: np.random.Generator) -> np.ndarray:
    """One unit vector with density proportional to exp(kappa mu^T x)."""
    return orient_vmf(dist, draw_vmf(dist.kappa, dist.dim, rng))


def _rotate_from_e1(mu: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Householder reflection mapping e1 -> mu; an isometry of the sphere, so
    # the uniform tangent part stays uniform.
    e1 = np.zeros_like(mu)
    e1[0] = 1.0
    v = e1 - mu
    norm = math.sqrt(float(v.dot(v)))
    if norm < 1e-12:
        return x.copy()
    v /= norm
    return x - 2.0 * v * float(v @ x)
