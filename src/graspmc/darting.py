"""Mode-hopping jumps between ellipsoidal regions around known modes.

Each region is an ellipsoid centered on a mode, oriented and scaled by the
eigendecomposition U diag(lambda) U^T of a single chain covariance shared
by all regions, and inflated by epsilon. Membership uses semi-axes
epsilon * lambda_i (so the closed-form volume
pi^(d/2) eps^d prod(lambda_i) / Gamma(1 + d/2) is the literal volume of the
membership set).

A jump whitens the offset from the source mode and re-colors it at the
target mode, with a reflection sign:

    x' = mu_to - U_to S_to^(1/2) S_from^(-1/2) U_from^T (x - mu_from)

which is an exact involution: jumping back with the regions swapped
returns the original point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidConfig, NoRegions
from .linalg import svd_symmetric
from .targets import TargetFn

SCALE_FLOOR = 1e-6  # least region eigenvalue; any positive floor keeps a jump invertible


@dataclass(frozen=True)
class DartingConfig:
    p_check: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_check <= 1.0:
            raise InvalidConfig("p_check must lie in [0, 1]")
        if not 0.0 < self.epsilon < math.inf:
            raise InvalidConfig(f"epsilon must be positive and finite, not {self.epsilon!r}")


@dataclass(frozen=True)
class JumpRegion:
    center: np.ndarray
    rotation: np.ndarray  # orthogonal, columns are ellipsoid axes
    scales: np.ndarray  # floored eigenvalues, sorted descending
    epsilon: float
    volume: float

    @property
    def dim(self) -> int:
        return self.center.size


def symmetric_acceptance(proposal_density: float, current_density: float) -> float:
    """min(1, p/c) for a symmetric proposal.

    A zero-density proposal is always rejected; a zero-density current
    state (legal only at initialization) accepts any positive-density
    proposal, letting a chain recover into the support.
    """
    if proposal_density <= 0.0:
        return 0.0
    if current_density <= 0.0:
        return 1.0
    return min(1.0, proposal_density / current_density)


def ellipsoid_volume(dim: int, epsilon: float, scales: np.ndarray) -> float:
    """Closed-form ellipsoid volume for semi-axes epsilon * scales[i]."""
    log_vol = (
        0.5 * dim * math.log(math.pi)
        + dim * math.log(epsilon)
        + float(np.sum(np.log(np.asarray(scales, dtype=float))))
        - math.lgamma(1.0 + 0.5 * dim)
    )
    return math.exp(log_vol)


def build_jump_region(mode: np.ndarray, chain_covariance: np.ndarray, epsilon: float) -> JumpRegion:
    """Region around a mode from the chain covariance's eigendecomposition.

    Eigenvalues are floored at SCALE_FLOOR so the whitening in a jump stays
    invertible even for rank-deficient covariances.
    """
    mode = np.asarray(mode, dtype=float)
    rotation, eigenvalues = svd_symmetric(chain_covariance)
    scales = np.maximum(eigenvalues, SCALE_FLOOR)
    volume = ellipsoid_volume(mode.size, epsilon, scales)
    return JumpRegion(mode, rotation, scales, float(epsilon), volume)


def contains_state(region: JumpRegion, x: np.ndarray) -> bool:
    """True iff x lies inside the ellipsoid (boundary inclusive)."""
    offset = np.asarray(x, dtype=float) - region.center
    local = region.rotation.T @ offset
    w = local / region.scales
    return bool(np.sqrt(w @ w) <= region.epsilon)  # np.linalg.norm(w), bit for bit


def cumulative_volumes(regions: list[JumpRegion]) -> np.ndarray:
    """Running sums of the region volumes, for `select_jump_target`."""
    return np.cumsum(np.array([r.volume for r in regions], dtype=float))


def select_jump_target(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    """Index i with probability V_i / sum_j V_j (self-selection allowed),
    from the `cumulative_volumes` of the regions."""
    if not len(cumulative):
        raise NoRegions("no jump regions to select from")
    u = rng.random() * cumulative[-1]
    return min(int(np.searchsorted(cumulative, u, side="right")), len(cumulative) - 1)


def jump_transform(x: np.ndarray, from_region: JumpRegion, to_region: JumpRegion) -> np.ndarray:
    """Whitened, reflected jump of x from one region into another."""
    offset = np.asarray(x, dtype=float) - from_region.center
    sqrt_from = np.sqrt(from_region.scales)
    sqrt_to = np.sqrt(to_region.scales)
    whitened = (from_region.rotation.T @ offset) / sqrt_from
    return to_region.center - to_region.rotation @ (sqrt_to * whitened)


class DartingStep(NamedTuple):
    """A jump attempt: no proposal when the state was outside every region.

    `containing` lists the regions that hold the current state, and
    `proposal_containing` those that hold the proposal (None without one)."""

    jumped: bool
    proposal: np.ndarray | None
    proposal_density: float | None
    proposal_outcome: str | None
    containing: list[int]
    proposal_containing: list[int] | None


def darting_step(
    current: np.ndarray,
    current_density: float,
    regions: list[JumpRegion],
    target: TargetFn,
    config: DartingConfig,
    rng: np.random.Generator,
    *,
    postprocess: Callable[[np.ndarray], np.ndarray] | None = None,
    containing: list[int] | None = None,
    cumulative: np.ndarray | None = None,
) -> DartingStep:
    """Attempt one jump move; called after the iteration gate has fired.

    Outside every region the state is counted again (no proposal, no
    evaluation). Otherwise the source region is uniform among containing
    regions, the destination is volume-weighted over all regions, and the
    jump is accepted with probability
    min[1, n(x) pi(x') / (n(x') pi(x))] with n(.) the containing-region
    count.

    A caller that already knows the indices of the regions containing the
    current state, or the regions' `cumulative_volumes`, hands them in; they
    are computed otherwise. The step hands back both states' region sets,
    so a chain that moves to the proposal, or stays, never tests its state
    again.
    """
    current = np.asarray(current, dtype=float)
    if containing is None:
        containing = [i for i, r in enumerate(regions) if contains_state(r, current)]
    if not containing:
        return DartingStep(False, None, None, None, containing, None)

    from_index = containing[0] if len(containing) == 1 else containing[int(rng.integers(len(containing)))]
    if cumulative is None:
        cumulative = cumulative_volumes(regions)
    to_index = select_jump_target(cumulative, rng)
    raw = jump_transform(current, regions[from_index], regions[to_index])
    proposal = postprocess(raw) if postprocess is not None else raw
    value = target(proposal)
    proposal_density = float(value.density)

    proposal_containing = [i for i, r in enumerate(regions) if contains_state(r, proposal)]
    n_current, n_proposal = len(containing), len(proposal_containing)
    # symmetric in the count-weighted densities; a proposal canonicalised out
    # of every region has no reverse jump
    alpha = (
        0.0 if n_proposal == 0
        else symmetric_acceptance(n_current * proposal_density, n_proposal * current_density)
    )
    return DartingStep(
        bool(rng.random() < alpha), proposal, proposal_density, value.outcome,
        containing, proposal_containing,
    )
