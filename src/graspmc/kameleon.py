"""Kernel-adaptive Metropolis-Hastings with a history-shaped proposal.

The proposal at state x is N(x, gamma^2 I + nu^2 M H M^T), where M stacks
scaled Gaussian-kernel gradients evaluated at x against a subsample z of
the chain history and H is the n x n centering matrix. Because M depends
on the conditioning point, the proposal is not symmetric and the MH ratio
carries both q directions, each with the covariance at its own
conditioning point. Each state's covariance is built and factored once:
a step hands the factor of the state the chain holds next to the one
after it. A step first draws its uniform and rejects early, without
building the proposal's covariance, when the ridge alone (C_y >= gamma^2 I)
proves the rejection; that is exact in floating point (see
`kameleon_step`). So once the adaptation is frozen, a step the ridge
rejects builds no covariance, any other step builds one (at the proposal),
and an accepted one hands it on.

States may carry a quaternion block (7D grasp vectors): a postprocess hook
renormalizes and canonicalizes it after each raw draw, and the proposal
density is then evaluated at the postprocessed point under the plain
d-dimensional Gaussian, with no manifold/Jacobian correction. That is a
documented bias, worst near the w = 0 double-cover boundary; it is the
price of keeping position/orientation dependence inside one kernel.

This module also holds `_run_chain`, the one MH loop of the package: the
pure Kameleon chain here, the combined Kameleon/darting chain and the
random-walk sketch in `learning` are thin calls into it. The loop does no
work whose result is unused or already known: a burn-in refresh draws its
subsample every iteration (so the generator stream never depends on the
move), but the kernel's median bandwidth is computed only when a Kameleon
step reads it, not on darting iterations. The set of regions holding the
current state is carried from one jump attempt to the next while the
state stays, and the regions' cumulative volumes are summed once per
chain. Every draw and decision is the one of the eager loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .darting import (
    DartingConfig, JumpRegion, cumulative_volumes, darting_step, symmetric_acceptance,
)
from .errors import EmptyHistory
from .history import MOVE_DTYPE, OUTCOME_CODES, ChainHistory
from .kernels import GaussianKernel, median_bandwidth
from .linalg import LOG_2PI, Factored, draw_gaussian, factor_covariance, factored_logpdf
from .targets import TargetFn, TargetValue


@dataclass(frozen=True)
class KameleonConfig:
    gamma: float
    nu: float
    subsample_size: int
    burn_in: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, not {self.gamma!r}")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be nonnegative and finite, not {self.nu!r}")
        if self.subsample_size < 1:
            raise ValueError("subsample size must be a positive integer")
        if self.burn_in < 0:
            raise ValueError("burn-in must be nonnegative")


class LocalStep(NamedTuple):
    """A local move's proposal, its evaluation, and the MH decision on it.

    `factored` is the factored proposal covariance at the state the chain
    holds after the step, when the step built it; else None."""

    proposal: np.ndarray
    proposal_density: float
    outcome: str | None
    accepted: bool
    factored: Factored | None = None


def subsample_history(pool: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """min(n, len(pool)) rows of `pool` drawn uniformly without replacement."""
    if not len(pool):
        raise EmptyHistory("no states to subsample")
    if n >= len(pool):
        return pool
    return pool[rng.choice(len(pool), size=n, replace=False)]


def kernel_gradient_matrix(
    z: list[np.ndarray], y: np.ndarray, kernel: GaussianKernel
) -> np.ndarray:
    """d x n matrix whose column i is 2 * grad_x k(x, z_i) at x = y.

    For the Gaussian kernel the gradient is -(y - z_i) / sigma^2 * k(y, z_i).
    """
    y = np.asarray(y, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    diffs = z_arr - y[None, :]
    sq = np.add.reduce(diffs * diffs, axis=1)
    sigma_sq = kernel.bandwidth_sigma**2
    k_vals = np.exp(-sq / (2.0 * sigma_sq))
    return (2.0 * diffs * k_vals[:, None] / sigma_sq).T


def proposal_covariance(m: np.ndarray, config: KameleonConfig) -> np.ndarray:
    """gamma^2 I + nu^2 M H M^T, symmetrized; H is the centering matrix.

    M H M^T equals Mc Mc^T with Mc the column-centered M (H is idempotent),
    which is what gets computed.
    """
    m = np.asarray(m, dtype=float)
    d, n = m.shape
    centered = m - np.add.reduce(m, axis=1, keepdims=True) / n
    cov = _ridge(config.gamma, d) + config.nu**2 * (centered @ centered.T)
    return 0.5 * (cov + cov.T)


_RIDGES: dict[tuple[float, int], np.ndarray] = {}


def _ridge(gamma: float, d: int) -> np.ndarray:
    """gamma^2 I, built once per (gamma, d) and read-only."""
    ridge = _RIDGES.get((gamma, d))
    if ridge is None:
        ridge = _RIDGES[gamma, d] = gamma**2 * np.eye(d)
        ridge.flags.writeable = False
    return ridge


def adaptation_schedule(iteration: int, config: KameleonConfig) -> bool:
    """True while the subsample (and bandwidth) should be refreshed."""
    return iteration < config.burn_in


def covariance_at(
    point: np.ndarray, subsample: np.ndarray, kernel: GaussianKernel, config: KameleonConfig
) -> np.ndarray:
    m = kernel_gradient_matrix(subsample, point, kernel)
    return proposal_covariance(m, config)


def _backward_bound(config: KameleonConfig, d: int, n: int, sigma: float) -> float | None:
    """The early-rejection bound on the computed log q(x | y), with its
    margin: -d/2 (log 2 pi + log gamma^2) + d/10. None when eta, the
    rounding bound on C_y's eigenvalues, exceeds gamma^2 / 10 (or gamma^2
    is subnormal); `kameleon_step` derives both."""
    gamma_sq, spread = config.gamma**2, config.nu / sigma
    eta = (n + (d + 1) ** 2 + 8) * sys.float_info.epsilon * (
        d * gamma_sq + 4.0 * n / math.e * spread * spread
    )
    if not (eta <= 0.1 * gamma_sq and gamma_sq >= sys.float_info.min):
        return None
    return -0.5 * d * (LOG_2PI + math.log(gamma_sq)) + 0.1 * d


def kameleon_step(
    current: np.ndarray,
    current_density: float,
    target: TargetFn,
    config: KameleonConfig,
    rng: np.random.Generator,
    *,
    subsample: np.ndarray = (),
    kernel: GaussianKernel | None = None,  # required with a subsample
    postprocess: Callable[[np.ndarray], np.ndarray] | None = None,
    current_factored: Factored | None = None,
) -> LocalStep:
    """One adaptive MH step from the proposal shaped by `subsample` under
    `kernel`: propose and decide; recording the step is the caller's.

    `current_factored` is the current state's factored covariance under
    this subsample and kernel, if the caller has it; it is built otherwise.
    The returned step carries the factored covariance of the state the
    chain holds next: the current one on a rejection, the proposal's on an
    acceptance that built it, None after accepting from zero density.

    With nu = 0 (or an empty subsample) this reduces exactly to
    random-walk Metropolis with proposal N(x, gamma^2 I): same draws from
    the generator, symmetric q-ratio of one. Zero densities follow
    `symmetric_acceptance`.

    Early rejection (Solonen et al., Bayesian Analysis 2012). While the
    screen runs, the uniform u is drawn right after log q(y | x), else
    last; no work between the target call and u draws, so the stream is
    unchanged, and while the screen runs nothing after u can raise (see
    the guard below). The step rejects without building C_y, the
    covariance at the proposal y, when

        log u >= log p(y) - log p(x) + B + d/10 - log q(y | x),

    B = -d/2 (log 2 pi + log gamma^2), in the order the full ratio sums.
    That is the full path's decision, bit for bit (n is the subsample
    size, sigma the bandwidth, eps the float64 machine epsilon):
    - In exact arithmetic C_y = gamma^2 I + nu^2 Mc Mc^T >= gamma^2 I, so
      log q(x | y) <= B. Each column 2 (z - y) k / sigma^2 of M has norm at
      most 2 / (sigma sqrt(e)) (r exp(-r^2 / 2 sigma^2) peaks at r = sigma),
      and centering does not grow M, so trace(C_y) is at most
      T = d gamma^2 + 4 n nu^2 / (e sigma^2).
    - Built and factored, C_y moves by less than
      eta = (n + (d + 1)^2 + 8) eps T in the 2-norm: the Gram product by
      n eps/2 T, the scaling, ridge and symmetrization by 3 eps/2 T,
      Cholesky's backward error by (d + 1) eps/2 T (Higham, Theorem
      10.3), with the rounding of M and its centering a factor
      1 + O(n eps) on T.
    - The screen runs only while eta <= gamma^2 / 10 (`_backward_bound`):
      a bandwidth at BANDWIDTH_FLOOR or a huge nu turns it off. Then the
      built C_y has eigenvalues above 0.9 gamma^2, more than the
      d (d + 1) eps/2 T that Cholesky needs to succeed (Higham, Theorem 10.7),
      so an early exit hides no DecompositionFailure; and the factored
      L L^T has every eigenvalue above 0.9 gamma^2, so the computed
      log q(x | y) is at most B - d/2 log 0.9 < B + 0.053 d.
    - The margin d/10 leaves 0.047 d nats for the rounding of the log-det,
      the sums, exp and log. When the screen fires, log u lies in [-37, 0]
      (u >= 2^-53), so log q(y | x) and every other term is below 2000 + 710 d
      in magnitude and each rounds by far less. Rounding is monotone, so the
      full path's log ratio is then below log u - 0.04 d, and u >= its alpha.
    u == 0.0 and a NaN term fall through to the full path. A non-finite
    subsample row makes every covariance NaN, so log q(y | x) raises first.
    """
    current = np.asarray(current, dtype=float)
    adaptive = len(subsample) > 0 and config.nu > 0.0

    if adaptive:
        if current_factored is None:
            current_factored = factor_covariance(covariance_at(current, subsample, kernel, config))
        raw = draw_gaussian(current, current_factored, rng)
    else:
        current_factored = None
        raw = current + config.gamma * rng.standard_normal(current.size)

    proposal = postprocess(raw) if postprocess is not None else raw
    value = target(proposal)
    proposal_density = float(value.density)

    u = None  # drawn early only while the screen runs
    if adaptive and proposal_density > 0.0 and current_density > 0.0:
        log_q_forward = factored_logpdf(proposal, current, current_factored)
        log_target_ratio = np.log(proposal_density) - np.log(current_density)
        bound = _backward_bound(config, current.size, len(subsample), kernel.bandwidth_sigma)
        if bound is not None:
            u = rng.uniform()
            if u > 0.0 and math.log(u) >= log_target_ratio + bound - log_q_forward:
                return LocalStep(proposal, proposal_density, value.outcome, False, current_factored)
        proposal_factored = factor_covariance(covariance_at(proposal, subsample, kernel, config))
        log_q_backward = factored_logpdf(current, proposal, proposal_factored)
        log_ratio = log_target_ratio + log_q_backward - log_q_forward
        alpha = 1.0 if log_ratio >= 0.0 else float(np.exp(log_ratio))
    else:
        proposal_factored = None
        alpha = symmetric_acceptance(proposal_density, current_density)

    accepted = bool((rng.uniform() if u is None else u) < alpha)
    factored = proposal_factored if accepted else current_factored
    return LocalStep(proposal, proposal_density, value.outcome, accepted, factored)


def _run_chain(
    target: TargetFn,
    current: np.ndarray,
    value: TargetValue,
    iterations: int,
    history: ChainHistory,
    rng: np.random.Generator,
    *,
    kameleon: KameleonConfig | None = None,
    walk: Callable[[np.ndarray, float], LocalStep] | None = None,
    darting: DartingConfig | None = None,
    regions: Sequence[JumpRegion] = (),
    postprocess: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ChainHistory:
    """The one MH loop; every chain in the package steps through it.

    The start state `current`, already evaluated to `value`, is seeded into
    `history`; then each iteration records exactly one step:

    - during a Kameleon chain's burn-in (nu > 0) the adaptation is refreshed
      first: a new subsample of the history. Its kernel (the subsample's
      median bandwidth) is built by the first Kameleon step that reads it,
      so an iteration whose gate takes a jump attempt builds none;
    - with a darting config the gate u1 is drawn every iteration, even with
      no regions, and u1 >= p_check with regions attempts `darting_step`
      ("jump", or "recount" outside every region); without one no gate is
      drawn, so at nu = 0 a Kameleon chain makes exactly the draws of plain
      random-walk Metropolis;
    - the local step is `walk` ("random-walk") if given, else `kameleon_step`,
      handed the current state's factored covariance from the step before
      when it still holds: a refresh or an accepted jump drops it, and a
      rejected jump or a recount keeps it;
    - a jump attempt is handed the indices of the regions holding the
      current state when an earlier attempt tested that state, as its own
      or as its proposal, and the cumulative region volumes summed once
      per chain. An accepted jump carries on the proposal's region set, an
      accepted local step drops it, and a rejection, a recount or a
      refresh keeps it.

    Steps only propose and decide; this loop alone moves the state and
    records each proposal with its decision, in step rows allocated here, so
    `history` must come without steps. The subsample pool is the seed
    proposals then each step's proposal in a proposal-sourced history, the
    seed states then each step's state otherwise.
    """
    if len(history):
        raise ValueError("the chain history already has steps")
    density, outcome = float(value.density), value.outcome
    history.seed_state(current, density)
    h, dim = history, current.size
    h.states, h.proposals = np.empty((iterations, dim)), np.empty((iterations, dim))
    h.densities, h.proposal_densities = np.empty(iterations), np.empty(iterations)
    h.accepted, h.outcomes = np.zeros(iterations, bool), np.full(iterations, -1, np.int8)
    h.moves = np.empty(iterations, MOVE_DTYPE)
    seed_rows = h.seed_proposals if h.proposal_sourced else h.seed_states
    pool = np.concatenate([seed_rows.reshape(-1, dim), np.empty((iterations, dim))])
    seeded = len(seed_rows)
    subsample, kernel = (), None  # the kernel is built when a Kameleon step first reads it
    factored = None  # the current state's, under this subsample and kernel
    containing = None  # the regions holding the current state, once a jump attempt tested it
    cumulative = cumulative_volumes(regions) if darting is not None and regions else None
    for t in range(iterations):
        if (
            kameleon is not None
            and kameleon.nu > 0.0
            and adaptation_schedule(t, kameleon)
            and seeded + t > 0
        ):
            subsample = subsample_history(pool[: seeded + t], kameleon.subsample_size, rng)
            kernel = factored = None
        if darting is not None and rng.uniform() >= darting.p_check and regions:
            jump = darting_step(
                current, density, regions, target, darting, rng,
                postprocess=postprocess, containing=containing, cumulative=cumulative,
            )
            if jump.proposal is None:
                move, proposal, p_density, p_outcome = "recount", current, density, outcome
            else:
                move, proposal, p_density, p_outcome = (
                    "jump", jump.proposal, jump.proposal_density, jump.proposal_outcome
                )
            accepted = jump.jumped
            if accepted:
                factored, containing = None, jump.proposal_containing
            else:
                containing = jump.containing
        else:
            if walk is not None:
                move, step = "random-walk", walk(current, density)
            else:
                if kernel is None and len(subsample):
                    kernel = GaussianKernel(median_bandwidth(subsample))
                move, step = "kameleon", kameleon_step(
                    current, density, target, kameleon, rng,
                    subsample=subsample, kernel=kernel, postprocess=postprocess,
                    current_factored=factored,
                )
            proposal, p_density, p_outcome, accepted, factored = step
            if accepted:
                containing = None
        if p_density < 0.0:
            raise ValueError("densities must be nonnegative")
        if accepted:
            current, density, outcome = proposal, p_density, p_outcome
        h.states[t], h.densities[t], h.proposals[t], h.proposal_densities[t] = (
            current, density, proposal, p_density
        )
        h.accepted[t], h.outcomes[t], h.moves[t] = accepted, OUTCOME_CODES[p_outcome], move
        pool[seeded + t] = proposal if h.proposal_sourced else current
    return history


def run_kameleon_chain(
    target: TargetFn,
    initial_state: np.ndarray,
    iterations: int,
    config: KameleonConfig,
    rng: np.random.Generator,
    *,
    history: ChainHistory | None = None,
) -> ChainHistory:
    """Pure Kameleon chain: adapt during burn-in, then freeze the subsample.

    The returned history contains one record per iteration (burn-in
    included) and the initial state as seed material.
    """
    current = np.asarray(initial_state, dtype=float)
    history = history if history is not None else ChainHistory()
    return _run_chain(target, current, target(current), iterations, history, rng, kameleon=config)
