"""Chain history: the reusable record of states, proposals, and outcomes.

A history distinguishes seed material (states or proposals present before
iteration 0: demonstrations, a reused chain, a rough sketch) from stepped
material, one row per iteration in arrays that `kameleon._run_chain`
allocates once. Row t of every step column describes iteration t. Outcomes
are codes into `OUTCOME_LABELS`, -1 when the target attached no label.
`proposal_sourced` flags rough-sketch histories, whose adaptation
subsamples come from the proposals instead of the accepted states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grasping import OUTCOME_KINDS

OUTCOME_LABELS = (*OUTCOME_KINDS, None)  # code -1 indexes the trailing None
OUTCOME_CODES = {label: code for code, label in enumerate(OUTCOME_KINDS)} | {None: -1}
MOVES = ("kameleon", "random-walk", "jump", "recount")  # every move name the MH loop records
MOVE_DTYPE = f"U{max(map(len, MOVES))}"


def rows(values=()) -> np.ndarray:
    """State vectors stacked as an (n, d) float array; (0, 0) when empty."""
    if not len(values):
        return np.empty((0, 0))
    return np.array(values, dtype=float).reshape(len(values), -1)


def _column(dtype):
    return field(default_factory=lambda: np.empty(0, dtype))


@dataclass
class ChainHistory:
    proposal_sourced: bool = False
    seed_states: np.ndarray = field(default_factory=rows)
    seed_densities: np.ndarray = _column(float)
    seed_proposals: np.ndarray = field(default_factory=rows)
    seed_proposal_densities: np.ndarray = _column(float)
    seed_accepted: np.ndarray = _column(bool)
    seed_outcomes: np.ndarray = _column(np.int8)
    states: np.ndarray = field(default_factory=rows)
    densities: np.ndarray = _column(float)
    proposals: np.ndarray = field(default_factory=rows)
    proposal_densities: np.ndarray = _column(float)
    accepted: np.ndarray = _column(bool)
    outcomes: np.ndarray = _column(np.int8)
    moves: np.ndarray = _column(MOVE_DTYPE)

    def seed_state(self, state: np.ndarray, density: float | np.ndarray) -> None:
        """Append one seed state, or an (n, d) block with its n densities."""
        state = np.asarray(state, dtype=float)
        density = np.asarray(density, dtype=float)
        if np.any(density < 0.0):
            raise ValueError("densities must be nonnegative")
        dim = state.shape[-1]
        self.seed_states = np.concatenate(
            [self.seed_states.reshape(-1, dim), state.reshape(-1, dim)]
        )
        self.seed_densities = np.append(self.seed_densities, density)

    def __len__(self) -> int:
        return len(self.states)
