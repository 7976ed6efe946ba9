"""Performance bounds: hysteresis thermostat control and perfect-model MPC.

The rule-based controller is the lower bound every learning agent must
beat; the receding-horizon controller planning on the true emulator
dynamics is the upper bound they can at best approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .emulator import BuildingParams, BuildingState
from .mdp import ActionGrid, ComfortBand
from .planners import (CemConfig, ExactDynamicsModel, GaConfig, ObservedState,
                       plan_cem, plan_exhaustive, plan_ga)

__all__ = ["RbcConfig", "rbc_action", "MpcConfig", "MpcController"]


@dataclass(frozen=True)
class RbcConfig:
    """Hysteresis margin below the comfort minimum that triggers reheating.

    The default margin is zero: the thermostat reheats as soon as the
    indoor temperature crosses the comfort minimum, which keeps the
    baseline as close to comfort-preserving as its one-sided trigger
    rule allows.
    """

    hysteresis_c: float = 0.0

    def __post_init__(self):
        if self.hysteresis_c < 0.0:
            raise ValueError("hysteresis must be >= 0")


def rbc_action(t_i: float, band: ComfortBand, cfg: RbcConfig,
               grid: ActionGrid) -> int:
    """Full power below the hysteresis threshold, otherwise off.

    There is no cooling: above the band the controller simply does nothing.
    """
    if not math.isfinite(t_i):
        raise ValueError("indoor temperature must be finite")
    if t_i < band.t_min - cfg.hysteresis_c:
        return grid.max_index
    return 0


@dataclass(frozen=True)
class MpcConfig:
    planner: str = "cem"
    horizon: int = 24
    warm_start: bool = True
    cem: CemConfig = field(default_factory=CemConfig)
    ga: GaConfig = field(default_factory=GaConfig)

    def __post_init__(self):
        if self.planner not in ("cem", "ga", "exhaustive"):
            raise ValueError(f"unknown planner {self.planner!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


class MpcController:
    """Receding-horizon control with full knowledge of the building dynamics.

    Re-plans every hour from the true latent state; the previous plan,
    shifted by one step, seeds the next optimization.
    """

    def __init__(self, params: BuildingParams, grid: ActionGrid, config: MpcConfig,
                 rng: np.random.Generator):
        self.params = params
        self.grid = grid
        self.config = config
        self._rng = rng
        self._previous: tuple[int, ...] | None = None

    def decide(self, state: BuildingState, obs: ObservedState, tariff_window,
               ambient_window, band: ComfortBand) -> int:
        """Plan over min(horizon, window) hours and return the first action."""
        horizon = min(self.config.horizon, len(tariff_window), len(ambient_window))
        if horizon < 1:
            raise ValueError("no lookahead left to plan over")
        model = ExactDynamicsModel(self.params, state)

        seed_seq = None
        if self.config.warm_start and self._previous is not None:
            shifted = self._previous[1:] + (0,)
            seed_seq = shifted[:horizon] + (0,) * max(0, horizon - len(shifted))

        if self.config.planner == "cem":
            plan = plan_cem(model, obs, horizon, self.grid, tariff_window,
                            ambient_window, band, self.config.cem, self._rng, seed_seq)
        elif self.config.planner == "ga":
            plan = plan_ga(model, obs, horizon, self.grid, tariff_window,
                           ambient_window, band, self.config.ga, self._rng, seed_seq)
        else:
            plan = plan_exhaustive(model, obs, horizon, self.grid, tariff_window,
                                   ambient_window, band)
        self._previous = plan.actions
        return plan.actions[0]
