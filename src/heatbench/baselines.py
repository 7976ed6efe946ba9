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
from .mdp import ActionGrid, ComfortBand, Controller
from .planners import (CemConfig, ExactDynamicsModel, GaConfig, plan_cem,
                       plan_exhaustive, plan_ga)
from .ranges import check_ranges, ranged

__all__ = ["RbcConfig", "rbc_action", "RbcController", "MpcConfig", "MpcController"]


@dataclass(frozen=True)
class RbcConfig:
    """Hysteresis margin below the comfort minimum that triggers reheating.

    The default margin is zero: the thermostat reheats as soon as the
    indoor temperature crosses the comfort minimum, which keeps the
    baseline as close to comfort-preserving as its one-sided trigger
    rule allows.
    """

    hysteresis_c: float = ranged(0.0, "[0, inf)")

    def __post_init__(self):
        check_ranges(self)


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


class RbcController(Controller):
    """The hysteresis thermostat, on the indoor temperature of the hour."""

    def __init__(self, config: RbcConfig, grid: ActionGrid):
        self.config = config
        self.grid = grid

    def action(self, t, state, obs, prices, ambient, band) -> int:
        return rbc_action(state.indoor_temp, band, self.config, self.grid)


@dataclass(frozen=True)
class MpcConfig:
    planner: str = ranged("cem", ("cem", "ga", "exhaustive"))
    horizon: int = ranged(24, "[1, inf)")
    warm_start: bool = True
    cem: CemConfig = field(default_factory=CemConfig)
    ga: GaConfig = field(default_factory=GaConfig)

    def __post_init__(self):
        check_ranges(self)


class MpcController(Controller):
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

    def decide(self, state: BuildingState, obs: np.ndarray, tariff_window,
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

    def action(self, t, state, obs, prices, ambient, band) -> int:
        return self.decide(state, obs, prices, ambient, band)
