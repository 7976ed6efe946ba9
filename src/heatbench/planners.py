"""Receding-horizon trajectory optimizers over a one-step dynamics model.

Three planners share one evaluation path: a cross-entropy method, a
genetic algorithm, and an exhaustive oracle for small horizons.  A plan
is a sequence of action-grid indices; its value is the summed energy
cost plus comfort penalty along the model-predicted trajectory, with no
discounting inside the window.

Models implement the DynamicsModel protocol: a batched `rollout_temps`
that predicts the indoor temperatures of a whole candidate population
at once, always from the same root state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .emulator import BuildingParams, BuildingState, hour_affine_map
from .mdp import ActionGrid, ComfortBand, ObservedState, comfort_reward_batch

__all__ = [
    "DynamicsModel",
    "ExactDynamicsModel",
    "Plan",
    "CemConfig",
    "GaConfig",
    "plan_cem",
    "plan_ga",
    "plan_exhaustive",
]


class DynamicsModel(Protocol):
    """Indoor-temperature predictor used by the planners."""

    def rollout_temps(self, start: ObservedState, actions: np.ndarray,
                      ambient_window: np.ndarray) -> np.ndarray:
        """Predicted arrival temperatures, shape (n_sequences, horizon)."""


class ExactDynamicsModel:
    """Emulator clone: the true building dynamics from a known latent state.

    Uses the precomputed one-hour affine map of the emulator's Euler
    integrator, so batched rollouts cost O(1) per hour per candidate.
    """

    def __init__(self, params: BuildingParams, state: BuildingState, grid: ActionGrid):
        self._params = params
        self._grid = grid
        self._root = (state.indoor_temp, state.envelope_temp)
        self._p, self._s = hour_affine_map(params)

    def rollout_temps(self, start: ObservedState, actions: np.ndarray,
                      ambient_window: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions)
        n_seq, horizon = actions.shape
        levels = np.asarray(self._grid.levels_w)
        u_a = self._params.ambient_conductance
        cop = self._params.cop
        p, s = self._p, self._s

        t_i = np.full(n_seq, self._root[0])
        t_m = np.full(n_seq, self._root[1])
        out = np.empty((n_seq, horizon))
        for k in range(horizon):
            drive = u_a * ambient_window[k] + cop * levels[actions[:, k]]
            t_i, t_m = (p[0, 0] * t_i + p[0, 1] * t_m + s[0] * drive,
                        p[1, 0] * t_i + p[1, 1] * t_m + s[1] * drive)
            out[:, k] = t_i
        return out


@dataclass(frozen=True)
class Plan:
    actions: tuple[int, ...]
    expected_return: float


@dataclass(frozen=True)
class CemConfig:
    population: int = 128
    elite_fraction: float = 0.125
    iterations: int = 20
    smoothing: float = 0.7
    # initial probability mass placed on a provided seed sequence; the rest
    # stays uniform, so receding-horizon re-plans refine the previous solution
    seed_bias: float = 0.5
    # uniform mass mixed into the categoricals every iteration, preventing
    # premature collapse onto a suboptimal mode
    explore_floor: float = 0.05

    def __post_init__(self):
        if self.population < 1 or self.iterations < 1:
            raise ValueError("population and iterations must be >= 1")
        if self.elite_count < 1:
            raise ValueError("elite fraction yields an empty elite set")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if not 0.0 <= self.seed_bias < 1.0:
            raise ValueError("seed_bias must be in [0, 1)")
        if not 0.0 <= self.explore_floor < 1.0:
            raise ValueError("explore_floor must be in [0, 1)")

    @property
    def elite_count(self) -> int:
        return int(round(self.population * self.elite_fraction))


@dataclass(frozen=True)
class GaConfig:
    population: int = 64
    generations: int = 30
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    # fresh random genomes injected each generation to preserve diversity
    immigrants: int = 2

    def __post_init__(self):
        if self.population < 2 or self.generations < 1:
            raise ValueError("population must be >= 2 and generations >= 1")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not (0.0 <= self.crossover_rate <= 1.0 and 0.0 <= self.mutation_rate <= 1.0):
            raise ValueError("rates must lie in [0, 1]")
        if not 0 <= self.immigrants <= self.population - 2:
            raise ValueError("immigrants must leave room for elite and children")


def _check_windows(horizon: int, tariff_window, ambient_window) -> None:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(tariff_window) < horizon or len(ambient_window) < horizon:
        raise ValueError("lookahead windows shorter than the planning horizon")


def evaluate_sequences(model: DynamicsModel, start: ObservedState, actions: np.ndarray,
                       grid: ActionGrid, tariff_window, ambient_window,
                       band: ComfortBand) -> np.ndarray:
    """Vectorized plan returns for an (n_sequences, horizon) index matrix."""
    actions = np.asarray(actions)
    horizon = actions.shape[1]
    prices = np.asarray(tariff_window)[:horizon]
    ambient = np.asarray(ambient_window)[:horizon]
    temps = model.rollout_temps(start, actions, ambient)
    powers = np.asarray(grid.levels_w)[actions]
    cons = -(powers / 1000.0) * prices[None, :]
    comfort = comfort_reward_batch(temps, band)
    return (cons + comfort).sum(axis=1)


def _sequence_energy(actions: np.ndarray, grid: ActionGrid) -> np.ndarray:
    return np.asarray(grid.levels_w)[np.asarray(actions)].sum(axis=1)


class _BestTracker:
    """Keeps the best (return, lower-energy tie break) sequence seen so far."""

    def __init__(self, grid: ActionGrid):
        self._grid = grid
        self.sequence: np.ndarray | None = None
        self.value = -np.inf
        self._energy = np.inf

    def offer(self, actions: np.ndarray, returns: np.ndarray) -> None:
        energies = _sequence_energy(actions, self._grid)
        for i in range(len(returns)):
            if (returns[i], -energies[i]) > (self.value, -self._energy):
                self.value = float(returns[i])
                self._energy = float(energies[i])
                self.sequence = actions[i].copy()

    def plan(self) -> Plan:
        return Plan(tuple(int(a) for a in self.sequence), self.value)


def plan_exhaustive(model: DynamicsModel, start: ObservedState, horizon: int,
                    grid: ActionGrid, tariff_window, ambient_window,
                    band: ComfortBand, cap: int = 6 ** 4) -> Plan:
    """True argmax over every action sequence; ties resolved toward lower
    total energy, then the lexicographically smaller sequence."""
    _check_windows(horizon, tariff_window, ambient_window)
    n_actions = len(grid)
    if n_actions ** horizon > cap:
        raise ValueError(f"{n_actions}^{horizon} sequences exceed the cap of {cap}")
    actions = np.array(list(itertools.product(range(n_actions), repeat=horizon)))
    returns = evaluate_sequences(model, start, actions, grid,
                                 tariff_window, ambient_window, band)
    # lexicographic enumeration + strict improvement keeps the lex-smallest tie
    tracker = _BestTracker(grid)
    tracker.offer(actions, returns)
    return tracker.plan()


def _sample_categorical(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample (n, horizon) action indices from per-step categoricals."""
    horizon, n_actions = probs.shape
    u = rng.random((n, horizon))
    out = np.empty((n, horizon), dtype=int)
    for k in range(horizon):
        cum = np.cumsum(probs[k])
        cum[-1] = 1.0  # guard against float shortfall
        out[:, k] = np.searchsorted(cum, u[:, k], side="right")
    return np.minimum(out, n_actions - 1)


def plan_cem(model: DynamicsModel, start: ObservedState, horizon: int,
             grid: ActionGrid, tariff_window, ambient_window, band: ComfortBand,
             config: CemConfig, rng: np.random.Generator,
             seed_sequence=None) -> Plan:
    """Cross-entropy planning over per-step categorical action distributions.

    Samples a population, refits the distributions to the elite fraction
    with smoothing, and returns the best sequence ever evaluated.  An
    optional seed_sequence (e.g. the previous plan shifted one step) is
    injected into every population.
    """
    _check_windows(horizon, tariff_window, ambient_window)
    n_actions = len(grid)
    probs = np.full((horizon, n_actions), 1.0 / n_actions)
    tracker = _BestTracker(grid)
    if seed_sequence is not None:
        if len(seed_sequence) != horizon:
            raise ValueError("seed_sequence length must equal the horizon")
        probs *= 1.0 - config.seed_bias
        probs[np.arange(horizon), np.asarray(seed_sequence)] += config.seed_bias

    for _ in range(config.iterations):
        population = _sample_categorical(probs, config.population, rng)
        if seed_sequence is not None:
            population[0] = seed_sequence
        returns = evaluate_sequences(model, start, population, grid,
                                     tariff_window, ambient_window, band)
        tracker.offer(population, returns)
        elite = population[np.argsort(-returns, kind="stable")[:config.elite_count]]
        freqs = np.empty_like(probs)
        for k in range(horizon):
            freqs[k] = np.bincount(elite[:, k], minlength=n_actions) / len(elite)
        probs = config.smoothing * freqs + (1.0 - config.smoothing) * probs
        probs = (1.0 - config.explore_floor) * probs + config.explore_floor / n_actions
    return tracker.plan()


def plan_ga(model: DynamicsModel, start: ObservedState, horizon: int,
            grid: ActionGrid, tariff_window, ambient_window, band: ComfortBand,
            config: GaConfig, rng: np.random.Generator,
            seed_sequence=None) -> Plan:
    """Genetic-algorithm planning: tournament selection, uniform crossover,
    per-gene mutation, with elitism; returns the best sequence ever seen."""
    _check_windows(horizon, tariff_window, ambient_window)
    n_actions = len(grid)
    population = rng.integers(n_actions, size=(config.population, horizon))
    if seed_sequence is not None:
        if len(seed_sequence) != horizon:
            raise ValueError("seed_sequence length must equal the horizon")
        population[0] = seed_sequence

    tracker = _BestTracker(grid)
    returns = evaluate_sequences(model, start, population, grid,
                                 tariff_window, ambient_window, band)
    tracker.offer(population, returns)

    n_children = config.population - 1
    for _ in range(config.generations):
        contenders = rng.integers(config.population,
                                  size=(n_children, 2, config.tournament_size))
        winners = contenders[
            np.arange(n_children)[:, None],
            np.arange(2)[None, :],
            np.argmax(returns[contenders], axis=2),
        ]
        parents_a = population[winners[:, 0]]
        parents_b = population[winners[:, 1]]
        cross = rng.random(n_children) < config.crossover_rate
        gene_mask = rng.random((n_children, horizon)) < 0.5
        children = np.where(cross[:, None] & gene_mask, parents_b, parents_a)
        mutate = rng.random((n_children, horizon)) < config.mutation_rate
        children = np.where(mutate, rng.integers(n_actions, size=children.shape), children)
        if config.immigrants > 0:
            children[-config.immigrants:] = rng.integers(
                n_actions, size=(config.immigrants, horizon))

        population = np.vstack([tracker.sequence[None, :], children])
        returns = evaluate_sequences(model, start, population, grid,
                                     tariff_window, ambient_window, band)
        tracker.offer(population, returns)
    return tracker.plan()
