"""Receding-horizon trajectory optimizers over a one-step dynamics model.

Three planners share one evaluation path: a cross-entropy method, a
genetic algorithm, and an exhaustive oracle for small horizons.  A plan
is a sequence of action-grid indices; its value is the summed energy
cost plus comfort penalty along the model-predicted trajectory, with no
discounting inside the window.

Models implement the DynamicsModel protocol: a batched `rollout_temps`
that predicts the indoor temperatures of a whole candidate population of
power sequences in W at once, always from the same root observation
`start`, the vector [T_i(t), ..., T_i(t-n), T_a(t)] of `mdp.encode_state`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .emulator import BuildingParams, BuildingState, hour_affine_map
from .mdp import ActionGrid, ComfortBand, comfort_reward_batch
from .ranges import check_ranges, ranged

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
    """Indoor-temperature predictor used by the planners: it rolls out a
    population of heat-pump power sequences in W, all from one root state."""

    def rollout_temps(self, start: np.ndarray, powers: np.ndarray,
                      ambient: np.ndarray) -> np.ndarray:
        """Predicted arrival temperatures of an (n_sequences, horizon) matrix of
        electrical powers in W under a float array of the horizon's ambient,
        from the observation vector `start`: the n+1 latest indoor
        temperatures, newest first, then the current ambient temperature."""


@functools.lru_cache(maxsize=64)
def _impulse_response(params: BuildingParams, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(lead, gain) of H hours of the one-hour affine map (P, s): the indoor
    arrival temperature of hour k is lead[k] @ [T_i, T_m] + sum_j gain[k, j] *
    drive_j, with lead[k] = (P^(k+1))[0] and gain[k, j] = (P^(k-j) s)[0] for
    j <= k, else 0.  Read-only, because the cache hands both to every caller."""
    p, s = hour_affine_map(params)
    lead, impulse = np.empty((horizon, 2)), np.empty(horizon)
    power, response = p, s
    for k in range(horizon):
        lead[k], impulse[k] = power[0], response[0]
        power, response = p @ power, p @ response
    hours = np.arange(horizon)
    gain = np.tril(impulse[np.abs(hours[:, None] - hours)])
    lead.setflags(write=False)
    gain.setflags(write=False)
    return lead, gain


class ExactDynamicsModel:
    """Emulator clone: the true building dynamics from a known latent state.

    The emulator's hour update is affine, so an H-hour rollout is closed
    form: the root state's free response plus the action drive through the
    lower-triangular impulse response of the one-hour map, cached per
    (building, horizon).  One matrix product serves a whole candidate batch
    and equals the hour-by-hour recursion up to floating-point re-association.
    The free response is kept for the last ambient window, so the repeated
    rollouts of one plan compute it once.
    """

    def __init__(self, params: BuildingParams, state: BuildingState):
        self._params = params
        self._root = np.array([state.indoor_temp, state.envelope_temp])
        self._free: tuple[tuple[int, bytes], np.ndarray] | None = None

    def rollout_temps(self, start: np.ndarray, powers: np.ndarray,
                      ambient: np.ndarray) -> np.ndarray:
        horizon = powers.shape[1]
        lead, gain = _impulse_response(self._params, horizon)
        key = horizon, np.asarray(ambient, dtype=float).tobytes()
        if self._free is None or self._free[0] != key:
            self._free = key, lead @ self._root + gain @ (
                self._params.ambient_conductance * ambient)
        return self._free[1] + (self._params.cop * powers) @ gain.T


@dataclass(frozen=True)
class Plan:
    actions: tuple[int, ...]
    expected_return: float


@dataclass(frozen=True)
class CemConfig:
    population: int = ranged(128, "[1, inf)")
    elite_fraction: float = ranged(0.125, "(0, 1]")
    iterations: int = ranged(20, "[1, inf)")
    smoothing: float = ranged(0.7, "(0, 1]")
    # initial probability mass placed on a provided seed sequence; the rest
    # stays uniform, so receding-horizon re-plans refine the previous solution
    seed_bias: float = ranged(0.5, "[0, 1)")
    # uniform mass mixed into the categoricals every iteration, preventing
    # premature collapse onto a suboptimal mode
    explore_floor: float = ranged(0.05, "[0, 1)")

    def __post_init__(self):
        check_ranges(self)
        if self.elite_count < 1:
            raise ValueError("elite fraction yields an empty elite set")

    @property
    def elite_count(self) -> int:
        return int(round(self.population * self.elite_fraction))


@dataclass(frozen=True)
class GaConfig:
    population: int = ranged(64, "[2, inf)")
    generations: int = ranged(30, "[1, inf)")
    tournament_size: int = ranged(3, "[1, inf)")
    crossover_rate: float = ranged(0.9, "[0, 1]")
    mutation_rate: float = ranged(0.1, "[0, 1]")
    # fresh random genomes injected each generation to preserve diversity
    immigrants: int = ranged(2, "[0, inf)")

    def __post_init__(self):
        check_ranges(self)
        if not self.immigrants <= self.population - 2:
            raise ValueError("immigrants must leave room for elite and children")


def _check_windows(horizon: int, tariff_window, ambient_window) -> tuple[np.ndarray, np.ndarray]:
    """The horizon's prices and ambient temperatures, as float arrays."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(tariff_window) < horizon or len(ambient_window) < horizon:
        raise ValueError("lookahead windows shorter than the planning horizon")
    prices, ambient = (np.asarray(window, dtype=float)[:horizon]
                       for window in (tariff_window, ambient_window))
    for name, window in (("tariff", prices), ("ambient", ambient)):
        if np.isnan(window).any():
            raise ValueError(f"{name} window holds NaN within the planning horizon")
    return prices, ambient


def _check_seed(seed_sequence, horizon: int, n_actions: int) -> None:
    if len(seed_sequence) != horizon:
        raise ValueError("seed_sequence length must equal the horizon")
    for k, a in enumerate(seed_sequence):
        if not (isinstance(a, (int, np.integer)) and 0 <= a < n_actions):
            raise ValueError(f"seed_sequence[{k}] = {a!r} is not an integer in [0, {n_actions})")


def evaluate_sequences(model: DynamicsModel, start: np.ndarray, powers: np.ndarray,
                       prices: np.ndarray, ambient: np.ndarray,
                       band: ComfortBand) -> np.ndarray:
    """Vectorized plan returns of an (n_sequences, horizon) matrix of powers in W."""
    temps = model.rollout_temps(start, powers, ambient)
    cons = -(powers / 1000.0) * prices
    return (cons + comfort_reward_batch(temps, band)).sum(axis=1)


class _BestTracker:
    """Keeps the best (return, lower-energy tie break) sequence seen so far."""

    def __init__(self):
        self.sequence: np.ndarray | None = None
        self.value = -np.inf
        self._energy = np.inf

    def offer(self, actions: np.ndarray, returns: np.ndarray, energies: np.ndarray) -> None:
        # stable sort: the earliest of exact ties; NaN sorts last and never wins
        i = np.lexsort((energies, -returns))[0]
        if (returns[i], -energies[i]) > (self.value, -self._energy):
            self.value = float(returns[i])
            self._energy = float(energies[i])
            self.sequence = actions[i].copy()

    def plan(self) -> Plan:
        if self.sequence is None:
            raise ValueError("no plan: every candidate sequence's return was NaN "
                             "(an idle hour at an infinite price returns NaN)")
        return Plan(tuple(int(a) for a in self.sequence), self.value)


def plan_exhaustive(model: DynamicsModel, start: np.ndarray, horizon: int,
                    grid: ActionGrid, tariff_window, ambient_window,
                    band: ComfortBand, cap: int = 6 ** 4) -> Plan:
    """True argmax over every action sequence; ties resolved toward lower
    total energy, then the lexicographically smaller sequence."""
    prices, ambient = _check_windows(horizon, tariff_window, ambient_window)
    n_actions = len(grid)
    if n_actions ** horizon > cap:
        raise ValueError(f"{n_actions}^{horizon} sequences exceed the cap of {cap}")
    actions = np.array(list(itertools.product(range(n_actions), repeat=horizon)))
    powers = np.asarray(grid.levels_w)[actions]
    returns = evaluate_sequences(model, start, powers, prices, ambient, band)
    # lexicographic enumeration + strict improvement keeps the lex-smallest tie
    tracker = _BestTracker()
    tracker.offer(actions, returns, powers.sum(axis=1))
    return tracker.plan()


def _sample_categorical(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample (n, horizon) action indices from per-step categoricals: an index
    counts the cumulative bounds its uniform draw reaches, leaving out the last
    so that a row summing to slightly less than 1 stays on the grid."""
    u = rng.random((n, probs.shape[0]))
    cum = np.cumsum(probs, axis=1)
    out = np.zeros(u.shape, dtype=np.min_scalar_type(probs.shape[1] - 1))
    for a in range(probs.shape[1] - 1):  # a few actions; candidates and hours vectorised
        out += u >= cum[:, a]
    return out.astype(np.intp)


def plan_cem(model: DynamicsModel, start: np.ndarray, horizon: int,
             grid: ActionGrid, tariff_window, ambient_window, band: ComfortBand,
             config: CemConfig, rng: np.random.Generator,
             seed_sequence=None) -> Plan:
    """Cross-entropy planning over per-step categorical action distributions.

    Samples a population, refits the distributions to the elite fraction
    with smoothing, and returns the best sequence ever evaluated.  An
    optional seed_sequence (e.g. the previous plan shifted one step) is
    injected into every population.
    """
    prices, ambient = _check_windows(horizon, tariff_window, ambient_window)
    levels = np.asarray(grid.levels_w)
    n_actions = len(levels)
    probs = np.full((horizon, n_actions), 1.0 / n_actions)
    tracker = _BestTracker()
    if seed_sequence is not None:
        _check_seed(seed_sequence, horizon, n_actions)
        probs *= 1.0 - config.seed_bias
        probs[np.arange(horizon), np.asarray(seed_sequence)] += config.seed_bias

    for _ in range(config.iterations):
        population = _sample_categorical(probs, config.population, rng)
        if seed_sequence is not None:
            population[0] = seed_sequence
        powers = levels[population]
        returns = evaluate_sequences(model, start, powers, prices, ambient, band)
        tracker.offer(population, returns, powers.sum(axis=1))
        elite = population[np.argsort(-returns, kind="stable")[:config.elite_count]]
        counts = np.bincount((elite + n_actions * np.arange(horizon)).ravel(),
                             minlength=horizon * n_actions)
        freqs = counts.reshape(horizon, n_actions) / len(elite)
        probs = config.smoothing * freqs + (1.0 - config.smoothing) * probs
        probs = (1.0 - config.explore_floor) * probs + config.explore_floor / n_actions
    return tracker.plan()


def plan_ga(model: DynamicsModel, start: np.ndarray, horizon: int,
            grid: ActionGrid, tariff_window, ambient_window, band: ComfortBand,
            config: GaConfig, rng: np.random.Generator,
            seed_sequence=None) -> Plan:
    """Genetic-algorithm planning: tournament selection, uniform crossover,
    per-gene mutation, with elitism; returns the best sequence ever seen."""
    prices, ambient = _check_windows(horizon, tariff_window, ambient_window)
    levels = np.asarray(grid.levels_w)
    n_actions = len(levels)
    population = rng.integers(n_actions, size=(config.population, horizon))
    if seed_sequence is not None:
        _check_seed(seed_sequence, horizon, n_actions)
        population[0] = seed_sequence

    tracker = _BestTracker()
    powers = levels[population]
    returns = evaluate_sequences(model, start, powers, prices, ambient, band)
    tracker.offer(population, returns, powers.sum(axis=1))

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

        population = np.vstack([tracker.plan().actions, children])
        powers = levels[population]
        returns = evaluate_sequences(model, start, powers, prices, ambient, band)
        tracker.offer(population, returns, powers.sum(axis=1))
    return tracker.plan()
