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
    "plan",
    "sample_categorical",
    "EXHAUSTIVE_CAP",
]

# the most action sequences plan_exhaustive ranks in one plan
EXHAUSTIVE_CAP = 6 ** 4


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
    """

    def __init__(self, params: BuildingParams, state: BuildingState):
        self._params = params
        self._root = np.array([state.indoor_temp, state.envelope_temp])

    def rollout_temps(self, start: np.ndarray, powers: np.ndarray,
                      ambient: np.ndarray) -> np.ndarray:
        lead, gain = _impulse_response(self._params, powers.shape[1])
        free = lead @ self._root + gain @ (self._params.ambient_conductance * ambient)
        return free + (self._params.cop * powers) @ gain.T


@dataclass(frozen=True)
class Plan:
    actions: tuple[int, ...]
    expected_return: float


@dataclass(frozen=True)
class CemConfig:
    population: int = ranged(128, "[1, 10000]")
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
            raise ValueError("elite_fraction * population yields an empty elite set")

    @property
    def elite_count(self) -> int:
        return int(round(self.population * self.elite_fraction))


@dataclass(frozen=True)
class GaConfig:
    population: int = ranged(64, "[2, 10000]")
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
    returns = comfort_reward_batch(model.rollout_temps(start, powers, ambient), band)
    cost = powers / 1000.0
    cost *= prices
    returns -= cost  # comfort + (-cost): IEEE addition commutes, and a - b is a + (-b)
    return returns.sum(axis=1)


class _Search:
    """One plan's evaluation path, which the planners feed populations: the
    horizon's checked prices and ambient, and the best sequence scored so far,
    which is the highest return, then the lowest total energy, then the
    earliest candidate; a later population must beat it strictly, and a NaN
    return never wins."""

    def __init__(self, model: DynamicsModel, start: np.ndarray, horizon: int, grid: ActionGrid,
                 tariff_window, ambient_window, band: ComfortBand):
        self._prices, self._ambient = _check_windows(horizon, tariff_window, ambient_window)
        self._model, self._start, self._band = model, start, band
        self._levels = np.asarray(grid.levels_w)
        self._sequence: np.ndarray | None = None
        self._value, self._energy = -np.inf, np.inf

    def score(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The returns of an (n_sequences, horizon) matrix of action indices and
        their stable `argsort(-returns)`; the energies are summed only for the
        candidates tied at the top."""
        powers = self._levels[actions]
        returns = evaluate_sequences(self._model, self._start, powers, self._prices,
                                     self._ambient, self._band)
        order = np.argsort(-returns, kind="stable")
        top = returns[order[0]]
        if top >= self._value:  # NaN sorts last, so a NaN top (every return NaN) fails this
            tied = np.flatnonzero(returns == top)  # ascending, so argmin keeps the earliest
            energies = powers[tied].sum(axis=1)
            j = np.argmin(energies)
            if (top, -energies[j]) > (self._value, -self._energy):
                self._value, self._energy = float(returns[tied[j]]), float(energies[j])
                self._sequence = actions[tied[j]].copy()
        return returns, order

    def plan(self) -> Plan:
        if self._sequence is None:
            raise ValueError("no plan: every candidate sequence's return was NaN "
                             "(an idle hour at an infinite price returns NaN)")
        return Plan(tuple(int(a) for a in self._sequence), self._value)


def plan_exhaustive(model: DynamicsModel, start: np.ndarray, horizon: int,
                    grid: ActionGrid, tariff_window, ambient_window,
                    band: ComfortBand) -> Plan:
    """True argmax over every action sequence; ties resolved toward lower
    total energy, then the lexicographically smaller sequence."""
    search = _Search(model, start, horizon, grid, tariff_window, ambient_window, band)
    n_actions = len(grid)
    if n_actions ** horizon > EXHAUSTIVE_CAP:
        raise ValueError(f"{n_actions}^{horizon} sequences exceed the cap of {EXHAUSTIVE_CAP}")
    # lexicographic enumeration keeps the lex-smallest tie
    search.score(np.array(list(itertools.product(range(n_actions), repeat=horizon))))
    return search.plan()


def sample_categorical(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample (n, horizon) action indices from per-step categoricals: an index
    counts the cumulative bounds its uniform draw reaches, leaving out the last
    so that a row summing to slightly less than 1 stays on the grid.  Each
    comparison fills one reused bool buffer, whose uint8 view adds into a
    counter of the smallest unsigned type that holds the top index."""
    u = rng.random((n, probs.shape[0]))
    cum = np.cumsum(probs, axis=1)
    out = np.zeros(u.shape, dtype=np.min_scalar_type(probs.shape[1] - 1))
    reached = np.empty(u.shape, dtype=bool)
    for a in range(probs.shape[1] - 1):  # a few actions; candidates and hours vectorised
        np.greater_equal(u, cum[:, a], out=reached)
        out += reached.view(np.uint8)
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
    search = _Search(model, start, horizon, grid, tariff_window, ambient_window, band)
    n_actions = len(grid)
    probs = np.full((horizon, n_actions), 1.0 / n_actions)
    if seed_sequence is not None:
        _check_seed(seed_sequence, horizon, n_actions)
        seed_sequence = np.asarray(seed_sequence)
        probs *= 1.0 - config.seed_bias
        probs[np.arange(horizon), seed_sequence] += config.seed_bias
    offsets = n_actions * np.arange(horizon)  # hour k's counts start at k * n_actions

    for _ in range(config.iterations):
        population = sample_categorical(probs, config.population, rng)
        if seed_sequence is not None:
            population[0] = seed_sequence
        _, order = search.score(population)
        elite = population[order[:config.elite_count]]
        elite += offsets
        counts = np.bincount(elite.ravel(), minlength=horizon * n_actions)
        freqs = counts.reshape(horizon, n_actions) / len(elite)
        probs = config.smoothing * freqs + (1.0 - config.smoothing) * probs
        probs = (1.0 - config.explore_floor) * probs + config.explore_floor / n_actions
    return search.plan()


def plan_ga(model: DynamicsModel, start: np.ndarray, horizon: int,
            grid: ActionGrid, tariff_window, ambient_window, band: ComfortBand,
            config: GaConfig, rng: np.random.Generator,
            seed_sequence=None) -> Plan:
    """Genetic-algorithm planning: tournament selection, uniform crossover,
    per-gene mutation, with elitism; returns the best sequence ever seen."""
    search = _Search(model, start, horizon, grid, tariff_window, ambient_window, band)
    n_actions = len(grid)
    population = rng.integers(n_actions, size=(config.population, horizon))
    if seed_sequence is not None:
        _check_seed(seed_sequence, horizon, n_actions)
        population[0] = seed_sequence
    returns, _ = search.score(population)

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

        population = np.vstack([search.plan().actions, children])
        returns, _ = search.score(population)
    return search.plan()


def plan(planner: str, cem: CemConfig, ga: GaConfig, model: DynamicsModel, start: np.ndarray,
         horizon: int, grid: ActionGrid, tariff_window, ambient_window, band: ComfortBand,
         rng: np.random.Generator, seed_sequence=None) -> Plan:
    """Plan with `planner` ("cem", "ga" or "exhaustive"); CEM reads `cem`, GA reads `ga`."""
    if planner == "exhaustive":
        return plan_exhaustive(model, start, horizon, grid, tariff_window, ambient_window, band)
    search, settings = (plan_cem, cem) if planner == "cem" else (plan_ga, ga)
    return search(model, start, horizon, grid, tariff_window, ambient_window, band, settings,
                  rng, seed_sequence)
