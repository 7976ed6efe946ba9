"""Model-based RL: learn the transition dynamics, plan daily, explore epsilon-greedily.

The agent stores hourly transitions in a bounded FIFO memory, refits a
small network mapping (temperature window, ambient, action power) to
the next indoor temperature once per day, and plans the next day's
action sequence on that learned model with the CEM or GA planner.
Exploration follows a harmonic schedule eps(d) = eps0 / d**x over days.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mdp import ActionGrid, ComfortBand, Controller
from .neural import (ACTIVATIONS, AdamOptimizer, MlpParams, MlpSpec, Normalizer, fit_normalizer,
                     forward_batch, train_minibatch)
from .planners import CemConfig, DynamicsModel, GaConfig, Plan, plan
from .ranges import check_ranges, ranged

__all__ = [
    "SampleMemory",
    "ExplorationSchedule",
    "MbrlConfig",
    "TransitionModel",
    "LearnedDynamicsModel",
    "ModelBasedAgent",
    "train_transition_model",
    "training_matrix",
]

MAE_CSV_HEADER = ("day", "holdout_mae_c")  # the columns of the model_mae table


class SampleMemory:
    """Bounded transition store: ring arrays with strict FIFO eviction.

    Each added transition fills one slot of the arrays `s` and `s_next`
    (the observation vectors before and after the hour), `a` (action
    index) and `r` (reward).  The arrays are allocated at the first `add`,
    when the feature width is known; `rows` reads one oldest-first.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._size = 0
        self._next = 0

    def add(self, s: np.ndarray, a: int, r: float, s_next: np.ndarray) -> int:
        """File the transition over the oldest one once full; returns its slot."""
        if self._size == 0:
            self.s = np.empty((self.capacity, len(s)))
            self.a = np.empty(self.capacity, dtype=int)
            self.r = np.empty(self.capacity)
            self.s_next = np.empty((self.capacity, len(s)))
        i = self._next
        self.s[i], self.a[i], self.r[i], self.s_next[i] = s, a, r, s_next
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return i

    def __len__(self) -> int:
        return self._size

    def rows(self, column: np.ndarray) -> np.ndarray:
        """The filled rows of one of the store's arrays, oldest first."""
        return np.roll(column[:self._size], -self._next, axis=0)


@dataclass
class ExplorationSchedule:
    """Harmonic exploration decay eps(d) = initial / d**exponent, d >= 1."""

    initial: float = ranged(0.5, "(0, 1]")
    exponent: float = ranged(0.7, "(0, inf)")
    day: int = ranged(1, "[1, inf)")

    def __post_init__(self):
        check_ranges(self)

    def epsilon(self) -> float:
        return self.initial / self.day ** self.exponent

    def advance(self) -> None:
        self.day += 1


@dataclass(frozen=True)
class MbrlConfig:
    memory_capacity: int = ranged(4096, "[1, inf)")
    epsilon_initial: float = ranged(0.5, "(0, 1]")
    epsilon_exponent: float = ranged(0.7, "(0, inf)")
    hidden: tuple[int, ...] = ranged((32, 32), "[1, inf)")
    activation: str = ranged("tanh", ACTIVATIONS)
    learning_rate: float = ranged(1e-3, "(0, inf)")
    epochs_per_update: int = ranged(50, "[1, inf)")
    batch_size: int = ranged(256, "[1, inf)")
    min_train_samples: int = ranged(24, "[2, inf)")
    holdout_fraction: float = ranged(0.2, "(0, 1)")
    planner: str = ranged("cem", ("cem", "ga"))
    cem: CemConfig = field(default_factory=CemConfig)
    ga: GaConfig = field(default_factory=GaConfig)

    def __post_init__(self):
        check_ranges(self)
        if self.memory_capacity < self.min_train_samples:
            raise ValueError("memory_capacity must hold min_train_samples")
        if self.min_train_samples - self.holdout_rows(self.min_train_samples) < 2:
            raise ValueError("holdout_fraction must leave at least 2 of min_train_samples "
                             "rows to train on")

    def holdout_rows(self, n: int) -> int:
        """How many of `n` stored transitions a training call holds out, at least 1."""
        return max(1, int(round(n * self.holdout_fraction)))


@dataclass
class TransitionModel:
    """Next-temperature predictor: network plus frozen feature/target scaling.

    The normalizers are fitted at the first training call and kept fixed so
    that later updates resume from meaningful weights.  Before any training
    the model predicts a constant room-scale temperature.
    """

    mlp: MlpParams
    in_norm: Normalizer | None = None
    out_shift: float = 21.0
    out_scale: float = 1.0

    @classmethod
    def create(cls, n_features: int, cfg: MbrlConfig, seed: int) -> "TransitionModel":
        spec = MlpSpec((n_features, *cfg.hidden, 1), cfg.activation, init_seed=seed)
        return cls(MlpParams.init(spec))

    def astype(self, dtype) -> "TransitionModel":
        """A copy whose network and input scaling compute in `dtype`."""
        norm = None if self.in_norm is None else Normalizer(self.in_norm.shift.astype(dtype),
                                                            self.in_norm.scale.astype(dtype))
        return TransitionModel(MlpParams(self.mlp.spec, self.mlp.theta.astype(dtype)), norm,
                               self.out_shift, self.out_scale)

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Next indoor temperatures, in the network's dtype."""
        x = np.asarray(features, dtype=self.mlp.theta.dtype)
        if self.in_norm is not None:
            x = self.in_norm.apply(x)
        y = forward_batch(self.mlp, x)[:, 0]
        return y * self.out_scale + self.out_shift


def training_matrix(memory: SampleMemory, grid: ActionGrid):
    """Model inputs (temperature window, ambient, action power) and next
    indoor temperatures of the stored transitions, oldest first."""
    power = np.asarray(grid.levels_w)[memory.rows(memory.a)]
    return (np.column_stack([memory.rows(memory.s), power]),
            memory.rows(memory.s_next)[:, 0])


def train_transition_model(memory: SampleMemory, model: TransitionModel,
                           grid: ActionGrid, cfg: MbrlConfig,
                           rng: np.random.Generator) -> tuple[TransitionModel, float | None]:
    """Resume training on the memory; returns (model, holdout MAE in deg C).

    Returns MAE None as the skip signal when the memory is below the
    minimum sample count.  Deterministic for a given rng state.
    """
    if len(memory) < cfg.min_train_samples:
        return model, None

    x, y = training_matrix(memory, grid)
    order = rng.permutation(len(y))
    n_holdout = cfg.holdout_rows(len(y))
    holdout, train = order[:n_holdout], order[n_holdout:]

    if model.in_norm is None:
        model.in_norm = fit_normalizer(x[train])
        model.out_shift = float(y[train].mean())
        model.out_scale = float(max(y[train].std(), 1e-6))

    x_train = model.in_norm.apply(x[train])
    y_train = (y[train] - model.out_shift) / model.out_scale
    optimizer = AdamOptimizer(cfg.learning_rate)
    n_train = len(train)
    for _ in range(cfg.epochs_per_update):
        perm = rng.permutation(n_train)
        for lo in range(0, n_train, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            train_minibatch(model.mlp, x_train[idx], y_train[idx, None], optimizer)

    pred = model.predict_batch(x[holdout])
    mae = float(np.mean(np.abs(pred - y[holdout])))
    return model, mae


class LearnedDynamicsModel:
    """DynamicsModel adapter that rolls out a float32 copy of a TransitionModel.

    The planner only ranks candidate sequences, so it does not need float64:
    the copy moves a 24 h rollout by at most about 2e-5 degC, and runs faster.
    """

    def __init__(self, model: TransitionModel):
        self.model = model.astype(np.float32)  # the copy that rollout_temps predicts with

    def rollout_temps(self, start: np.ndarray, powers: np.ndarray,
                      ambient: np.ndarray) -> np.ndarray:
        n_seq, horizon = powers.shape
        n_hist = len(start) - 1
        # one feature matrix per rollout: temperature window, ambient, power
        features = np.empty((n_seq, n_hist + 2), dtype=self.model.mlp.theta.dtype)
        features[:, :-1] = start
        out = np.empty((n_seq, horizon))
        for k in range(horizon):
            features[:, n_hist] = ambient[k]
            features[:, n_hist + 1] = powers[:, k]
            t_next = self.model.predict_batch(features)
            out[:, k] = t_next
            features[:, 1:n_hist] = features[:, :n_hist - 1]
            features[:, 0] = t_next
        return out


class ModelBasedAgent(Controller):
    """Daily plan-and-execute agent over a learned transition model.

    `act` serves the current day's plan (epsilon-greedy); `observe` files
    the transition; `daily_update` retrains the model, decays epsilon and
    plans the next day.  A DynamicsModel override can be injected to run
    the same loop on the exact emulator clone.
    """

    def __init__(self, cfg: MbrlConfig, grid: ActionGrid,
                 rng: np.random.Generator, seed: int = 0, *, history_length: int,
                 dynamics_override: DynamicsModel | None = None):
        self.cfg = cfg
        self.grid = grid
        self.memory = SampleMemory(cfg.memory_capacity)
        self.schedule = ExplorationSchedule(cfg.epsilon_initial, cfg.epsilon_exponent)
        n_features = history_length + 3  # temps window + ambient + action power
        self.model = TransitionModel.create(n_features, cfg, seed)
        self._rng = rng
        self._override = dynamics_override
        self._plan: tuple[int, ...] = (0,) * 24
        self._started = False
        self.mae_history: list[tuple[int, float]] = []

    def dynamics(self) -> DynamicsModel:
        if self._override is not None:
            return self._override
        return LearnedDynamicsModel(self.model)

    def plan_day(self, obs: np.ndarray, tariff_window, ambient_window,
                 band: ComfortBand) -> Plan:
        return plan(self.cfg, self.dynamics(), obs, min(24, len(tariff_window)), self.grid,
                    tariff_window, ambient_window, band, self._rng)

    def act(self, hour_of_day: int, epsilon: float | None = None) -> int:
        eps = self.schedule.epsilon() if epsilon is None else epsilon
        if eps > 0.0 and self._rng.random() < eps:
            return int(self._rng.integers(len(self.grid)))
        return self._plan[hour_of_day % 24]

    def observe(self, obs: np.ndarray, action: int, reward: float,
                obs_next: np.ndarray) -> None:
        self.memory.add(obs, action, reward, obs_next)

    def daily_update(self, obs: np.ndarray, tariff_window, ambient_window,
                     band: ComfortBand) -> float | None:
        """Retrain on the memory, decay epsilon, and plan the coming day."""
        if self._started:
            self.schedule.advance()
        self._started = True
        self.model, mae = train_transition_model(self.memory, self.model,
                                                 self.grid, self.cfg, self._rng)
        if mae is not None:
            self.mae_history.append((self.schedule.day, mae))
        actions = self.plan_day(obs, tariff_window, ambient_window, band).actions
        self._plan = actions + (0,) * max(0, 24 - len(actions))
        return mae

    def start_day(self, obs, prices, ambient, band) -> None:
        self.daily_update(obs, prices, ambient, band)

    def action(self, t, state, obs, prices, ambient, band) -> int:
        return self.act(t % 24)

    def tables(self) -> dict:
        return {"model_mae": (MAE_CSV_HEADER, self.mae_history)}
