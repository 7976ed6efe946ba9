"""Model-free control: double deep fitted Q iteration with prioritized replay.

The Q-network maps the observed state to one value per grid action.
Targets use the double-Q rule: the online network selects the next
action, the slowly tracking target network values it.  Transitions are
stored with a priority proportional to their temporal-difference error
and replayed with probability priority**alpha.  The target network
follows the online one through soft updates w_tgt <- tau*w + (1-tau)*w_tgt.

The feature normalizer is fitted once, when the replay first holds
`warmup_samples` transitions, and never changes.  At that moment the
stored rows are normalised in place; from then on the replay rows hold
normalised features, so a training cycle gathers its batch as is.
`replay_sample` is numpy's weighted draw without replacement
(`Generator.choice(n, size, replace=False, p=p)`), reproduced bit for bit
in indices and generator state without its per-call validation of `p`.

The agent encodes and values each observation once.  One record holds the
newest observation valued with the online network, its features and its
online Q-values; `act` and `observe` read it when both objects match,
whichever values an observation first writes it (`observe` values
`obs_next`), and a training cycle or the normalizer fit drops it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import ActionGrid, Controller
from .model_based import ExplorationSchedule, SampleMemory
from .neural import (ACTIVATIONS, AdamOptimizer, MlpParams, MlpSpec, Normalizer, fit_normalizer,
                     forward, forward_batch, train_minibatch)
from .ranges import check_ranges, ranged

__all__ = [
    "PrioritizedReplay",
    "QPair",
    "MfrlConfig",
    "ModelFreeAgent",
    "q_target",
    "compute_priority",
    "replay_sample",
    "soft_update",
]


class PrioritizedReplay(SampleMemory):
    """Transition store with a proportional replay priority per slot.

    Each slot also keeps its replay weight priority**alpha, written with
    the priority, so a draw does not raise the whole store to alpha.
    """

    def __init__(self, capacity: int, alpha: float = 0.6):
        super().__init__(capacity)
        if not 0.0 <= alpha < np.inf:
            raise ValueError("alpha must be finite and >= 0")
        self.alpha = alpha
        self._priorities = np.zeros(capacity)
        self._weights = np.zeros(capacity)

    def _weight(self, priorities):
        p = np.asarray(priorities, dtype=float)
        if not (p.min() > 0.0 and p.max() < np.inf):
            raise ValueError("priority must be finite and > 0")
        return p ** self.alpha

    def add(self, s: np.ndarray, a: int, r: float, s_next: np.ndarray,
            priority: float) -> int:
        weight = self._weight(priority)
        i = super().add(s, a, r, s_next)
        self._priorities[i], self._weights[i] = priority, weight
        return i

    def priority(self, index: int) -> float:
        return float(self._priorities[index])

    def update_priorities(self, indices, priorities) -> None:
        """Overwrite the priorities of the given slots."""
        self._weights[indices] = self._weight(priorities)
        self._priorities[indices] = priorities

    def probabilities(self) -> np.ndarray:
        w = self._weights[:len(self)]
        return w / w.sum()


def replay_sample(memory: PrioritizedReplay, batch_size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw a batch of slot indices without replacement, proportional to
    priority**alpha; the same indices serve the priority write-back.

    This is the loop of `rng.choice(len(memory), batch_size, replace=False,
    p=memory.probabilities())`: each round draws one uniform per missing
    index, inverts the CDF of the slots not yet drawn and keeps each new
    slot's first occurrence in draw order.  Indices and the generator's
    state afterwards equal numpy's.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(memory) < batch_size:
        raise ValueError(f"memory holds {len(memory)} < batch_size {batch_size}")
    p = memory.probabilities()
    found: list[int] = []
    while len(found) < batch_size:
        x = rng.random(batch_size - len(found))
        if found:
            p[new] = 0.0
        cdf = np.cumsum(p)
        if not cdf[-1] > 0.0:
            raise ValueError(f"fewer than batch_size {batch_size} slots have weight > 0")
        cdf /= cdf[-1]
        new = list(dict.fromkeys(cdf.searchsorted(x, side="right").tolist()))
        found += new
    return np.array(found)


@dataclass
class QPair:
    """Online and target Q-networks with soft-update rate and discount."""

    online: MlpParams
    target: MlpParams
    tau: float = ranged(0.01, "(0, 1]")
    gamma: float = ranged(0.95, "[0, 1)")

    def __post_init__(self):
        check_ranges(self)
        if self.online.spec.layer_sizes != self.target.spec.layer_sizes:
            raise ValueError("online and target architectures must match")

    @classmethod
    def create(cls, spec: MlpSpec, tau: float = 0.01, gamma: float = 0.95) -> "QPair":
        online = MlpParams.init(spec)
        return cls(online, online.copy(), tau, gamma)


def soft_update(pair: QPair) -> QPair:
    """Move the target parameters a fraction tau toward the online ones."""
    pair.target.theta *= 1.0 - pair.tau
    pair.target.theta += pair.tau * pair.online.theta
    return pair


def q_target(x_next: np.ndarray, rewards: np.ndarray, pair: QPair,
             selection_by_target: bool = False,
             selector: np.ndarray | None = None) -> np.ndarray:
    """Bootstrap targets for a batch of transitions, one per row.

    `x_next` holds the encoded next states.  The online network picks the
    next action and the target network values it (double-Q);
    `selection_by_target` switches the argmax to the target network instead.
    A caller that holds the online values of `x_next` passes them as `selector`.
    """
    q_tgt = forward_batch(pair.target, x_next)
    if selector is None:
        selector = q_tgt if selection_by_target else forward_batch(pair.online, x_next)
    bootstrap = q_tgt[np.arange(len(q_tgt)), np.argmax(selector, axis=1)]
    return rewards + pair.gamma * bootstrap


def compute_priority(target, q_sa, offset: float):
    """Replay priority: absolute TD error plus a strictly positive offset;
    elementwise over arrays."""
    if not offset > 0.0:
        raise ValueError("offset must be > 0")
    return abs(target - q_sa) + offset


@dataclass(frozen=True)
class MfrlConfig:
    hidden: tuple[int, ...] = ranged((64, 64), "[1, inf)")
    activation: str = ranged("relu", ACTIVATIONS)
    learning_rate: float = ranged(1e-3, "(0, inf)")
    # a short discount horizon keeps the steep below-band penalty from
    # bleeding across the fitted Q surface and inflating the hold threshold;
    # the slow thermal plant makes near-myopic control close to optimal
    gamma: float = ranged(0.70, "[0, 1)")
    tau: float = ranged(0.01, "(0, 1]")
    batch_size: int = ranged(96, "[1, inf)")
    capacity: int = ranged(4096, "[1, inf)")
    warmup_samples: int = ranged(96, "[1, inf)")
    priority_alpha: float = ranged(0.6, "[0, inf)")
    priority_offset: float = ranged(1e-3, "(0, inf)")
    epsilon_initial: float = ranged(0.5, "(0, 1]")
    epsilon_exponent: float = ranged(0.7, "(0, inf)")
    # One call to train_cycle takes one gradient step; this many cycles run
    # at each 24 h boundary.
    train_cycles_per_update: int = ranged(192, "[1, inf)")

    def __post_init__(self):
        check_ranges(self)
        if self.warmup_samples < self.batch_size:
            raise ValueError("warmup must cover at least one batch")
        if self.capacity < self.warmup_samples:
            raise ValueError("capacity must hold warmup_samples")


class ModelFreeAgent(Controller):
    """Epsilon-greedy double fitted Q iteration with prioritized replay."""

    def __init__(self, cfg: MfrlConfig, grid: ActionGrid,
                 rng: np.random.Generator, seed: int = 0, *, history_length: int):
        self.cfg = cfg
        self.grid = grid
        self.replay = PrioritizedReplay(cfg.capacity, cfg.priority_alpha)
        n_features = history_length + 2  # temps window + ambient
        spec = MlpSpec((n_features, *cfg.hidden, len(grid)), cfg.activation,
                       init_seed=seed)
        self.pair = QPair.create(spec, cfg.tau, cfg.gamma)
        self.schedule = ExplorationSchedule(cfg.epsilon_initial, cfg.epsilon_exponent)
        self.normalizer: Normalizer | None = None
        self._optimizer = AdamOptimizer(cfg.learning_rate)
        self._rng = rng
        self._started = False
        # (observation, online network, features, online Q-values): the record
        self._record: tuple | None = None
        self.q_trace: list[tuple[int, tuple[float, ...], int]] = []

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Normalise state features, one vector or a matrix of rows."""
        return self.normalizer.apply(x) if self.normalizer is not None else x

    def _valued(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Encoded features and online Q-values of `obs`, from or into the record."""
        record = self._record
        if record is not None and record[0] is obs and record[1] is self.pair.online:
            return record[2], record[3]
        x = self.encode(obs)
        q = forward(self.pair.online, x)
        self._record = (obs, self.pair.online, x, q)
        return x, q

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        return self._valued(obs)[1]

    def act(self, obs: np.ndarray, hour: int | None = None,
            epsilon: float | None = None) -> int:
        x, q = self._valued(obs)
        # an explicitly passed epsilon overrides the warm-up random phase
        warming = epsilon is None and len(self.replay) < self.cfg.warmup_samples
        eps = self.schedule.epsilon() if epsilon is None else epsilon
        if warming or (eps > 0.0 and self._rng.random() < eps):
            action = int(self._rng.integers(len(self.grid)))
        else:
            action = int(np.argmax(q))  # first max = lowest-power tie break
        if hour is not None:
            self.q_trace.append((hour, tuple(float(v) for v in q), action))
        return action

    def observe(self, obs: np.ndarray, action: int, reward: float,
                obs_next: np.ndarray) -> None:
        """File the transition with its TD priority; record `obs_next`'s values."""
        x, q = self._valued(obs)
        x_next = self.encode(obs_next[None, :])
        q_next = forward_batch(self.pair.online, x_next)
        target = q_target(x_next, np.array([reward]), self.pair, selector=q_next)
        self.replay.add(x, action, reward, x_next[0],
                        compute_priority(float(target[0]), float(q[action]),
                                         self.cfg.priority_offset))
        self._record = (obs_next, self.pair.online, x_next[0], q_next[0])
        if self.normalizer is None and len(self.replay) >= self.cfg.warmup_samples:
            self._record = None  # encoded before the normalizer existed
            mem = self.replay
            self.normalizer = fit_normalizer(mem.rows(mem.s))
            n = len(mem)
            mem.s[:n] = self.normalizer.apply(mem.s[:n])
            mem.s_next[:n] = self.normalizer.apply(mem.s_next[:n])

    def train_cycle(self) -> bool:
        """One replay batch: masked Q step, soft target update, priority write-back.

        Returns False (skip signal) while the replay is below warm-up.
        """
        if len(self.replay) < self.cfg.warmup_samples:
            return False
        self._record = None
        mem = self.replay
        idx = replay_sample(mem, self.cfg.batch_size, self._rng)
        x, x_next = mem.s[idx], mem.s_next[idx]
        rewards, actions = mem.r[idx], mem.a[idx]
        rows = np.arange(len(idx))

        t_full = np.zeros((len(idx), len(self.grid)))
        mask = np.zeros_like(t_full)
        t_full[rows, actions] = q_target(x_next, rewards, self.pair)
        mask[rows, actions] = 1.0
        train_minibatch(self.pair.online, x, t_full, self._optimizer, mask)

        soft_update(self.pair)

        new_targets = q_target(x_next, rewards, self.pair)
        q_now = forward_batch(self.pair.online, x)[rows, actions]
        mem.update_priorities(
            idx, compute_priority(new_targets, q_now, self.cfg.priority_offset))
        return True

    def daily_update(self) -> int:
        """Advance epsilon and run the configured number of training cycles."""
        if self._started:
            self.schedule.advance()
        self._started = True
        return sum(self.train_cycle() for _ in range(self.cfg.train_cycles_per_update))

    def start_day(self, obs, prices, ambient, band) -> None:
        self.daily_update()

    def action(self, t, state, obs, prices, ambient, band) -> int:
        return self.act(obs, t)
