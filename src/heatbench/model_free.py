"""Model-free control: double deep fitted Q iteration with prioritized replay.

The Q-network maps the observed state to one value per grid action.
Targets use the double-Q rule: the online network selects the next
action, the slowly tracking target network values it.  Transitions are
stored with a priority proportional to their temporal-difference error
and replayed with probability priority**alpha.  The target network
follows the online one through soft updates w_tgt <- tau*w + (1-tau)*w_tgt.

The feature normalizer is fitted once, when the replay first holds
`warmup_samples` transitions, and never changes.  The replay holds the raw
observations; `act`, `observe` and a training cycle each encode what they
value.  `replay_sample` is numpy's weighted draw without replacement
(`Generator.choice(n, size, replace=False, p=p)`), reproduced bit for bit
in indices and generator state without its per-call validation of `p`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import ActionGrid, Controller
from .model_based import SampleMemory, exploration_rate
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

    Slot i keeps its replay weight priority**alpha in `weights[i]`, written
    with the priority, so a draw does not raise the whole store to alpha.
    """

    def __init__(self, capacity: int, alpha: float = 0.6):
        super().__init__(capacity)
        if not 0.0 <= alpha < np.inf:
            raise ValueError("alpha must be finite and >= 0")
        self.alpha = alpha
        self.weights = np.zeros(capacity)

    def _weight(self, priorities):
        p = np.asarray(priorities, dtype=float)
        if not (p.min() > 0.0 and p.max() < np.inf):
            raise ValueError("priority must be finite and > 0")
        return p ** self.alpha

    def add(self, s: np.ndarray, a: int, r: float, s_next: np.ndarray,
            priority: float) -> int:
        weight = self._weight(priority)
        i = super().add(s, a, r, s_next)
        self.weights[i] = weight
        return i

    def update_priorities(self, indices, priorities) -> None:
        """Overwrite the priorities of the given slots."""
        self.weights[indices] = self._weight(priorities)

    def probabilities(self) -> np.ndarray:
        w = self.weights[:len(self)]
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


def q_target(x_next: np.ndarray, rewards: np.ndarray, pair: QPair) -> np.ndarray:
    """Bootstrap targets for a batch of transitions, one per row.

    `x_next` holds the encoded next states.  The online network picks the
    next action and the target network values it (double-Q).
    """
    q_tgt = forward_batch(pair.target, x_next)
    picks = np.argmax(forward_batch(pair.online, x_next), axis=1)
    return rewards + pair.gamma * q_tgt[np.arange(len(q_tgt)), picks]


def compute_priority(target, q_sa, offset: float):
    """Replay priority: absolute TD error plus a strictly positive offset;
    elementwise over arrays."""
    if not offset > 0.0:
        raise ValueError("offset must be > 0")
    return abs(target - q_sa) + offset


@dataclass(frozen=True)
class MfrlConfig:
    hidden: tuple[int, ...] = ranged((64, 64), "[1, 1024]")
    activation: str = ranged("relu", ACTIVATIONS)
    learning_rate: float = ranged(1e-3, "(0, 1]")
    # a short discount horizon keeps the steep below-band penalty from
    # bleeding across the fitted Q surface and inflating the hold threshold;
    # the slow thermal plant makes near-myopic control close to optimal
    gamma: float = ranged(0.70, "[0, 1)")
    tau: float = ranged(0.01, "(0, 1]")
    batch_size: int = ranged(96, "[1, inf)")
    capacity: int = ranged(4096, "[1, 1000000]")
    warmup_samples: int = ranged(96, "[2, inf)")  # the normalizer fit needs 2 rows
    priority_alpha: float = ranged(0.6, "[0, 1]")
    priority_offset: float = ranged(1e-3, "(0, 1]")
    epsilon_initial: float = ranged(0.5, "(0, 1]")
    epsilon_exponent: float = ranged(0.7, "(0, inf)")
    # One call to train_cycle takes one gradient step; this many cycles run
    # at each 24 h boundary.
    train_cycles_per_update: int = ranged(192, "[1, inf)")

    def __post_init__(self):
        check_ranges(self)
        if self.warmup_samples < self.batch_size:
            raise ValueError("warmup_samples must cover at least one batch_size batch")
        if self.capacity < self.warmup_samples:
            raise ValueError("capacity must hold warmup_samples")


class ModelFreeAgent(Controller):
    """Epsilon-greedy double fitted Q iteration with prioritized replay; `act`
    explores at `exploration_rate(cfg, day)`, `day` counting daily updates."""

    def __init__(self, cfg: MfrlConfig, grid: ActionGrid,
                 rng: np.random.Generator, seed: int = 0, *, history_length: int):
        self.cfg = cfg
        self.grid = grid
        self.replay = PrioritizedReplay(cfg.capacity, cfg.priority_alpha)
        n_features = history_length + 2  # temps window + ambient
        spec = MlpSpec((n_features, *cfg.hidden, len(grid)), cfg.activation,
                       init_seed=seed)
        self.pair = QPair.create(spec, cfg.tau, cfg.gamma)
        self.day = 0  # daily updates so far
        self.normalizer: Normalizer | None = None
        self._optimizer = AdamOptimizer(cfg.learning_rate)
        self._rng = rng
        self.q_trace: list[tuple[int, tuple[float, ...], int]] = []

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Normalise state features, one vector or a matrix of rows."""
        return self.normalizer.apply(x) if self.normalizer is not None else x

    def act(self, t, state, obs, prices, ambient, band) -> int:
        q = forward(self.pair.online, self.encode(obs))
        warming = len(self.replay) < self.cfg.warmup_samples
        if warming or self._rng.random() < exploration_rate(self.cfg, self.day):
            action = int(self._rng.integers(len(self.grid)))
        else:
            action = int(np.argmax(q))  # first max = lowest-power tie break
        self.q_trace.append((t, tuple(float(v) for v in q), action))
        return action

    def _td_priority(self, x, actions, rewards, x_next) -> np.ndarray:
        """Replay priority |q_target - Q(x)[a]| + priority_offset of encoded
        transitions, one per row, on the current networks."""
        q_sa = forward_batch(self.pair.online, x)[np.arange(len(x)), actions]
        return compute_priority(q_target(x_next, rewards, self.pair), q_sa,
                                self.cfg.priority_offset)

    def observe(self, obs: np.ndarray, action: int, reward: float,
                obs_next: np.ndarray) -> None:
        """File the raw transition with its TD priority."""
        priority = self._td_priority(self.encode(obs[None, :]), [action], np.array([reward]),
                                    self.encode(obs_next[None, :]))
        self.replay.add(obs, action, reward, obs_next, priority[0])
        if self.normalizer is None and len(self.replay) >= self.cfg.warmup_samples:
            self.normalizer = fit_normalizer(self.replay.rows(self.replay.s))

    def train_cycle(self) -> bool:
        """One replay batch: masked Q step, soft target update, priority write-back.

        Returns False (skip signal) while the replay is below warm-up.
        """
        if len(self.replay) < self.cfg.warmup_samples:
            return False
        mem = self.replay
        idx = replay_sample(mem, self.cfg.batch_size, self._rng)
        x, x_next = self.encode(mem.s[idx]), self.encode(mem.s_next[idx])
        rewards, actions = mem.r[idx], mem.a[idx]
        rows = np.arange(len(idx))

        t_full = np.zeros((len(idx), len(self.grid)))
        mask = np.zeros_like(t_full)
        t_full[rows, actions] = q_target(x_next, rewards, self.pair)
        mask[rows, actions] = 1.0
        train_minibatch(self.pair.online, x, t_full, self._optimizer, mask)

        soft_update(self.pair)

        mem.update_priorities(idx, self._td_priority(x, actions, rewards, x_next))
        return True

    def daily_update(self, obs, prices, ambient, band) -> None:
        """Count the day and run the configured number of training cycles."""
        self.day += 1
        for _ in range(self.cfg.train_cycles_per_update):
            self.train_cycle()

    def tables(self) -> dict:
        header = ("hour", *(f"q{i}" for i in range(len(self.grid))), "chosen")
        return {"qtrace": (header, [(hour, *q, chosen) for hour, q, chosen in self.q_trace])}
