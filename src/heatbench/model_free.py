"""Model-free control: double deep fitted Q iteration with prioritized replay.

The Q-network maps the observed state to one value per grid action.
Targets use the double-Q rule: the online network selects the next
action, the slowly tracking target network values it.  Transitions are
stored with a priority proportional to their temporal-difference error
and replayed with probability priority**alpha.  The target network
follows the online one through soft updates w_tgt <- tau*w + (1-tau)*w_tgt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import ActionGrid, ObservedState, TransitionSample
from .model_based import ExplorationSchedule, SampleMemory
from .neural import (AdamOptimizer, MlpParams, MlpSpec, Normalizer, fit_normalizer,
                     forward, forward_batch, train_minibatch)

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
    """Transition store with a proportional replay priority per slot."""

    def __init__(self, capacity: int, alpha: float = 0.6, offset: float = 1e-3):
        super().__init__(capacity)
        if alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if not offset > 0.0:
            raise ValueError("priority offset must be > 0")
        self.alpha = alpha
        self.offset = offset
        self._priorities = np.zeros(capacity)

    def add(self, sample: TransitionSample, priority: float) -> int:
        if not priority > 0.0:
            raise ValueError("priority must be > 0")
        i = super().add(sample)
        self._priorities[i] = priority
        return i

    def priority(self, index: int) -> float:
        return float(self._priorities[index])

    def update_priorities(self, indices, priorities) -> None:
        """Overwrite the priorities of the given slots."""
        if not np.all(np.asarray(priorities) > 0.0):
            raise ValueError("priority must be > 0")
        self._priorities[indices] = priorities

    def probabilities(self) -> np.ndarray:
        p = self._priorities[:len(self)] ** self.alpha
        return p / p.sum()


def replay_sample(memory: PrioritizedReplay, batch_size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw a batch of slot indices without replacement, proportional to
    priority**alpha; the same indices serve the priority write-back."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(memory) < batch_size:
        raise ValueError(f"memory holds {len(memory)} < batch_size {batch_size}")
    return rng.choice(len(memory), size=batch_size, replace=False,
                      p=memory.probabilities())


@dataclass
class QPair:
    """Online and target Q-networks with soft-update rate and discount."""

    online: MlpParams
    target: MlpParams
    tau: float = 0.01
    gamma: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.online.spec.layer_sizes != self.target.spec.layer_sizes:
            raise ValueError("online and target architectures must match")

    @classmethod
    def create(cls, spec: MlpSpec, tau: float = 0.01, gamma: float = 0.95) -> "QPair":
        online = MlpParams.init(spec)
        return cls(online, online.copy(), tau, gamma)


def soft_update(pair: QPair) -> QPair:
    """Move the target weights a fraction tau toward the online weights."""
    for w_t, w_o in zip(pair.target.weights, pair.online.weights):
        w_t *= 1.0 - pair.tau
        w_t += pair.tau * w_o
    for b_t, b_o in zip(pair.target.biases, pair.online.biases):
        b_t *= 1.0 - pair.tau
        b_t += pair.tau * b_o
    return pair


def q_target(x_next: np.ndarray, rewards: np.ndarray, terminal: np.ndarray,
             pair: QPair, selection_by_target: bool = False) -> np.ndarray:
    """Bootstrap targets for a batch of transitions, one per row.

    `x_next` holds the encoded next states.  Terminal rows get the bare
    reward.  Otherwise the online network picks the next action and the
    target network values it (double-Q); `selection_by_target` switches
    the argmax to the target network instead.
    """
    q_tgt = forward_batch(pair.target, x_next)
    selector = q_tgt if selection_by_target else forward_batch(pair.online, x_next)
    bootstrap = q_tgt[np.arange(len(q_tgt)), np.argmax(selector, axis=1)]
    return np.where(terminal, rewards, rewards + pair.gamma * bootstrap)


def compute_priority(target, q_sa, offset: float):
    """Replay priority: absolute TD error plus a strictly positive offset;
    elementwise over arrays."""
    if not offset > 0.0:
        raise ValueError("offset must be > 0")
    return abs(target - q_sa) + offset


@dataclass(frozen=True)
class MfrlConfig:
    hidden: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    learning_rate: float = 1e-3
    # a short discount horizon keeps the steep below-band penalty from
    # bleeding across the fitted Q surface and inflating the hold threshold;
    # the slow thermal plant makes near-myopic control close to optimal
    gamma: float = 0.70
    tau: float = 0.01
    batch_size: int = 96
    capacity: int = 4096
    warmup_samples: int = 96
    priority_alpha: float = 0.6
    priority_offset: float = 1e-3
    epsilon_initial: float = 0.5
    epsilon_exponent: float = 0.7
    # One call to train_cycle takes one gradient step; this many cycles run
    # at each 24 h boundary.
    train_cycles_per_update: int = 192

    def __post_init__(self):
        if self.warmup_samples < self.batch_size:
            raise ValueError("warmup must cover at least one batch")
        if self.capacity < self.warmup_samples:
            raise ValueError("capacity must hold warmup_samples")
        if self.train_cycles_per_update < 1:
            raise ValueError("train_cycles_per_update must be >= 1")


class ModelFreeAgent:
    """Epsilon-greedy double fitted Q iteration with prioritized replay."""

    def __init__(self, cfg: MfrlConfig, grid: ActionGrid,
                 rng: np.random.Generator, seed: int = 0, *, history_length: int):
        self.cfg = cfg
        self.grid = grid
        self.replay = PrioritizedReplay(cfg.capacity, cfg.priority_alpha,
                                        cfg.priority_offset)
        n_features = history_length + 2  # temps window + ambient
        spec = MlpSpec((n_features, *cfg.hidden, len(grid)), cfg.activation,
                       init_seed=seed)
        self.pair = QPair.create(spec, cfg.tau, cfg.gamma)
        self.schedule = ExplorationSchedule(cfg.epsilon_initial, cfg.epsilon_exponent)
        self.normalizer: Normalizer | None = None
        self._optimizer = AdamOptimizer(cfg.learning_rate)
        self._rng = rng
        self._started = False
        self.q_trace: list[tuple[int, tuple[float, ...], int]] = []

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Normalise state features, one vector or a matrix of rows."""
        return self.normalizer.apply(x) if self.normalizer is not None else x

    def q_values(self, obs: ObservedState) -> np.ndarray:
        return forward(self.pair.online, self.encode(obs.features()))

    def act(self, obs: ObservedState, hour: int | None = None,
            epsilon: float | None = None) -> int:
        q = self.q_values(obs)
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

    def observe(self, sample: TransitionSample) -> None:
        target = q_target(self.encode(sample.s_next.features()[None, :]),
                          np.array([sample.r.total]), np.array([sample.terminal]),
                          self.pair)
        q_sa = self.q_values(sample.s)[sample.a]
        self.replay.add(sample, compute_priority(float(target[0]), float(q_sa),
                                                 self.cfg.priority_offset))
        if self.normalizer is None and len(self.replay) >= self.cfg.warmup_samples:
            self.normalizer = fit_normalizer(self.replay.rows(self.replay.s))

    def train_cycle(self, rng: np.random.Generator | None = None) -> bool:
        """One replay batch: masked Q step, soft target update, priority write-back.

        Returns False (skip signal) while the replay is below warm-up.
        """
        if len(self.replay) < self.cfg.warmup_samples:
            return False
        rng = rng if rng is not None else self._rng
        mem = self.replay
        idx = replay_sample(mem, self.cfg.batch_size, rng)
        x, x_next = self.encode(mem.s[idx]), self.encode(mem.s_next[idx])
        rewards, terminal, actions = mem.r[idx], mem.terminal[idx], mem.a[idx]
        rows = np.arange(len(idx))

        t_full = np.zeros((len(idx), len(self.grid)))
        mask = np.zeros_like(t_full)
        t_full[rows, actions] = q_target(x_next, rewards, terminal, self.pair)
        mask[rows, actions] = 1.0
        train_minibatch(self.pair.online, x, t_full, self._optimizer, mask)

        soft_update(self.pair)

        new_targets = q_target(x_next, rewards, terminal, self.pair)
        q_now = forward_batch(self.pair.online, x)[rows, actions]
        mem.update_priorities(
            idx, compute_priority(new_targets, q_now, self.cfg.priority_offset))
        return True

    def daily_update(self) -> int:
        """Advance epsilon and run the configured number of training cycles."""
        if self._started:
            self.schedule.advance()
        self._started = True
        done = 0
        for _ in range(self.cfg.train_cycles_per_update):
            if self.train_cycle():
                done += 1
        return done
