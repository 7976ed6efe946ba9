"""Decision-problem layer: observed states, actions, rewards, tariffs, logs.

The agent never sees the envelope temperature; its observation is a
fixed-length window of recent indoor temperatures (newest first) plus
the current ambient temperature.  Rewards are a negative stream with
two components: energy cost, and an asymmetric comfort penalty that is
zero inside the comfort band and jumps to a steep exponential outside
it (under-heating is punished harder than over-heating).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ObservedState",
    "ActionGrid",
    "ComfortBand",
    "BandSchedule",
    "TariffConfig",
    "TariffSignal",
    "RewardComponents",
    "TransitionSample",
    "StepRecord",
    "EpisodeLog",
    "DEFAULT_GRID",
    "DEFAULT_BAND",
    "encode_state",
    "consumption_reward",
    "comfort_reward",
    "comfort_reward_batch",
    "make_tariff",
    "log_metrics",
]


@dataclass(frozen=True)
class ObservedState:
    """Agent-visible state: indoor temperature window (newest first) + ambient."""

    indoor_history: tuple[float, ...]
    ambient_now: float

    def __post_init__(self):
        if not all(math.isfinite(t) for t in self.indoor_history):
            raise ValueError("indoor history contains non-finite values")
        if not math.isfinite(self.ambient_now):
            raise ValueError("ambient_now must be finite")

    def features(self) -> np.ndarray:
        return np.array(self.indoor_history + (self.ambient_now,))


def encode_state(history, ambient_c: float, n: int) -> ObservedState:
    """Window the newest-first temperature history to length n+1.

    Callers pad a fresh episode by replicating the initial temperature.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(history) < n + 1:
        raise ValueError(f"history of length {len(history)} too short for n={n}")
    return ObservedState(tuple(float(t) for t in list(history)[: n + 1]), float(ambient_c))


@dataclass(frozen=True)
class ActionGrid:
    """Discrete heat-pump power levels in watts; index 0 is always off."""

    levels_w: tuple[float, ...] = (0.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0)

    def __post_init__(self):
        if len(self.levels_w) < 1:
            raise ValueError("action grid is empty")
        if self.levels_w[0] != 0.0:
            raise ValueError("first action level must be 0 W")
        if any(b <= a for a, b in zip(self.levels_w, self.levels_w[1:])):
            raise ValueError("action levels must be strictly increasing")

    def __len__(self) -> int:
        return len(self.levels_w)

    @property
    def max_index(self) -> int:
        return len(self.levels_w) - 1


DEFAULT_GRID = ActionGrid()


@dataclass(frozen=True)
class ComfortBand:
    t_min: float = 19.0
    t_max: float = 23.0

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be below t_max")


DEFAULT_BAND = ComfortBand()


@dataclass(frozen=True)
class BandSchedule:
    """Piecewise-constant comfort band over hours; first phase starts at 0."""

    phases: tuple[tuple[int, ComfortBand], ...]

    def __post_init__(self):
        if not self.phases or self.phases[0][0] != 0:
            raise ValueError("band schedule must start at hour 0")
        starts = [s for s, _ in self.phases]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("phase start hours must be strictly increasing")

    @classmethod
    def constant(cls, band: ComfortBand = DEFAULT_BAND) -> "BandSchedule":
        return cls(((0, band),))

    def band_at(self, hour: int) -> ComfortBand:
        band = self.phases[0][1]
        for start, b in self.phases:
            if hour >= start:
                band = b
            else:
                break
        return band


def consumption_reward(power_w: float, price_eur_per_kwh: float) -> float:
    """Energy-cost penalty for one hour at the given power and price (Eur, <= 0)."""
    if power_w < 0.0:
        raise ValueError("power must be >= 0")
    if not price_eur_per_kwh > 0.0:
        raise ValueError("price must be > 0")
    return -(power_w / 1000.0) * price_eur_per_kwh


# Comfort penalty constants: base scale and exponential growth per degree of
# excursion.  Under-heating is penalised harder than over-heating.
_ABOVE_SCALE, _ABOVE_GROWTH = 3.0, 1.3
_BELOW_SCALE, _BELOW_GROWTH = 4.0, 1.35


def comfort_reward(t_i: float, band: ComfortBand) -> float:
    """Comfort penalty (Eur-equivalent, <= 0); exactly 0 inside the band."""
    if not math.isfinite(t_i):
        raise ValueError("indoor temperature must be finite")
    if t_i > band.t_max:
        return -_ABOVE_SCALE * _ABOVE_GROWTH ** (t_i - band.t_max)
    if band.t_min > t_i:
        return -_BELOW_SCALE * _BELOW_GROWTH ** (band.t_min - t_i)
    return 0.0


def comfort_reward_batch(temps: np.ndarray, band: ComfortBand) -> np.ndarray:
    """Vectorized :func:`comfort_reward`; a NaN or infinite temperature scores -inf."""
    out = np.zeros_like(temps, dtype=float)
    above = temps > band.t_max
    below = temps < band.t_min
    out[above] = -_ABOVE_SCALE * _ABOVE_GROWTH ** (temps[above] - band.t_max)
    out[below] = -_BELOW_SCALE * _BELOW_GROWTH ** (band.t_min - temps[below])
    out[np.isnan(temps)] = -np.inf
    return out


@dataclass(frozen=True)
class TariffConfig:
    """Price levels for the tariff generators (Eur/kWh)."""

    flat_price: float = 0.24
    day_price: float = 0.28
    night_price: float = 0.20
    day_start_hour: int = 7
    day_end_hour: int = 22
    rtp_base: float = 0.24
    rtp_step: float = 0.02
    rtp_min: float = 0.05
    rtp_max: float = 0.60

    def __post_init__(self):
        for name in ("flat_price", "day_price", "night_price", "rtp_base",
                     "rtp_min", "rtp_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if not 0 <= self.day_start_hour < self.day_end_hour <= 24:
            raise ValueError("day window must satisfy 0 <= start < end <= 24")


DEFAULT_TARIFF = TariffConfig()


@dataclass(frozen=True)
class TariffSignal:
    kind: str
    prices: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("flat", "dual", "real_time"):
            raise ValueError(f"unknown tariff kind {self.kind!r}")
        if any(not p > 0.0 for p in self.prices):
            raise ValueError("all prices must be > 0")

    def __len__(self) -> int:
        return len(self.prices)

    def __getitem__(self, hour):
        return self.prices[hour]

    def window(self, start: int, length: int) -> np.ndarray:
        if start + length > len(self.prices):
            raise ValueError("tariff lookahead window exceeds signal length")
        return np.asarray(self.prices[start:start + length])


def make_tariff(kind: str, horizon_hours: int,
                config: TariffConfig = DEFAULT_TARIFF, seed: int = 0) -> TariffSignal:
    """Build a per-hour price signal: flat, dual (day/night) or real_time.

    `seed` drives the real_time random walk; the other kinds ignore it.
    """
    if horizon_hours < 1:
        raise ValueError("horizon_hours must be >= 1")
    if kind == "flat":
        prices = (config.flat_price,) * horizon_hours
    elif kind == "dual":
        prices = tuple(
            config.day_price
            if config.day_start_hour <= (h % 24) < config.day_end_hour
            else config.night_price
            for h in range(horizon_hours))
    elif kind == "real_time":
        rng = np.random.default_rng(seed)
        walk = np.empty(horizon_hours)
        p = config.rtp_base
        for h in range(horizon_hours):
            p = float(np.clip(p + rng.uniform(-config.rtp_step, config.rtp_step),
                              config.rtp_min, config.rtp_max))
            walk[h] = p
        prices = tuple(walk.tolist())
    else:
        raise ValueError(f"unknown tariff kind {kind!r}")
    return TariffSignal(kind, prices)


@dataclass(frozen=True)
class RewardComponents:
    """One step's reward split: energy cost + comfort penalty, both <= 0."""

    cons: float
    comfort: float

    def __post_init__(self):
        if self.cons > 0.0 or self.comfort > 0.0:
            raise ValueError("reward components must be <= 0")

    @property
    def total(self) -> float:
        return self.cons + self.comfort


@dataclass(frozen=True)
class TransitionSample:
    """One experience tuple; `a` indexes the action grid."""

    s: ObservedState
    a: int
    s_next: ObservedState
    r: RewardComponents
    terminal: bool = False


@dataclass(frozen=True)
class StepRecord:
    """One simulated hour: arrival temperatures plus the action that caused them."""

    hour: int
    t_a: float
    t_i: float
    t_mass: float
    power_w: float
    price: float
    r_cons: float
    r_comfort: float


EPISODE_CSV_HEADER = ["hour", "t_a", "t_i", "t_mass", "power_w", "price",
                      "r_cons", "r_comfort"]


@dataclass
class EpisodeLog:
    """Per-step record of a run; the source of every reported metric."""

    steps: list[StepRecord] = field(default_factory=list)

    def append(self, record: StepRecord) -> None:
        if self.steps and record.hour != self.steps[-1].hour + 1:
            raise ValueError("episode log hours must be contiguous")
        self.steps.append(record)

    def __len__(self) -> int:
        return len(self.steps)

    def slice_hours(self, start: int, end: int | None = None) -> "EpisodeLog":
        end = len(self.steps) if end is None else end
        return EpisodeLog([r for r in self.steps if start <= r.hour < end])

    def total_kwh(self) -> float:
        return sum(r.power_w / 1000.0 for r in self.steps)

    def total_cost_eur(self) -> float:
        return sum((r.power_w / 1000.0) * r.price for r in self.steps)

    def total_comfort_eur(self) -> float:
        """Accumulated comfort loss as a positive Eur-equivalent figure."""
        return -sum(r.r_comfort for r in self.steps)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(EPISODE_CSV_HEADER) + "\n")
            for r in self.steps:
                fh.write(f"{r.hour},{r.t_a!r},{r.t_i!r},{r.t_mass!r},"
                         f"{r.power_w!r},{r.price!r},{r.r_cons!r},{r.r_comfort!r}\n")

    @classmethod
    def read_csv(cls, path) -> "EpisodeLog":
        log = cls()
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != EPISODE_CSV_HEADER:
                raise ValueError(f"{path}: unexpected episode log header {header}")
            for row in reader:
                log.append(StepRecord(int(row[0]), *(float(v) for v in row[1:])))
        return log


def log_metrics(agent_log: EpisodeLog,
                baseline_log: EpisodeLog) -> tuple[float, float, float]:
    """Compare an agent log against its baseline on identical traces.

    Returns (consumption change %, cost change %, agent comfort loss in Eur).
    """
    if len(agent_log) != len(baseline_log):
        raise ValueError("logs cover different horizons")
    for a, b in zip(agent_log.steps, baseline_log.steps):
        if a.hour != b.hour or a.t_a != b.t_a or a.price != b.price:
            raise ValueError(f"logs disagree on trace at hour {a.hour}")

    base_kwh = baseline_log.total_kwh()
    base_cost = baseline_log.total_cost_eur()
    if base_kwh <= 0.0 or base_cost <= 0.0:
        raise ValueError("baseline consumed no energy; change metrics undefined")

    consumption_change = 100.0 * (agent_log.total_kwh() - base_kwh) / base_kwh
    cost_change = 100.0 * (agent_log.total_cost_eur() - base_cost) / base_cost
    return consumption_change, cost_change, agent_log.total_comfort_eur()
