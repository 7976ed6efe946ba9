"""Decision-problem layer: observations, actions, rewards, tariffs, logs.

The agent never sees the envelope temperature.  Its observation is a
float64 vector [T_i(t), ..., T_i(t-n), T_a(t)]: the n+1 most recent
indoor temperatures, newest first, then the current ambient temperature.
Rewards are a negative stream with two components: energy cost, and an
asymmetric comfort penalty that is zero inside the comfort band and jumps
to a steep exponential outside it (under-heating is punished harder than
over-heating).  Every controller meets the hourly `Controller` interface.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .ranges import check_ranges, ranged

__all__ = [
    "ActionGrid",
    "ComfortBand",
    "BandSchedule",
    "Controller",
    "TariffConfig",
    "EpisodeLog",
    "TARIFF_KINDS",
    "encode_state",
    "consumption_reward",
    "comfort_reward",
    "comfort_reward_batch",
    "make_tariff",
    "log_metrics",
    "write_rows",
    "read_rows",
]


def encode_state(history, ambient_c: float, n: int) -> np.ndarray:
    """The observation vector [T_i(t), ..., T_i(t-n), T_a(t)]: the first n+1
    temperatures of the newest-first sequence `history`, then `ambient_c`.

    Callers pad a fresh episode by replicating the initial temperature.
    A non-finite temperature or ambient value is rejected.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(history) < n + 1:
        raise ValueError(f"history of length {len(history)} too short for n={n}")
    values = [*history[: n + 1], ambient_c]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"observed temperatures must be finite, got {values}")
    return np.array(values, dtype=float)


@dataclass(frozen=True)
class ActionGrid:
    """Discrete heat-pump power levels in watts; index 0 is always off."""

    levels_w: tuple[float, ...] = ranged((0.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0), "[0, inf)")

    def __post_init__(self):
        check_ranges(self)
        if len(self.levels_w) < 1:
            raise ValueError("levels_w must not be empty")
        if self.levels_w[0] != 0.0:
            raise ValueError("levels_w must start at 0 W")
        if any(b <= a for a, b in zip(self.levels_w, self.levels_w[1:])):
            raise ValueError("levels_w must be strictly increasing")

    def __len__(self) -> int:
        return len(self.levels_w)

    @property
    def max_index(self) -> int:
        return len(self.levels_w) - 1


@dataclass(frozen=True)
class ComfortBand:
    t_min: float = ranged(19.0, "(-inf, inf)")
    t_max: float = ranged(23.0, "(-inf, inf)")

    def __post_init__(self):
        check_ranges(self)
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be below t_max")


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
    def constant(cls, band: ComfortBand = ComfortBand()) -> "BandSchedule":
        return cls(((0, band),))

    def band_at(self, hour: int) -> ComfortBand:
        band = self.phases[0][1]
        for start, b in self.phases:
            if hour >= start:
                band = b
            else:
                break
        return band


class Controller:
    """The hourly hooks `harness.simulate` calls; all but `act` do nothing here.

    At a controlled hour t, `daily_update` runs first if t opens a day, then
    `act` returns the grid index to apply and `observe` receives the hour's
    transition with its total reward.  `prices` and `ambient` run from hour
    t to the end of the traces, and each controller takes the lookahead it
    plans over.  `state` is the latent building state, which only the
    bounds (RBC and MPC) read.

    After the run, `tables` returns the controller's own per-run tables as
    {name: (header, rows)}; `harness.run_scenario` writes each with
    `write_rows` to `<scenario name>_<name>.csv`.
    """

    def daily_update(self, obs, prices, ambient, band: ComfortBand) -> None:
        pass

    def act(self, t: int, state, obs, prices, ambient, band: ComfortBand) -> int:
        raise NotImplementedError

    def observe(self, obs, action: int, reward: float, obs_next) -> None:
        pass

    def tables(self) -> dict:
        return {}


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
    """Vectorized :func:`comfort_reward` as a new float64 array, which callers may
    add into; a NaN or infinite temperature scores -inf."""
    out = np.zeros(np.shape(temps))  # C order, so that its flat view writes through
    flat, t = out.reshape(-1), np.ravel(temps)
    i = np.flatnonzero(t > band.t_max)
    flat[i] = -_ABOVE_SCALE * _ABOVE_GROWTH ** (t[i] - band.t_max)
    i = np.flatnonzero(t < band.t_min)
    flat[i] = -_BELOW_SCALE * _BELOW_GROWTH ** (band.t_min - t[i])
    nan = np.isnan(t)
    if nan.any():
        flat[nan] = -np.inf
    return out


@dataclass(frozen=True)
class TariffConfig:
    """Price levels for the tariff generators, in Eur/kWh: at most 100, so nothing
    overflows, and at least 1e-6, so that every cost is a normal float that
    keeps its precision."""

    flat_price: float = ranged(0.24, "[1e-6, 100]")
    day_price: float = ranged(0.28, "[1e-6, 100]")
    night_price: float = ranged(0.20, "[1e-6, 100]")
    day_start_hour: int = ranged(7, "[0, 24)")
    day_end_hour: int = ranged(22, "(0, 24]")
    rtp_base: float = ranged(0.24, "[1e-6, 100]")
    rtp_step: float = ranged(0.02, "[0, 100]")
    rtp_min: float = ranged(0.05, "[1e-6, 100]")
    rtp_max: float = ranged(0.60, "[1e-6, 100]")

    def __post_init__(self):
        check_ranges(self)
        if not self.rtp_min <= self.rtp_max:
            raise ValueError("rtp_min must not exceed rtp_max")
        if not self.day_start_hour < self.day_end_hour:
            raise ValueError("day_start_hour must be < day_end_hour")


TARIFF_KINDS = ("flat", "dual", "real_time")


def make_tariff(kind: str, horizon_hours: int,
                config: TariffConfig = TariffConfig(), seed: int = 0) -> np.ndarray:
    """Per-hour prices, flat, dual (day/night) or real_time, as a read-only array.

    `seed` drives the real_time random walk; the other kinds ignore it.
    """
    if horizon_hours < 1:
        raise ValueError("horizon_hours must be >= 1")
    if kind not in TARIFF_KINDS:
        raise ValueError(f"unknown tariff kind {kind!r}")
    if kind == "flat":
        prices = np.full(horizon_hours, config.flat_price, dtype=float)
    elif kind == "dual":
        hour = np.arange(horizon_hours) % 24
        day = (config.day_start_hour <= hour) & (hour < config.day_end_hour)
        prices = np.where(day, float(config.day_price), float(config.night_price))
    else:  # real_time
        rng = np.random.default_rng(seed)
        prices = np.empty(horizon_hours)
        p = config.rtp_base
        for h in range(horizon_hours):
            p = float(np.clip(p + rng.uniform(-config.rtp_step, config.rtp_step),
                              config.rtp_min, config.rtp_max))
            prices[h] = p
    prices.setflags(write=False)
    return prices


EPISODE_CSV_HEADER = ["hour", "t_a", "t_i", "t_mass", "power_w", "price",
                      "r_cons", "r_comfort"]
# one row per simulated hour: arrival temperatures plus the action that caused them
EPISODE_DTYPE = np.dtype([(name, np.int64 if name == "hour" else np.float64)
                          for name in EPISODE_CSV_HEADER])


def _left_sum(terms):
    """`terms` (floats, or equal-shaped arrays) added left to right from 0.0.

    Python 3.12's sum() of floats compensates and np.sum adds pairwise, so
    neither gives the same last bits on every interpreter; this order does."""
    return functools.reduce(operator.add, terms, 0.0)


def write_rows(path, header, rows) -> None:
    """Write a CSV file: the header, then one line per row.

    Ints and floats come out as their repr; a text field is quoted only when
    it holds a comma, a quote or a line break."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path, header) -> list[tuple]:
    """The rows of a numeric CSV file with this header, each as (int, float, ...).

    The first column is an int that counts up by one from row to row, every
    other one a finite float.  A file that breaks this raises ValueError
    "<path> line N: <reason>"."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(header):
                raise ValueError(f"expected the header {','.join(header)}")
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, not {len(header)}")
                values = (int(row[0]), *map(float, row[1:]))
                if not (all(map(math.isfinite, values)) and abs(values[0]) < 2**63):
                    raise ValueError(f"non-finite or out-of-range value in {row}")
                if rows and values[0] != rows[-1][0] + 1:
                    raise ValueError(f"{header[0]} {values[0]} after {rows[-1][0]}")
                rows.append(values)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path} line {max(reader.line_num, 1)}: {exc}") from None
    return rows


class EpisodeLog:
    """Per-hour record of a run; the source of every reported metric.

    `steps` is a record array with one row per hour and the fields of
    EPISODE_CSV_HEADER: `steps.t_i` is a column, `steps[t].t_i` one value.
    """

    def __init__(self, steps):
        """`steps`: a record array or a sequence of 8-tuples, hours contiguous."""
        self.steps = np.asarray(steps, dtype=EPISODE_DTYPE).view(np.recarray)
        if self.steps.ndim != 1 or np.any(np.diff(self.steps.hour) != 1):
            raise ValueError("episode log must hold one row per hour, hours contiguous")

    def __len__(self) -> int:
        return len(self.steps)

    def slice_hours(self, start: int, end: int | None = None) -> "EpisodeLog":
        """The hours in [start, end); a missing end means through the last hour."""
        hours = self.steps.hour
        end = math.inf if end is None else end
        return EpisodeLog(self.steps[(hours >= start) & (hours < end)])

    def total_kwh(self) -> float:
        return _left_sum((self.steps.power_w / 1000.0).tolist())

    def total_cost_eur(self) -> float:
        return _left_sum((self.steps.power_w / 1000.0 * self.steps.price).tolist())

    def total_comfort_eur(self) -> float:
        """Accumulated comfort loss as a positive Eur-equivalent figure."""
        # 0.0 - x negates every nonzero x exactly and turns a 0.0 sum into 0.0, not -0.0
        return 0.0 - _left_sum(self.steps.r_comfort.tolist())

    def write_csv(self, path) -> None:
        write_rows(path, EPISODE_CSV_HEADER, self.steps.tolist())

    @classmethod
    def read_csv(cls, path) -> "EpisodeLog":
        """Read a log written by write_csv; see read_rows for its checks."""
        return cls(read_rows(path, EPISODE_CSV_HEADER))


def log_metrics(agent_log: EpisodeLog,
                baseline_log: EpisodeLog) -> tuple[float, float, float]:
    """Compare an agent log against its baseline on identical traces.

    Returns (consumption change %, cost change %, agent comfort loss in Eur).
    """
    if len(agent_log) != len(baseline_log):
        raise ValueError("logs cover different horizons")
    a, b = agent_log.steps, baseline_log.steps
    differ = (a.hour != b.hour) | (a.t_a != b.t_a) | (a.price != b.price)
    if differ.any():
        raise ValueError(f"logs disagree on trace at hour {a.hour[differ.argmax()]}")

    base_kwh = baseline_log.total_kwh()
    base_cost = baseline_log.total_cost_eur()
    if base_kwh <= 0.0 or base_cost <= 0.0:
        raise ValueError("baseline consumed no energy; change metrics undefined")

    consumption_change = 100.0 * (agent_log.total_kwh() - base_kwh) / base_kwh
    cost_change = 100.0 * (agent_log.total_cost_eur() - base_cost) / base_cost
    return consumption_change, cost_change, agent_log.total_comfort_eur()
