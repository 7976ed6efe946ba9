"""Two-node lumped-parameter building model with heat-pump actuation.

The thermal core is a pair of coupled capacitance nodes (indoor air,
building envelope) driven by ambient temperature and heat-pump input:

    C_i * dT_i/dt = U_a * (T_a - T_i) + H_m * (T_m - T_i) + cop * P
    C_m * dT_m/dt = H_m * (T_i - T_m)

where T_i is the indoor air temperature, T_m the envelope temperature,
T_a the ambient temperature, P the electrical power drawn by the heat
pump and cop its coefficient of performance.  The envelope node stores
heat and releases it back slowly, so the building cools down with a
delay after the heat input stops.

One control step advances the state by exactly one hour using explicit
Euler integration over fixed sub-steps.  Because ambient and power are
held constant within the hour, the sub-stepped Euler update composes
into a single affine map per hour; :func:`hour_affine_map` precomputes
it so batched trajectory rollouts (see planners) avoid the sub-step
loop while producing the same result up to float re-association.

An optional rule-based backup filter overrides the requested power when
the indoor temperature leaves its trip band: full power below the low
trip, zero power above the high trip.

Stepping is purely functional over immutable values, so parallel
scenario runs can each own an independent state without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mdp import read_rows
from .ranges import check_ranges, declared, inside, ranged

__all__ = [
    "BuildingParams",
    "BuildingState",
    "BackupConfig",
    "AmbientGenParams",
    "step",
    "hour_affine_map",
    "make_synthetic_ambient",
    "load_ambient_csv",
]


@dataclass(frozen=True)
class BuildingParams:
    """Physical constants of the two-node model.

    Capacitances in J/K, conductances in W/K, max_power_w in W (electrical).
    substep_seconds must divide one hour exactly and keep explicit Euler
    stable and monotone: dt*(U_a+H_m) < C_i and dt*H_m < C_m.
    """

    indoor_capacitance: float = ranged(2.0e6, "(0, inf)")
    envelope_capacitance: float = ranged(5.0e7, "(0, inf)")
    ambient_conductance: float = ranged(100.0, "(0, inf)")
    envelope_conductance: float = ranged(200.0, "(0, inf)")
    cop: float = ranged(3.0, "[1, 10]")  # heat pumps run at about 2 to 6
    max_power_w: float = ranged(2000.0, "(0, 1e5]")  # 100 kW: a large building's heat pump
    # 10 s keeps the halving-refinement error below 0.01 degC across the
    # full ambient/power envelope; the planner path is unaffected (affine map)
    substep_seconds: int = ranged(10, "[1, inf)")

    def __post_init__(self):
        check_ranges(self)
        if 3600 % self.substep_seconds != 0:
            raise ValueError("substep_seconds must divide 3600 exactly")
        dt, h_m = self.substep_seconds, self.envelope_conductance
        if not dt * (self.ambient_conductance + h_m) < self.indoor_capacitance:
            raise ValueError("unstable sub-step: substep_seconds * (ambient_conductance"
                             " + envelope_conductance) must be < indoor_capacitance")
        if not dt * h_m < self.envelope_capacitance:
            raise ValueError("unstable sub-step: substep_seconds * envelope_conductance"
                             " must be < envelope_capacitance")


@dataclass(frozen=True)
class BuildingState:
    """Latent physical state: indoor and envelope temperature at an hour mark."""

    indoor_temp: float
    envelope_temp: float
    clock: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.indoor_temp) and math.isfinite(self.envelope_temp)):
            raise ValueError("temperatures must be finite")


@dataclass(frozen=True)
class BackupConfig:
    """Safety filter: force full power below low_trip, zero above high_trip."""

    enabled: bool = False
    low_trip: float = ranged(19.0, "(-inf, inf)")
    high_trip: float = ranged(23.0, "(-inf, inf)")

    def __post_init__(self):
        check_ranges(self)
        if not self.low_trip < self.high_trip:
            raise ValueError("low_trip must be below high_trip")


def _apply_backup(indoor_temp: float, requested_w: float, params: BuildingParams,
                  backup: BackupConfig) -> float:
    if not backup.enabled:
        return requested_w
    if indoor_temp < backup.low_trip:
        return params.max_power_w
    if indoor_temp > backup.high_trip:
        return 0.0
    return requested_w


def step(state: BuildingState, params: BuildingParams, ambient_c: float,
         power_w: float, backup: BackupConfig = BackupConfig()) -> tuple[BuildingState, float]:
    """Advance the building by one hour; returns (new state, applied power).

    The backup filter is evaluated once, on the state at the start of the
    hour.  Raises ValueError on non-finite inputs or power outside
    [0, max_power_w].
    """
    if not math.isfinite(ambient_c):
        raise ValueError("ambient temperature must be finite")
    if not math.isfinite(power_w):
        raise ValueError("power must be finite")
    if power_w < 0.0 or power_w > params.max_power_w:
        raise ValueError(f"power {power_w} outside [0, {params.max_power_w}]")

    applied = _apply_backup(state.indoor_temp, power_w, params, backup)

    dt = float(params.substep_seconds)
    n_sub = 3600 // params.substep_seconds
    u_a = params.ambient_conductance
    h_m = params.envelope_conductance
    c_i = params.indoor_capacitance
    c_m = params.envelope_capacitance
    heat = params.cop * applied

    t_i = state.indoor_temp
    t_m = state.envelope_temp
    for _ in range(n_sub):
        # the envelope-to-indoor flux once: h_m * (t_i - t_m) is exactly -q
        q = h_m * (t_m - t_i)
        t_i += dt * ((u_a * (ambient_c - t_i) + q + heat) / c_i)
        t_m -= dt * (q / c_m)

    return BuildingState(t_i, t_m, state.clock + 1), applied


@lru_cache(maxsize=32)
def hour_affine_map(params: BuildingParams) -> tuple[np.ndarray, np.ndarray]:
    """Composed one-hour Euler update as an affine map.

    Returns (P, s) such that for constant ambient T_a and electrical
    power a over the hour,

        [T_i', T_m'] = P @ [T_i, T_m] + s * (U_a * T_a + cop * a)

    equals the sub-stepped explicit Euler result of :func:`step` up to
    floating-point re-association.
    """
    dt = float(params.substep_seconds)
    n_sub = 3600 // params.substep_seconds
    u_a = params.ambient_conductance
    h_m = params.envelope_conductance
    c_i = params.indoor_capacitance
    c_m = params.envelope_capacitance

    m = np.array([
        [1.0 - dt * (u_a + h_m) / c_i, dt * h_m / c_i],
        [dt * h_m / c_m, 1.0 - dt * h_m / c_m],
    ])
    # drive enters T_i only, scaled by dt/C_i each sub-step
    e = np.array([dt / c_i, 0.0])
    p = np.eye(2)
    s = np.zeros(2)
    for _ in range(n_sub):
        s = m @ s + e
        p = m @ p
    p.setflags(write=False)
    s.setflags(write=False)
    return p, s


@dataclass(frozen=True)
class AmbientGenParams:
    """Synthetic ambient generator: mean + linear drift + daily sinusoid + AR(1).

    The drift offsets are added to the mean and interpolated linearly from
    the first to the last hour of the trace.  noise_sigma_c is the standard
    deviation of the AR(1) innovations (stationary spread is larger by
    1/sqrt(1 - ar1_coeff^2)).
    """

    mean_c: float = ranged(6.0, "[-90, 60]")  # the air's measured extremes on Earth
    drift_start_c: float = ranged(-4.0, "[-50, 50]")
    drift_end_c: float = ranged(6.0, "[-50, 50]")
    daily_amplitude_c: float = ranged(4.0, "[-30, 30]")
    ar1_coeff: float = ranged(0.9, "[0, 1)")
    noise_sigma_c: float = ranged(1.0, "[0, 50]")

    def __post_init__(self):
        check_ranges(self)


_AMBIENT_C = declared(AmbientGenParams, "mean_c")  # also bounds every ambient trace

# Daily sinusoid peaks mid-afternoon (15:00) and bottoms out at 03:00.
_DAILY_PHASE_HOUR = 9.0


def make_synthetic_ambient(seed: int, days: int,
                           gen_params: AmbientGenParams = AmbientGenParams()) -> np.ndarray:
    """Deterministic synthetic ambient trace: a read-only array of days*24
    hourly temperatures."""
    if days < 1:
        raise ValueError("days must be >= 1")
    hours = days * 24
    rng = np.random.default_rng(seed)
    h = np.arange(hours, dtype=float)

    frac = h / (hours - 1) if hours > 1 else np.zeros(1)
    drift = gen_params.drift_start_c + (gen_params.drift_end_c - gen_params.drift_start_c) * frac
    daily = gen_params.daily_amplitude_c * np.sin(
        2.0 * np.pi * (np.mod(h, 24.0) - _DAILY_PHASE_HOUR) / 24.0)

    noise = np.zeros(hours)
    if gen_params.noise_sigma_c > 0.0:
        innovations = rng.normal(0.0, gen_params.noise_sigma_c, size=hours)
        x = 0.0
        for k in range(hours):
            x = gen_params.ar1_coeff * x + innovations[k]
            noise[k] = x

    temps = gen_params.mean_c + drift + daily + noise
    hour = int(np.argmax(~inside(temps, _AMBIENT_C)))
    if not inside(temps[hour], _AMBIENT_C):
        raise ValueError(f"ambient {float(temps[hour])!r} degC at hour {hour} is outside "
                         f"{_AMBIENT_C} degC; lower mean_c, the drift, daily_amplitude_c or "
                         "noise_sigma_c")
    temps.setflags(write=False)
    return temps


def load_ambient_csv(path) -> np.ndarray:
    """Read an hourly ambient trace from a `hour,temp_c` CSV file into a
    read-only array; its hours count up from 0 (see mdp.read_rows) and its
    temperatures lie in AmbientGenParams.mean_c's range."""
    rows = read_rows(path, ("hour", "temp_c"))
    if not rows:
        raise ValueError(f"{path} line 2: no data rows")
    if rows[0][0] != 0:
        raise ValueError(f"{path} line 2: hour {rows[0][0]}, not 0")
    for line, (_, temp) in enumerate(rows, start=2):
        if not inside(temp, _AMBIENT_C):
            raise ValueError(f"{path} line {line}: temp_c {temp!r} is outside {_AMBIENT_C} degC")
    trace = np.array([temp for _, temp in rows])
    trace.setflags(write=False)
    return trace
