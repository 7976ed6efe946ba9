"""Scenario orchestration: run agents on shared traces, emit logs and metrics.

Every scenario first leaves the building uncontrolled for a warm-up
period, then hands control to the chosen agent; the rule-based
controller is always run on the identical ambient/tariff traces as the
metric denominator; a suite runs it once for all its agents.  `simulate`
drives every controller through the hourly hooks of `mdp.Controller`:
`daily_update` at each controlled hour that opens a day, `act` for the
hour's grid index and `observe` for the hour's transition.  All
randomness derives from the scenario seed, so a (scenario, seed) pair
determines every output byte.

An INI file's schema, `INI_SECTIONS`, is derived from `Scenario`'s type hints:
`[scenario]` sets its own fields and each dataclass-typed field is set by the
section named after it (`[band]` sets `band_schedule`), so `[cem]` and `[ga]`
set the one copy of the planner settings that MPC and MB-RL share.  A suite
file adds `[suite]`: its `days`, `seed` and `price` win over `[scenario]`'s, and
it alone sets `agents` and `name`; flags win over both.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
import time
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines import MpcConfig, MpcController, RbcConfig, RbcController
from .emulator import (AmbientGenParams, BackupConfig, BuildingParams, BuildingState,
                       load_ambient_csv, make_synthetic_ambient, step)
from .mdp import (EPISODE_DTYPE, TARIFF_KINDS, ActionGrid, BandSchedule, ComfortBand,
                  Controller, EpisodeLog, TariffConfig, _left_sum, comfort_reward,
                  consumption_reward, encode_state, log_metrics, make_tariff, read_rows,
                  write_rows)
from .model_based import MAE_CSV_HEADER, MbrlConfig, ModelBasedAgent, exploration_rate
from .model_free import MfrlConfig, ModelFreeAgent
from .planners import EXHAUSTIVE_CAP, CemConfig, GaConfig
from .ranges import check_ranges, declared, inside, ranged

__all__ = [
    "Scenario",
    "SuiteConfig",
    "RunReport",
    "build_traces",
    "simulate",
    "run_scenario",
    "run_suite",
    "emit_plot_data",
    "estimate_convergence",
    "INI_SECTIONS",
    "scenario_from_ini",
    "suite_from_ini",
]

AGENT_KINDS = ("rbc", "mpc", "mbrl", "mfrl")
# the price names of the INI files and the command line -> tariff kinds
PRICE_KINDS = {"flat": "flat", "dual": "dual", "rtp": "real_time"}
PLOT_KINDS = ("temperature_trace", "action_histogram", "hourly_action_heatmap",
              "model_mae")
# the columns of a run's metrics file and of a suite table; RunReport's field names
_METRICS = ("consumption_change_pct", "cost_change_pct", "comfort_loss_eur")
# the Scenario fields that a suite file's [suite] section also sets
_SUITE_SHARED = ("days", "seed", "tariff_kind")


def _check_name(name: str) -> None:
    """A run's name prefixes every file it writes, so it names no other directory."""
    if any(sep and sep in name for sep in ("/", os.sep, os.altsep, "\0")):
        raise ValueError(f"name must not contain a path separator or NUL, got {name!r}")


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs, checked when built; every field has an overridable default."""

    name: str = "run"
    days: int = ranged(30, "[1, inf)")
    agent: str = ranged("rbc", AGENT_KINDS)
    seed: int = ranged(0, "[0, inf)")
    tariff_kind: str = ranged("flat", TARIFF_KINDS)
    tariff: TariffConfig = field(default_factory=TariffConfig)
    band_schedule: BandSchedule = field(default_factory=BandSchedule.constant)
    backup_enabled: bool = False
    backup_low_trip: float | None = ranged(None, "(-inf, inf)")
    backup_high_trip: float | None = ranged(None, "(-inf, inf)")
    warmup_hours: int = ranged(24, "[0, inf)")
    initial_temp_c: float = ranged(21.0, declared(AmbientGenParams, "mean_c"))
    building: BuildingParams = field(default_factory=BuildingParams)
    ambient: AmbientGenParams = field(default_factory=AmbientGenParams)
    ambient_csv: str | None = None
    grid: ActionGrid = field(default_factory=ActionGrid)
    history_length: int = ranged(3, "[0, inf)")
    rbc: RbcConfig = field(default_factory=RbcConfig)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    cem: CemConfig = field(default_factory=CemConfig)  # the planner settings of MPC and MB-RL
    ga: GaConfig = field(default_factory=GaConfig)
    mbrl: MbrlConfig = field(default_factory=MbrlConfig)
    mfrl: MfrlConfig = field(default_factory=MfrlConfig)

    def horizon_hours(self) -> int:
        return self.days * 24

    def validate(self) -> None:
        check_ranges(self)
        _check_name(self.name)
        if not self.warmup_hours < self.horizon_hours():
            raise ValueError("warmup_hours must be < days * 24, leaving a controlled hour")
        if self.grid.levels_w[-1] > self.building.max_power_w:
            raise ValueError("action grid exceeds the heat pump's max power")
        lookahead = min(self.mpc.horizon, self.horizon_hours() - self.warmup_hours)
        if self.mpc.planner == "exhaustive" and len(self.grid) ** lookahead > EXHAUSTIVE_CAP:
            raise ValueError(f"mpc.horizon {self.mpc.horizon}: {len(self.grid)}^{lookahead} "
                             f"exhaustive plans exceed the cap of {EXHAUSTIVE_CAP}")
        self.backup_config()  # trips must be ordered
        # a learning agent's last daily update is the run's last controlled day start
        last_day = self.days - (self.warmup_hours + 23) // 24
        for section in ("mbrl", "mfrl"):
            cfg = getattr(self, section)
            try:
                exploration_rate(cfg, last_day)
            except OverflowError:
                raise ValueError(f"{section}.epsilon_exponent {cfg.epsilon_exponent!r}: day ** "
                                 f"epsilon_exponent overflows by day {last_day}") from None

    __post_init__ = validate  # a Scenario is checked when it is built

    def backup_config(self) -> BackupConfig:
        band0 = self.band_schedule.band_at(0)
        low = self.backup_low_trip if self.backup_low_trip is not None else band0.t_min
        high = self.backup_high_trip if self.backup_high_trip is not None else band0.t_max
        if not low < high:
            raise ValueError(f"backup_low_trip {low!r} must be below backup_high_trip {high!r}; "
                             "an unset trip is the band's t_min/t_max at hour 0")
        return BackupConfig(self.backup_enabled, low, high)


@dataclass
class RunReport:
    scenario_name: str
    agent: str
    agent_log_path: str
    baseline_log_path: str
    consumption_change_pct: float
    cost_change_pct: float
    comfort_loss_eur: float
    wall_seconds: float
    convergence_day: int | None  # estimate_convergence's day; None if never or under 7 days
    extra_paths: dict = field(default_factory=dict)


def build_traces(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The scenario's read-only (ambient, prices) arrays, derived from its seed."""
    ss = np.random.SeedSequence(scenario.seed)
    ambient_seed, tariff_seed, _ = (int(c.generate_state(1)[0]) for c in ss.spawn(3))
    if scenario.ambient_csv is not None:
        ambient = load_ambient_csv(scenario.ambient_csv)
    else:
        # one extra day so the final observation still has an ambient value
        ambient = make_synthetic_ambient(ambient_seed, scenario.days + 1, scenario.ambient)
    prices = make_tariff(scenario.tariff_kind, scenario.horizon_hours(), scenario.tariff,
                         tariff_seed)
    return ambient, prices


def _check_trace(name: str, trace: np.ndarray, hours: int, allowed: str) -> None:
    """Raise ValueError naming the trace unless it holds at least `hours`
    values, each in the interval `allowed`."""
    if trace.ndim != 1 or len(trace) < hours:
        raise ValueError(f"{name} trace must hold at least {hours} hourly values, "
                         f"got shape {trace.shape}")
    bad = ~inside(trace, allowed)
    if bad.any():
        hour = int(bad.argmax())
        raise ValueError(f"{name} trace must be in {allowed}, "
                         f"got {float(trace[hour])!r} at hour {hour}")


def simulate(scenario: Scenario, agent_kind: str, ambient,
             prices) -> tuple[EpisodeLog, Controller]:
    """Run one controller over the traces; returns its episode log and the controller.

    `ambient` (degC) and `prices` (EUR/kWh) are hourly float sequences from
    hour 0; ambient needs one value beyond the run, for the last observation.
    """
    horizon = scenario.horizon_hours()
    ambient, prices = np.asarray(ambient, dtype=float), np.asarray(prices, dtype=float)
    # the ranges the trace builders enforce
    _check_trace("ambient", ambient, horizon + 1, declared(AmbientGenParams, "mean_c"))
    _check_trace("prices", prices, horizon, declared(TariffConfig, "flat_price"))
    ambient_c, price = ambient.tolist(), prices.tolist()  # the hourly path runs on floats
    n = scenario.history_length
    backup = scenario.backup_config()
    schedule = scenario.band_schedule
    grid = scenario.grid
    # the seed's third child drives the agent; build_traces takes the other two
    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed).spawn(3)[2])
    controllers = {
        "rbc": lambda: RbcController(scenario.rbc, grid),
        "mpc": lambda: MpcController(scenario.building, grid, scenario.mpc, rng,
                                     cem=scenario.cem, ga=scenario.ga),
        "mbrl": lambda: ModelBasedAgent(scenario.mbrl, grid, rng, seed=scenario.seed,
                                        history_length=n, cem=scenario.cem, ga=scenario.ga),
        "mfrl": lambda: ModelFreeAgent(scenario.mfrl, grid, rng, seed=scenario.seed,
                                       history_length=n),
    }
    if agent_kind not in controllers:
        raise ValueError(f"unknown agent kind {agent_kind!r}")
    agent = controllers[agent_kind]()

    state = BuildingState(scenario.initial_temp_c, scenario.initial_temp_c, 0)
    steps = np.recarray(horizon, dtype=EPISODE_DTYPE)
    obs = encode_state((scenario.initial_temp_c,) * (n + 1), ambient_c[0], n)

    for t in range(horizon):
        controlled = t >= scenario.warmup_hours
        action = 0
        if controlled:
            ahead = (obs, prices[t:], ambient[t:], schedule.band_at(t))
            if t % 24 == 0:
                agent.daily_update(*ahead)
            action = agent.act(t, state, *ahead)

        state, applied = step(state, scenario.building, ambient_c[t],
                              grid.levels_w[action], backup)

        band_arrival = schedule.band_at(t + 1)
        r_cons = consumption_reward(applied, price[t])
        try:
            r_comfort = comfort_reward(state.indoor_temp, band_arrival)
        except OverflowError:
            raise ValueError(f"hour {t}: indoor temperature {state.indoor_temp!r} degC is "
                             "too far from the comfort band to score") from None
        steps[t] = (t, ambient_c[t], state.indoor_temp, state.envelope_temp,
                    applied, price[t], r_cons, r_comfort)

        obs_next = encode_state((state.indoor_temp, *obs[:n].tolist()), ambient_c[t + 1], n)
        if controlled:
            agent.observe(obs, action, r_cons + r_comfort, obs_next)
        obs = obs_next
    return EpisodeLog(steps), agent


def _timed_simulate(scenario: Scenario, agent_kind: str, traces) -> tuple:
    """simulate's (log, controller) plus its wall time in seconds."""
    t0 = time.perf_counter()
    log, agent = simulate(scenario, agent_kind, *traces)
    return log, agent, time.perf_counter() - t0


def run_scenario(scenario: Scenario, out_dir) -> RunReport:
    """Run the scenario's agent plus the RBC denominator; write CSVs."""
    traces = build_traces(scenario)
    return _run_against(scenario, out_dir, traces, _timed_simulate(scenario, "rbc", traces))


def _run_against(scenario: Scenario, out_dir, traces, baseline) -> RunReport:
    """Run the scenario's agent on `traces`, score it against `baseline`, the
    timed RBC run on the same traces, and write the run's CSVs; a run that
    cannot be scored writes nothing."""
    agent_log, agent, wall = (baseline if scenario.agent == "rbc"
                              else _timed_simulate(scenario, scenario.agent, traces))
    baseline_log = baseline[0]
    controlled_agent = agent_log.slice_hours(scenario.warmup_hours)
    controlled_baseline = baseline_log.slice_hours(scenario.warmup_hours)
    if not controlled_baseline.total_kwh() > 0.0:
        raise ValueError("the RBC baseline never heated after the warm-up, so the change "
                         "metrics are undefined: the room never fell below [band] t_min - "
                         f"[rbc] hysteresis_c (hysteresis_c = {scenario.rbc.hysteresis_c!r})")
    metrics = log_metrics(controlled_agent, controlled_baseline)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    agent_path = out / f"{scenario.name}_{scenario.agent}.csv"
    base_path = out / f"{scenario.name}_rbc_baseline.csv"
    agent_log.write_csv(agent_path)
    baseline_log.write_csv(base_path)

    tables = {**agent.tables(), "metrics": (("agent", *_METRICS), [(scenario.agent, *metrics)])}
    extra = {}
    for table, (header, rows) in tables.items():
        extra[table] = str(out / f"{scenario.name}_{table}.csv")
        write_rows(extra[table], header, rows)

    convergence_day = (estimate_convergence(controlled_agent)
                       if len(controlled_agent) >= 7 * 24 else None)

    return RunReport(scenario.name, scenario.agent, str(agent_path), str(base_path),
                     metrics[0], metrics[1], metrics[2], wall, convergence_day, extra)


@dataclass(frozen=True)
class SuiteConfig:
    """Runs each of `agents` on `base`, which holds the suite's days, seed and tariff_kind."""

    name: str = "suite"
    agents: tuple[str, ...] = ranged(AGENT_KINDS, AGENT_KINDS)
    base: Scenario = field(default_factory=Scenario)

    def __post_init__(self):
        check_ranges(self)
        _check_name(self.name)
        if not self.agents:
            raise ValueError("a suite needs at least one agent")
        if len(set(self.agents)) < len(self.agents):
            raise ValueError(f"suite agents {self.agents} name an agent twice")


def run_suite(cfg: SuiteConfig, out_dir) -> list[dict]:
    """Run each agent on bit-identical traces; write one comparison table.

    The traces are built and the RBC baseline simulated once, and each agent
    writes the files a lone run_scenario of its scenario would.  A failing
    agent contributes an error row and the suite continues; when the shared
    baseline fails, every row records its error.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        traces = build_traces(cfg.base)
        baseline, failure = _timed_simulate(cfg.base, "rbc", traces), None
    except Exception as exc:  # recorded in every agent's row below
        failure = exc
    # the table holds no wall clock, so a suite's files are the same on every run
    cols = ("agent", *_METRICS, "convergence_hours", "status")
    rows: list[dict] = []
    for agent in cfg.agents:
        row = {**dict.fromkeys(cols, ""), "agent": agent, "wall_clock_s": ""}
        try:
            if failure is not None:
                raise failure
            report = _run_against(replace(cfg.base, name=f"{cfg.name}_{agent}", agent=agent),
                                  out, traces, baseline)
            day = report.convergence_day
            row.update({m: getattr(report, m) for m in _METRICS},
                       wall_clock_s=report.wall_seconds,
                       convergence_hours="" if day is None else (day - 1) * 24, status="ok")
        except Exception as exc:  # record and continue with the other agents
            row["status"] = f"error: {type(exc).__name__}: {exc}"
        rows.append(row)

    write_rows(out / f"{cfg.name}_table.csv", cols, ([row[c] for c in cols] for row in rows))
    return rows


def estimate_convergence(log: EpisodeLog, threshold_eur: float = 0.05) -> int | None:
    """The 1-based first day of the log whose every following 3-day
    comfort-penalty window sums below `threshold_eur`; None when no such
    all-clean tail exists."""
    n_days = len(log) // 24
    if n_days < 7:
        raise ValueError("need at least 7 days of log to estimate convergence")
    # row h of the transposed (days, 24) view is hour h of every day: adding the
    # rows in order sums each day's hours left to right
    daily = -_left_sum(log.steps.r_comfort[:n_days * 24].reshape(n_days, 24).T)
    windows = np.array([daily[d:d + 3].sum() for d in range(n_days - 2)])
    dirty = np.nonzero(windows >= threshold_eur)[0]
    first_clean = int(dirty[-1]) + 1 if len(dirty) else 0  # 0-based window start
    return first_clean + 1 if first_clean < len(windows) else None


def emit_plot_data(log_path, kind: str, out_dir, scenario: Scenario | None = None) -> str:
    """Write a plot-ready CSV derived from an episode (or MAE) log, read and checked
    first, so a rejected log leaves nothing written.  The run's `scenario` (default
    `Scenario()`) gives the grid, plus `max_power_w` where its backup may force that
    power, and hour h the band_at(h + 1) its r_comfort was scored on."""
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    steps = None if kind == "model_mae" else EpisodeLog.read_csv(log_path).steps
    scenario = scenario or Scenario()
    if kind == "model_mae":
        header, rows = MAE_CSV_HEADER, read_rows(log_path, MAE_CSV_HEADER)
    elif kind == "temperature_trace":
        header = ["hour", "t_i", "t_a", "band_low", "band_high"]
        bands = [scenario.band_schedule.band_at(h + 1) for h in steps.hour.tolist()]
        rows = zip(steps.hour.tolist(), steps.t_i.tolist(), steps.t_a.tolist(),
                   (b.t_min for b in bands), (b.t_max for b in bands))
    elif kind == "action_histogram":
        levels, counts = np.unique(steps.power_w, return_counts=True)
        header, rows = ["level_w", "count"], zip(levels.tolist(), counts.tolist())
    elif kind == "hourly_action_heatmap":
        levels = scenario.grid.levels_w
        if scenario.backup_enabled and scenario.building.max_power_w not in levels:
            levels = (*levels, scenario.building.max_power_w)  # the backup's forced hours
        match = steps.power_w[:, None] == np.asarray(levels)
        off_grid = ~match.any(axis=1)
        if off_grid.any():
            raise ValueError(f"power {steps.power_w[off_grid.argmax()]} W "
                             "not on the action grid")
        matrix = np.zeros((24, len(levels)), dtype=int)
        np.add.at(matrix, (steps.hour % 24, match.argmax(axis=1)), 1)
        header = ["hour_of_day", *(f"n_{int(l)}w" for l in levels)]
        rows = np.column_stack((np.arange(24), matrix)).tolist()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dest = out / f"{Path(log_path).stem}_{kind}.csv"
    write_rows(dest, header, rows)
    return str(dest)


# ---------------------------------------------------------------------------
# Plain key-value (INI) configuration files
# ---------------------------------------------------------------------------

# what the first line of an INI file that does not parse does wrong
_INI_FAULTS = {configparser.DuplicateOptionError: "a key repeats within its section",
               configparser.DuplicateSectionError: "a section header repeats",
               configparser.MissingSectionHeaderError: "a key before the first [section]",
               configparser.ParsingError: "neither a [section] header nor a key = value line"}


def _read_ini(path, sections) -> configparser.ConfigParser:
    """Parse an INI file whose sections must all be among `sections`; `%` reads as itself."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is None:
        return parser
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            line = getattr(exc, "lineno", None) or exc.errors[0][0]
            raise ValueError(f"{path}, line {line}: {_INI_FAULTS[type(exc)]}") from None
    for name in parser.sections():
        if name not in sections:
            raise ValueError(f"{path}: unknown section [{name}]")
    return parser


def _choice(table: dict, what: str):
    """Cast of one INI value through a table of its accepted spellings."""
    def cast(raw: str):
        try:
            return table[raw.lower()]
        except KeyError:
            raise ValueError(f"expected {what} ({'/'.join(table)}), got {raw!r}") from None
    return cast


_bool = _choice(configparser.ConfigParser.BOOLEAN_STATES, "a boolean")


def _caster(tp):
    """Parser of one INI value into type `tp`; None when one value cannot set it."""
    if tp is bool:
        return _bool
    if tp in (int, float, str):
        return tp
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _caster(args[0])
        if item is not None:
            return lambda raw: tuple(item(v) for v in raw.replace(",", " ").split())
    if len(args) == 2 and type(None) in args:  # X | None: the value sets X
        return _caster(next(a for a in args if a is not type(None)))
    return None


def _section(parser, section: str, hints: dict) -> dict:
    """Keyword arguments from one INI section for the fields of `hints`, a
    name -> type map such as `typing.get_type_hints` of a dataclass.

    The keys are the names of the fields that one value can set, each cast
    to the field's annotated type.  The section's `_ALIASES` map further keys
    to a (field, cast) pair; a field reached through an alias loses its own key.
    """
    aliases = _ALIASES.get(section, {})
    hidden = {name for name, _ in aliases.values()}
    keys = {}
    for name, tp in hints.items():
        cast = _caster(tp)
        if cast is not None and name not in hidden:
            keys[name] = (name, cast)
    keys.update(aliases)
    out = {}
    if parser.has_section(section):
        for key, raw in parser.items(section):
            if key not in keys:
                raise ValueError(f"[{section}] has unknown key {key!r}")
            name, cast = keys[key]
            try:
                out[name] = cast(raw)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from None
    return out


def _parse_band_phases(raw: str) -> BandSchedule:
    phases = []
    for part in raw.split(","):
        try:
            start, t_min, t_max = part.split(":")
            start, band = int(start), (float(t_min), float(t_max))
        except ValueError:
            raise ValueError(f"phase {part.strip()!r} is not start:t_min:t_max, "
                             "an integer hour and two temperatures") from None
        phases.append((start, ComfortBand(*band)))
    return BandSchedule(tuple(phases))


# per section, the INI keys whose names differ from the fields they set
_PRICE_ALIAS = {"price": ("tariff_kind", _choice(PRICE_KINDS, "a price"))}
_ALIASES = {"suite": _PRICE_ALIAS,
            "scenario": {**_PRICE_ALIAS, "backup": ("backup_enabled", _bool)},
            "band": {"phases": ("phases", _parse_band_phases)}}


# each config field of Scenario -> (its section, the dataclass that section sets);
# [band] sets band_schedule from ComfortBand's fields or a `phases` schedule
_CONFIG_FIELDS = {name: ("band", ComfortBand) if tp is BandSchedule else (name, tp)
                  for name, tp in typing.get_type_hints(Scenario).items()
                  if dataclasses.is_dataclass(tp)}
# each section of a scenario INI file -> the dataclass whose fields it sets
INI_SECTIONS = {"scenario": Scenario, **dict(_CONFIG_FIELDS.values())}


def _band(parser) -> BandSchedule:
    band = _section(parser, "band", typing.get_type_hints(ComfortBand))
    if "phases" not in band:
        return BandSchedule.constant(ComfortBand(**band))
    if len(band) > 1:
        raise ValueError("[band] takes either phases or t_min/t_max, not both")
    return band["phases"]


def _scenario(parser, overrides: dict | None = None) -> Scenario:
    """The Scenario of `[scenario]`, each config field built from its own
    section; `overrides` wins over the file."""
    kwargs = _section(parser, "scenario", typing.get_type_hints(Scenario))
    for name, (section, cls) in _CONFIG_FIELDS.items():
        kwargs[name] = (_band(parser) if section == "band"
                        else cls(**_section(parser, section, typing.get_type_hints(cls))))
    return Scenario(**{**kwargs, **(overrides or {})})


def scenario_from_ini(path=None, overrides: dict | None = None) -> Scenario:
    """Build a Scenario from an INI file (None reads as an empty one) whose sections
    are among INI_SECTIONS (see the module docstring); `overrides` wins over the file."""
    return _scenario(_read_ini(path, INI_SECTIONS), overrides)


def suite_from_ini(path=None, overrides: dict | None = None) -> SuiteConfig:
    """Build a SuiteConfig from the `[suite]` section of an INI file (None reads as an
    empty one); the sections of a scenario file (see scenario_from_ini) there make
    the base scenario of every run, and any other section is rejected.  `[suite]`
    also sets the base's _SUITE_SHARED fields over `[scenario]`; `overrides` wins."""
    parser = _read_ini(path, ("suite", *INI_SECTIONS))
    for key, instead in (("agent", "agents"), ("name", "name")):
        if parser.has_option("scenario", key):
            raise ValueError(f"a suite file's [scenario] takes no {key}; set [suite] {instead}")
    hints = typing.get_type_hints(Scenario)
    keys = {**typing.get_type_hints(SuiteConfig), **{n: hints[n] for n in _SUITE_SHARED}}
    head = {**_section(parser, "suite", keys), **(overrides or {})}
    shared = {name: head.pop(name) for name in _SUITE_SHARED if name in head}
    return SuiteConfig(**head, base=_scenario(parser, shared))
