import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatbench import planners
from heatbench.emulator import BuildingParams, BuildingState, hour_affine_map, step
from heatbench.mdp import ActionGrid, ComfortBand, encode_state, comfort_reward
from heatbench.planners import (CemConfig, ExactDynamicsModel, GaConfig, sample_categorical,
                                evaluate_sequences, plan_cem, plan_exhaustive, plan_ga)

PARAMS = BuildingParams()
GRID = ActionGrid()
LEVELS = np.asarray(GRID.levels_w)
BAND = ComfortBand(19.0, 23.0)


class ConstantModel:
    """Temperature never moves; isolates the reward arithmetic."""

    def __init__(self, t_i=21.0):
        self.t_i = t_i

    def rollout_temps(self, start, powers, ambient):
        return np.full(powers.shape, self.t_i)


def _exact(t_i, t_m, ambient):
    state = BuildingState(t_i, t_m, 0)
    return ExactDynamicsModel(PARAMS, state), encode_state((t_i,) * 4, ambient, 3)


def _random_instance(seed, horizon):
    rng = np.random.default_rng(seed)
    t_i = rng.uniform(16.0, 24.0)
    t_m = rng.uniform(16.0, 24.0)
    ambient = rng.uniform(-5.0, 12.0, size=horizon)
    prices = rng.uniform(0.1, 0.4, size=horizon)
    model = ExactDynamicsModel(PARAMS, BuildingState(t_i, t_m, 0))
    return model, encode_state((t_i,) * 4, ambient[0], 3), prices, ambient


def _rollout_return(model, obs, actions, prices, ambient):
    """Return of one action sequence: a one-row batch through the planners' path."""
    powers = LEVELS[np.array([actions])]
    return float(evaluate_sequences(model, obs, powers, np.asarray(prices, float),
                                    np.asarray(ambient, float), BAND)[0])


def test_rollout_return_zero_when_idle_inside_band():
    model = ConstantModel(21.0)
    obs = encode_state((21.0,) * 4, 5.0, 3)
    assert _rollout_return(model, obs, [0], [0.05], [5.0]) == 0.0


def test_rollout_return_consumption_only():
    model = ConstantModel(21.0)
    obs = encode_state((21.0,) * 4, 5.0, 3)
    ret = _rollout_return(model, obs, [5], [0.05], [5.0])
    assert ret == pytest.approx(-0.10)


def test_rollout_return_additive_over_steps():
    model, obs = _exact(20.0, 20.0, 5.0)
    actions = [3, 1]
    total = _rollout_return(model, obs, actions, [0.2, 0.3], [5.0, 4.0])

    first = _rollout_return(model, obs, actions[:1], [0.2], [5.0])
    mid, _ = step(BuildingState(20.0, 20.0, 0), PARAMS, 5.0, GRID.levels_w[3])
    model2 = ExactDynamicsModel(PARAMS, mid)
    obs2 = encode_state((mid.indoor_temp,) * 4, 4.0, 3)
    second = _rollout_return(model2, obs2, actions[1:], [0.3], [4.0])
    assert total == pytest.approx(first + second, abs=1e-9)


def test_rollout_return_rejects_short_windows():
    model = ConstantModel()
    obs = encode_state((21.0,) * 4, 5.0, 3)
    with pytest.raises(ValueError, match="shorter than the planning horizon"):
        plan_exhaustive(model, obs, 2, GRID, [0.2], [5.0, 5.0], BAND)
    with pytest.raises(ValueError, match="shorter than the planning horizon"):
        plan_exhaustive(model, obs, 2, GRID, [0.2, 0.2], [5.0], BAND)


def test_rollout_matches_realized_episode_return():
    # the exact model must reproduce the emulator's own trajectory return
    actions = [5, 0, 2, 1, 0, 3]
    ambient = [2.0, 1.0, 0.0, -1.0, 3.0, 4.0]
    prices = [0.2, 0.25, 0.3, 0.2, 0.18, 0.22]
    state = BuildingState(19.5, 20.5, 0)

    realized = 0.0
    s = state
    for k, a in enumerate(actions):
        s, applied = step(s, PARAMS, ambient[k], GRID.levels_w[a])
        realized += -(applied / 1000.0) * prices[k]
        realized += comfort_reward(s.indoor_temp, BAND)

    model = ExactDynamicsModel(PARAMS, state)
    obs = encode_state((19.5,) * 4, ambient[0], 3)
    planned = _rollout_return(model, obs, actions, prices, ambient)
    assert planned == pytest.approx(realized, abs=1e-9)


def test_exhaustive_single_action_grid():
    grid1 = ActionGrid((0.0,))
    model = ConstantModel()
    obs = encode_state((21.0,) * 4, 5.0, 3)
    plan = plan_exhaustive(model, obs, 3, grid1, [0.2] * 3, [5.0] * 3, BAND)
    assert plan.actions == (0, 0, 0)


def test_exhaustive_tie_breaks_toward_lower_energy():
    # zero prices and a frozen temperature: every sequence returns 0
    model = ConstantModel(21.0)
    obs = encode_state((21.0,) * 4, 5.0, 3)
    plan = plan_exhaustive(model, obs, 2, GRID, [0.0, 0.0], [5.0, 5.0], BAND)
    assert plan.expected_return == 0.0
    assert plan.actions == (0, 0)


def test_exhaustive_cap():
    model = ConstantModel()
    obs = encode_state((21.0,) * 4, 5.0, 3)
    with pytest.raises(ValueError):
        plan_exhaustive(model, obs, 5, GRID, [0.2] * 5, [5.0] * 5, BAND)


def test_exhaustive_freezing_state_needs_full_power():
    # every action leaves the building below band; max power hurts least
    model, obs = _exact(14.0, 15.0, -15.0)
    plan = plan_exhaustive(model, obs, 1, GRID, [0.24], [-15.0], BAND)
    assert plan.actions == (GRID.max_index,)


def test_cem_matches_oracle_at_horizon_one():
    model, obs = _exact(14.0, 15.0, -15.0)
    oracle = plan_exhaustive(model, obs, 1, GRID, [0.24], [-15.0], BAND)
    plan = plan_cem(model, obs, 1, GRID, [0.24], [-15.0], BAND,
                    CemConfig(), np.random.default_rng(0))
    assert plan.actions == oracle.actions


def test_cem_within_one_percent_of_oracle_horizon_three():
    for seed in range(5):
        model, obs, prices, ambient = _random_instance(seed, 3)
        oracle = plan_exhaustive(model, obs, 3, GRID, prices, ambient, BAND)
        plan = plan_cem(model, obs, 3, GRID, prices, ambient, BAND,
                        CemConfig(), np.random.default_rng(seed))
        assert plan.expected_return <= oracle.expected_return + 1e-9
        slack = max(0.01 * abs(oracle.expected_return), 1e-9)
        assert plan.expected_return >= oracle.expected_return - slack


def test_cem_flat_landscape_returns_constant():
    model = ConstantModel(21.0)
    obs = encode_state((21.0,) * 4, 5.0, 3)
    plan = plan_cem(model, obs, 3, GRID, np.zeros(3), [5.0] * 3, BAND,
                    CemConfig(), np.random.default_rng(1))
    assert plan.expected_return == 0.0


def test_cem_rejects_degenerate_elite():
    with pytest.raises(ValueError):
        CemConfig(population=4, elite_fraction=0.01)


def test_cem_deterministic_under_seed():
    model, obs, prices, ambient = _random_instance(3, 4)
    a = plan_cem(model, obs, 4, GRID, prices, ambient, BAND,
                 CemConfig(), np.random.default_rng(7))
    b = plan_cem(model, obs, 4, GRID, prices, ambient, BAND,
                 CemConfig(), np.random.default_rng(7))
    assert a == b


def test_ga_matches_oracle_at_horizon_one():
    model, obs = _exact(14.0, 15.0, -15.0)
    plan = plan_ga(model, obs, 1, GRID, [0.24], [-15.0], BAND,
                   GaConfig(), np.random.default_rng(0))
    assert plan.actions == (GRID.max_index,)


def test_ga_within_one_percent_of_oracle_horizon_three():
    for seed in range(5):
        model, obs, prices, ambient = _random_instance(100 + seed, 3)
        oracle = plan_exhaustive(model, obs, 3, GRID, prices, ambient, BAND)
        plan = plan_ga(model, obs, 3, GRID, prices, ambient, BAND,
                       GaConfig(), np.random.default_rng(seed))
        assert plan.expected_return <= oracle.expected_return + 1e-9
        slack = max(0.01 * abs(oracle.expected_return), 1e-9)
        assert plan.expected_return >= oracle.expected_return - slack


def test_ga_zero_mutation_identical_genomes_stay_identical():
    # a single-level grid forces an identical population; selection and
    # crossover alone must not invent new genomes
    grid1 = ActionGrid((0.0,))
    model = ConstantModel()
    obs = encode_state((21.0,) * 4, 5.0, 3)
    cfg = GaConfig(population=8, generations=5, mutation_rate=0.0, immigrants=0)
    plan = plan_ga(model, obs, 2, grid1, [0.2] * 2, [5.0] * 2, BAND,
                   cfg, np.random.default_rng(0))
    assert plan.actions == (0, 0)


def test_ga_deterministic_under_seed():
    model, obs, prices, ambient = _random_instance(9, 3)
    a = plan_ga(model, obs, 3, GRID, prices, ambient, BAND,
                GaConfig(), np.random.default_rng(5))
    b = plan_ga(model, obs, 3, GRID, prices, ambient, BAND,
                GaConfig(), np.random.default_rng(5))
    assert a == b


def test_planners_never_beat_the_oracle():
    for seed in range(8):
        model, obs, prices, ambient = _random_instance(200 + seed, 2)
        oracle = plan_exhaustive(model, obs, 2, GRID, prices, ambient, BAND)
        for planner, cfg in ((plan_cem, CemConfig()), (plan_ga, GaConfig())):
            plan = planner(model, obs, 2, GRID, prices, ambient, BAND,
                           cfg, np.random.default_rng(seed))
            assert plan.expected_return <= oracle.expected_return + 1e-9


class NanWhenFirstIdleModel(ConstantModel):
    """Diverges (NaN) on every sequence that starts idle, the cheapest ones."""

    def rollout_temps(self, start, powers, ambient):
        temps = super().rollout_temps(start, powers, ambient)
        temps[powers[:, 0] == 0.0, -1] = np.nan
        return temps


def test_planners_never_return_a_nan_trajectory():
    model = NanWhenFirstIdleModel()
    obs = encode_state((21.0,) * 4, 5.0, 3)
    prices, ambient = [0.24] * 3, [5.0] * 3
    plans = [plan_exhaustive(model, obs, 3, GRID, prices, ambient, BAND)]
    for seed in range(3):
        plans.append(plan_cem(model, obs, 3, GRID, prices, ambient, BAND,
                              CemConfig(), np.random.default_rng(seed)))
        plans.append(plan_ga(model, obs, 3, GRID, prices, ambient, BAND,
                             GaConfig(), np.random.default_rng(seed)))
    for plan in plans:
        assert plan.actions[0] != 0
        assert np.isfinite(plan.expected_return)
    assert plans[0].actions == (1, 0, 0)
    # a model that diverges everywhere still yields a plan, valued -inf
    everywhere = plan_exhaustive(ConstantModel(np.nan), obs, 2, GRID, prices, ambient, BAND)
    assert everywhere.expected_return == -np.inf


def test_batch_rollout_matches_emulator_step():
    model, obs = _exact(19.0, 20.0, 2.0)
    actions = np.array([[2, 4, 0], [5, 0, 1]])
    ambient = np.array([2.0, 1.0, 0.5])
    temps = model.rollout_temps(obs, LEVELS[actions], ambient)
    for row, seq in enumerate(actions):
        s = BuildingState(19.0, 20.0, 0)
        for k, a in enumerate(seq):
            s, _ = step(s, PARAMS, ambient[k], GRID.levels_w[a])
            assert temps[row, k] == pytest.approx(s.indoor_temp, abs=1e-9)


def _recursive_rollout(params, state, actions, ambient):
    """Reference exact rollout: the one-hour affine map applied hour by hour."""
    p, s = hour_affine_map(params)
    x = np.tile([state.indoor_temp, state.envelope_temp], (len(actions), 1))
    out = np.empty(actions.shape)
    for k in range(actions.shape[1]):
        drive = (params.ambient_conductance * ambient[k]
                 + params.cop * np.asarray(GRID.levels_w)[actions[:, k]])
        x = x @ p.T + drive[:, None] * s
        out[:, k] = x[:, 0]
    return out


@pytest.mark.parametrize("horizon", range(1, 25))
def test_closed_form_rollout_matches_hourly_recursion(horizon):
    rng = np.random.default_rng(horizon)
    params = BuildingParams(cop=2.5, ambient_conductance=150.0)
    state = BuildingState(rng.uniform(15.0, 25.0), rng.uniform(15.0, 25.0), 0)
    actions = rng.integers(len(GRID), size=(32, horizon))
    ambient = rng.uniform(-15.0, 15.0, size=horizon)
    model = ExactDynamicsModel(params, state)
    temps = model.rollout_temps(encode_state((state.indoor_temp,) * 4, ambient[0], 3),
                                LEVELS[actions], ambient)
    reference = _recursive_rollout(params, state, actions, ambient)
    assert np.max(np.abs(temps - reference)) <= 1e-12



def test_exact_rollout_recomputes_the_free_response_for_a_new_window():
    state = BuildingState(19.5, 20.5, 0)
    obs = encode_state((19.5,) * 4, 3.0, 3)
    rng = np.random.default_rng(5)
    model = ExactDynamicsModel(PARAMS, state)
    calls = [(rng.integers(len(GRID), size=(16, 24)), np.full(24, 3.0)),
             (rng.integers(len(GRID), size=(16, 24)), np.full(24, 3.0)),
             (rng.integers(len(GRID), size=(16, 24)), np.full(24, -4.0)),
             (rng.integers(len(GRID), size=(16, 24)), np.linspace(-4.0, 3.0, 24)),
             (rng.integers(len(GRID), size=(16, 6)), np.full(6, 3.0)),
             (rng.integers(len(GRID), size=(16, 1)), np.full(1, 3.0)),
             (rng.integers(len(GRID), size=(16, 24)), np.full(24, 3.0))]
    for actions, ambient in calls:
        temps = model.rollout_temps(obs, LEVELS[actions], ambient)
        fresh = ExactDynamicsModel(PARAMS, state).rollout_temps(obs, LEVELS[actions], ambient)
        assert temps.shape == actions.shape
        assert np.array_equal(temps, fresh)
    # a window of one hour against a kept response of 24 hours must not broadcast
    with pytest.raises(ValueError):
        model.rollout_temps(obs, LEVELS[calls[0][0]][:, :1], np.full(24, 3.0))

def _searchsorted_sample(probs, n, rng):
    """Reference sampler: one searchsorted per horizon step."""
    horizon, n_actions = probs.shape
    u = rng.random((n, horizon))
    out = np.empty((n, horizon), dtype=int)
    for k in range(horizon):
        cum = np.cumsum(probs[k])
        cum[-1] = 1.0
        out[:, k] = np.searchsorted(cum, u[:, k], side="right")
    return np.minimum(out, n_actions - 1)


_weight = st.sampled_from([0.0, 1e-12, 0.1, 0.5, 1.0, 3.0]) | st.floats(0.0, 1.0)


# past 127 and 255 actions the sampler's index accumulator must widen
_WIDE_GRIDS = [127, 128, 256, 300]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), horizon=st.integers(1, 6),
       n_actions=st.integers(1, 7) | st.sampled_from(_WIDE_GRIDS),
       shortfall=st.sampled_from([0.0, 1e-16, 1e-9, 1e-3, 0.1]), seed=st.integers(0, 2**32 - 1))
def test_sampler_matches_searchsorted_reference(data, horizon, n_actions, shortfall, seed):
    if n_actions in _WIDE_GRIDS:
        # too wide to draw weight by weight: random rows, with half the mass on
        # the top index so that the largest indices are drawn
        weights = np.random.default_rng(seed).uniform(size=(horizon, n_actions))
        weights[:, -1] = weights[:, :-1].sum(axis=1)
    else:
        rows = st.lists(_weight, min_size=n_actions, max_size=n_actions)
        # the tiny floor turns an all-zero row into a uniform one
        weights = np.array(data.draw(st.lists(rows, min_size=horizon,
                                              max_size=horizon))) + 1e-300
    probs = weights / weights.sum(axis=1, keepdims=True) * (1.0 - shortfall)
    got = sample_categorical(probs, 64, np.random.default_rng(seed))
    want = _searchsorted_sample(probs, 64, np.random.default_rng(seed))
    assert np.array_equal(got, want)


def _loop_best(actions, returns, grid, best=(-np.inf, np.inf, None)):
    """Reference tracker: strict (return, -energy) improvement, candidate by candidate."""
    value, energy, sequence = best
    energies = np.asarray(grid.levels_w)[actions].sum(axis=1)
    for i in range(len(returns)):
        if (returns[i], -energies[i]) > (value, -energy):
            value, energy, sequence = float(returns[i]), float(energies[i]), actions[i]
    return value, energy, sequence


class IndexSumModel:
    """Arrival temperatures depend only on the sequence's summed action index,
    so permutations of a sequence tie in both return and energy.  The grids
    these tests use step by 400 W, so index = power / 400 W exactly."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def rollout_temps(self, start, powers, ambient):
        keys = (powers.sum(axis=1) // 400.0).astype(int) % self.table.shape[1]
        return self.table[:, keys].T


# in band, out of band on either side, diverged; and a free, priced or infinite
# price (an idle hour at an infinite price returns NaN, a heated one -inf)
_temps = st.sampled_from([21.0, 18.0, 25.0, np.nan])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), horizon=st.integers(1, 3), n_actions=st.integers(1, 4),
       price=st.sampled_from([0.0, 0.2, np.inf]))
def test_best_sequence_matches_loop_on_ties_nan_and_minus_inf(data, horizon, n_actions,
                                                             price):
    grid = ActionGrid(tuple(400.0 * a for a in range(n_actions)))
    table = data.draw(st.lists(st.lists(_temps, min_size=3, max_size=3),
                               min_size=horizon, max_size=horizon))
    model, obs = IndexSumModel(table), encode_state((21.0,) * 4, 5.0, 3)
    prices, ambient = [price] * horizon, [5.0] * horizon
    actions = np.array(list(itertools.product(range(n_actions), repeat=horizon)))
    with np.errstate(invalid="ignore"):
        returns = evaluate_sequences(model, obs, np.asarray(grid.levels_w)[actions],
                                     np.array(prices), np.array(ambient), BAND)
        if np.isnan(returns).all():  # no sequence to return at all
            with pytest.raises(ValueError, match="return was NaN"):
                plan_exhaustive(model, obs, horizon, grid, prices, ambient, BAND)
            return
        plan = plan_exhaustive(model, obs, horizon, grid, prices, ambient, BAND)
    value, _, sequence = _loop_best(actions, returns, grid)
    assert plan.actions == tuple(sequence)
    assert plan.expected_return == value


def _plan(planner, model, obs, grid, prices, ambient):
    """Plan three hours ahead with one of the three public planners."""
    if planner == "exhaustive":
        return plan_exhaustive(model, obs, 3, grid, prices, ambient, BAND)
    rng = np.random.default_rng(0)
    if planner == "cem":
        return plan_cem(model, obs, 3, grid, prices, ambient, BAND, CemConfig(), rng)
    return plan_ga(model, obs, 3, grid, prices, ambient, BAND, GaConfig(), rng)


@pytest.mark.parametrize("planner", ["exhaustive", "cem", "ga"])
def test_planners_reject_nan_windows(planner):
    model, obs = _exact(21.0, 21.0, 5.0)
    prices, ambient = [0.2, 0.3, 0.25, np.nan], [5.0, 4.0, 3.0, np.nan]
    _plan(planner, model, obs, GRID, prices, ambient)  # past the horizon, NaN is unread
    for bad_prices, bad_ambient in (([0.2, np.nan, 0.25], ambient),
                                    (prices, [5.0, 4.0, np.nan])):
        with pytest.raises(ValueError, match="window holds NaN"):
            _plan(planner, model, obs, GRID, bad_prices, bad_ambient)


@pytest.mark.parametrize("planner", ["exhaustive", "cem", "ga"])
def test_planners_name_the_cause_when_every_return_is_nan(planner):
    idle_only = ActionGrid((0.0,))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="return was NaN"):
        _plan(planner, ConstantModel(), encode_state((21.0,) * 4, 5.0, 3), idle_only,
              [np.inf] * 3, [5.0] * 3)


@pytest.mark.parametrize("planner", [plan_cem, plan_ga])
@pytest.mark.parametrize("seed_sequence, entry", [
    ((-1, -1, -1), "seed_sequence[0] = -1"),
    ((5, -1, -1), "seed_sequence[1] = -1"),
    ((0, 0, 7), "seed_sequence[2] = 7"),
    ((0, 2.0, 0), "seed_sequence[1] = 2.0"),
])
def test_planners_reject_off_grid_seed_sequences(planner, seed_sequence, entry):
    model, obs = _exact(5.0, 5.0, -10.0)
    cfg = CemConfig() if planner is plan_cem else GaConfig()
    with pytest.raises(ValueError, match=re.escape(f"{entry} is not an integer in [0, 6)")):
        planner(model, obs, 3, GRID, [0.2] * 3, [-10.0] * 3, BAND, cfg,
                np.random.default_rng(0), seed_sequence)
    # numpy integers are indices too
    planner(model, obs, 3, GRID, [0.2] * 3, [-10.0] * 3, BAND, cfg,
            np.random.default_rng(0), tuple(np.arange(3, 6)))


def _loop_cem(model, obs, horizon, grid, prices, ambient, config, rng, seed_sequence):
    """Reference CEM: per-step sampling, refit and candidate-by-candidate tracking."""
    n_actions = len(grid)
    probs = np.full((horizon, n_actions), 1.0 / n_actions)
    if seed_sequence is not None:
        probs *= 1.0 - config.seed_bias
        probs[np.arange(horizon), np.asarray(seed_sequence)] += config.seed_bias
    best = (-np.inf, np.inf, None)
    for _ in range(config.iterations):
        population = _searchsorted_sample(probs, config.population, rng)
        if seed_sequence is not None:
            population[0] = seed_sequence
        returns = evaluate_sequences(model, obs, np.asarray(grid.levels_w)[population],
                                     np.array(prices), np.array(ambient), BAND)
        best = _loop_best(population, returns, grid, best)
        elite = population[np.argsort(-returns, kind="stable")[:config.elite_count]]
        freqs = np.empty_like(probs)
        for k in range(horizon):
            freqs[k] = np.bincount(elite[:, k], minlength=n_actions) / len(elite)
        probs = config.smoothing * freqs + (1.0 - config.smoothing) * probs
        probs = (1.0 - config.explore_floor) * probs + config.explore_floor / n_actions
    return best[0], tuple(int(a) for a in best[2])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), horizon=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       smoothing=st.floats(0.05, 1.0), explore_floor=st.floats(0.0, 0.5),
       warm=st.booleans())
def test_cem_matches_loop_reference(data, horizon, seed, smoothing, explore_floor, warm):
    table = data.draw(st.lists(st.lists(st.floats(15.0, 27.0), min_size=3, max_size=3),
                               min_size=horizon, max_size=horizon))
    prices = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]),
                                min_size=horizon, max_size=horizon))
    seed_sequence = (tuple(data.draw(st.lists(st.integers(0, 5), min_size=horizon,
                                              max_size=horizon))) if warm else None)
    config = CemConfig(population=24, elite_fraction=0.25, iterations=4,
                       smoothing=smoothing, explore_floor=explore_floor)
    model, obs, ambient = IndexSumModel(table), encode_state((21.0,) * 4, 5.0, 3), [5.0] * horizon
    plan = plan_cem(model, obs, horizon, GRID, prices, ambient, BAND, config,
                    np.random.default_rng(seed), seed_sequence)
    value, actions = _loop_cem(model, obs, horizon, GRID, prices, ambient, config,
                               np.random.default_rng(seed), seed_sequence)
    assert plan.actions == actions
    assert plan.expected_return == value


def _loop_ga(model, obs, horizon, grid, prices, ambient, config, rng, seed_sequence):
    """Reference GA: plan_ga's random draws, one child at a time, with
    candidate-by-candidate tracking."""
    n_actions, levels = len(grid), np.asarray(grid.levels_w)

    def score(population):
        return evaluate_sequences(model, obs, levels[population], np.array(prices),
                                  np.array(ambient), BAND)

    population = rng.integers(n_actions, size=(config.population, horizon))
    if seed_sequence is not None:
        population[0] = seed_sequence
    returns = score(population)
    best = _loop_best(population, returns, grid)
    n_children = config.population - 1
    for _ in range(config.generations):
        contenders = rng.integers(config.population,
                                  size=(n_children, 2, config.tournament_size))
        cross = rng.random(n_children) < config.crossover_rate
        gene_mask = rng.random((n_children, horizon)) < 0.5
        mutate = rng.random((n_children, horizon)) < config.mutation_rate
        fresh = rng.integers(n_actions, size=(n_children, horizon))
        children = []
        for c in range(n_children):
            a, b = (population[row[np.argmax(returns[row])]] for row in contenders[c])
            child = [b[k] if cross[c] and gene_mask[c, k] else a[k] for k in range(horizon)]
            children.append([fresh[c, k] if mutate[c, k] else child[k] for k in range(horizon)])
        if config.immigrants > 0:
            children[-config.immigrants:] = rng.integers(n_actions,
                                                         size=(config.immigrants, horizon))
        population = np.array([best[2]] + children)
        returns = score(population)
        best = _loop_best(population, returns, grid, best)
    return best[0], tuple(int(a) for a in best[2])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), horizon=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       tournament_size=st.integers(1, 4), crossover_rate=st.floats(0.0, 1.0),
       mutation_rate=st.floats(0.0, 0.5), immigrants=st.integers(0, 3), warm=st.booleans())
def test_ga_matches_loop_reference(data, horizon, seed, tournament_size, crossover_rate,
                                   mutation_rate, immigrants, warm):
    table = data.draw(st.lists(st.lists(st.floats(15.0, 27.0), min_size=3, max_size=3),
                               min_size=horizon, max_size=horizon))
    prices = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]),
                                min_size=horizon, max_size=horizon))
    seed_sequence = (tuple(data.draw(st.lists(st.integers(0, 5), min_size=horizon,
                                              max_size=horizon))) if warm else None)
    config = GaConfig(population=12, generations=4, tournament_size=tournament_size,
                      crossover_rate=crossover_rate, mutation_rate=mutation_rate,
                      immigrants=immigrants)
    model, obs, ambient = IndexSumModel(table), encode_state((21.0,) * 4, 5.0, 3), [5.0] * horizon
    plan = plan_ga(model, obs, horizon, GRID, prices, ambient, BAND, config,
                   np.random.default_rng(seed), seed_sequence)
    value, actions = _loop_ga(model, obs, horizon, GRID, prices, ambient, config,
                              np.random.default_rng(seed), seed_sequence)
    assert plan.actions == actions
    assert plan.expected_return == value


@pytest.mark.parametrize("planner, calls", [("exhaustive", 1), ("cem", CemConfig().iterations),
                                            ("ga", GaConfig().generations + 1)])
def test_each_population_is_scored_in_one_call(monkeypatch, planner, calls):
    """One `evaluate_sequences` call per population, each on a (population,
    horizon) power matrix: the count perfbench reports for the planners."""
    shapes = []

    def recording(model, start, powers, *rest):
        shapes.append(powers.shape)
        return evaluate_sequences(model, start, powers, *rest)

    monkeypatch.setattr(planners, "evaluate_sequences", recording)
    model, obs = _exact(20.0, 20.0, 5.0)
    _plan(planner, model, obs, GRID, [0.2] * 3, [5.0] * 3)
    population = {"exhaustive": len(GRID) ** 3, "cem": CemConfig().population,
                  "ga": GaConfig().population}[planner]
    assert shapes == [(population, 3)] * calls
