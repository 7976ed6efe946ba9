import numpy as np
import pytest

from heatbench.emulator import BuildingParams, BuildingState, step
from heatbench.mdp import ActionGrid, ComfortBand, ObservedState, comfort_reward
from heatbench.planners import (CemConfig, ExactDynamicsModel, GaConfig,
                                evaluate_sequences, plan_cem, plan_exhaustive, plan_ga)

PARAMS = BuildingParams()
GRID = ActionGrid()
BAND = ComfortBand(19.0, 23.0)


class ConstantModel:
    """Temperature never moves; isolates the reward arithmetic."""

    def __init__(self, t_i=21.0):
        self.t_i = t_i

    def rollout_temps(self, start, actions, ambient_window):
        return np.full((len(actions), np.asarray(actions).shape[1]), self.t_i)


def _exact(t_i, t_m, ambient):
    state = BuildingState(t_i, t_m, 0)
    return ExactDynamicsModel(PARAMS, state, GRID), ObservedState((t_i,) * 4, ambient)


def _random_instance(seed, horizon):
    rng = np.random.default_rng(seed)
    t_i = rng.uniform(16.0, 24.0)
    t_m = rng.uniform(16.0, 24.0)
    ambient = rng.uniform(-5.0, 12.0, size=horizon)
    prices = rng.uniform(0.1, 0.4, size=horizon)
    model = ExactDynamicsModel(PARAMS, BuildingState(t_i, t_m, 0), GRID)
    return model, ObservedState((t_i,) * 4, ambient[0]), prices, ambient


def _rollout_return(model, obs, actions, prices, ambient):
    """Return of one action sequence: a one-row batch through the planners' path."""
    return float(evaluate_sequences(model, obs, np.array([actions]), GRID,
                                    prices, ambient, BAND)[0])


def test_rollout_return_zero_when_idle_inside_band():
    model = ConstantModel(21.0)
    obs = ObservedState((21.0,) * 4, 5.0)
    assert _rollout_return(model, obs, [0], [0.05], [5.0]) == 0.0


def test_rollout_return_consumption_only():
    model = ConstantModel(21.0)
    obs = ObservedState((21.0,) * 4, 5.0)
    ret = _rollout_return(model, obs, [5], [0.05], [5.0])
    assert ret == pytest.approx(-0.10)


def test_rollout_return_additive_over_steps():
    model, obs = _exact(20.0, 20.0, 5.0)
    actions = [3, 1]
    total = _rollout_return(model, obs, actions, [0.2, 0.3], [5.0, 4.0])

    first = _rollout_return(model, obs, actions[:1], [0.2], [5.0])
    mid, _ = step(BuildingState(20.0, 20.0, 0), PARAMS, 5.0, GRID.levels_w[3])
    model2 = ExactDynamicsModel(PARAMS, mid, GRID)
    obs2 = ObservedState((mid.indoor_temp,) * 4, 4.0)
    second = _rollout_return(model2, obs2, actions[1:], [0.3], [4.0])
    assert total == pytest.approx(first + second, abs=1e-9)


def test_rollout_return_rejects_short_windows():
    model = ConstantModel()
    obs = ObservedState((21.0,) * 4, 5.0)
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

    model = ExactDynamicsModel(PARAMS, state, GRID)
    obs = ObservedState((19.5,) * 4, ambient[0])
    planned = _rollout_return(model, obs, actions, prices, ambient)
    assert planned == pytest.approx(realized, abs=1e-9)


def test_exhaustive_single_action_grid():
    grid1 = ActionGrid((0.0,))
    model = ConstantModel()
    obs = ObservedState((21.0,) * 4, 5.0)
    plan = plan_exhaustive(model, obs, 3, grid1, [0.2] * 3, [5.0] * 3, BAND)
    assert plan.actions == (0, 0, 0)


def test_exhaustive_tie_breaks_toward_lower_energy():
    # zero prices and a frozen temperature: every sequence returns 0
    model = ConstantModel(21.0)
    obs = ObservedState((21.0,) * 4, 5.0)
    plan = plan_exhaustive(model, obs, 2, GRID, [0.0, 0.0], [5.0, 5.0], BAND)
    assert plan.expected_return == 0.0
    assert plan.actions == (0, 0)


def test_exhaustive_cap():
    model = ConstantModel()
    obs = ObservedState((21.0,) * 4, 5.0)
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
    obs = ObservedState((21.0,) * 4, 5.0)
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
    obs = ObservedState((21.0,) * 4, 5.0)
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

    def rollout_temps(self, start, actions, ambient_window):
        temps = super().rollout_temps(start, actions, ambient_window)
        temps[np.asarray(actions)[:, 0] == 0, -1] = np.nan
        return temps


def test_planners_never_return_a_nan_trajectory():
    model = NanWhenFirstIdleModel()
    obs = ObservedState((21.0,) * 4, 5.0)
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
    temps = model.rollout_temps(obs, actions, ambient)
    for row, seq in enumerate(actions):
        s = BuildingState(19.0, 20.0, 0)
        for k, a in enumerate(seq):
            s, _ = step(s, PARAMS, ambient[k], GRID.levels_w[a])
            assert temps[row, k] == pytest.approx(s.indoor_temp, abs=1e-9)
