import numpy as np
import pytest
from scipy import stats

from heatbench import model_based, planners
from heatbench.emulator import BuildingParams, BuildingState
from heatbench.mdp import ActionGrid, ComfortBand, encode_state
from heatbench.harness import Scenario
from heatbench.model_based import (LearnedDynamicsModel, MbrlConfig, ModelBasedAgent,
                                   SampleMemory, TransitionModel, exploration_rate,
                                   train_transition_model, training_matrix)
from heatbench.model_free import MfrlConfig
from heatbench.neural import MlpParams, forward_batch
from heatbench.planners import CemConfig, ExactDynamicsModel, GaConfig, plan_cem

GRID = ActionGrid()
BAND = ComfortBand(19.0, 23.0)


def _transition(t=20.0, a=0, t_next=None, ambient=5.0):
    """(obs, action, reward, next obs) of one hour at the given ambient in degC."""
    s = encode_state((t,) * 4, ambient, 3)
    s2 = encode_state((t_next if t_next is not None else t,) + (t,) * 3, ambient, 3)
    return s, a, -0.05, s2


def _add(mem, s, a, r, s2):
    """File one transition, given as observation vectors, in the memory."""
    mem.add(s, a, r, s2)


def test_memory_fifo_eviction():
    mem = SampleMemory(capacity=3)
    transitions = [_transition(t=20.0 + i) for i in range(4)]
    for transition in transitions:
        _add(mem, *transition)
    assert len(mem) == 3
    # oldest evicted first; rows come back oldest-first after the ring wraps
    assert mem.rows(mem.s).tolist() == [list(s) for s, *_ in transitions[1:]]
    assert mem.rows(mem.s_next).tolist() == [list(s2)
                                             for *_, s2 in transitions[1:]]


def test_training_matrix_of_wrapped_memory_matches_per_sample_build():
    rng = np.random.default_rng(4)
    mem = SampleMemory(capacity=5)
    transitions = []
    for _ in range(12):
        t = float(rng.uniform(17.0, 24.0))
        transitions.append(_transition(t=t, a=int(rng.integers(6)),
                                       t_next=t + rng.uniform(-1, 1)))
        _add(mem, *transitions[-1])
    x, y = training_matrix(mem, GRID)
    kept = transitions[-5:]
    x_ref = np.stack([np.append(s, GRID.levels_w[a]) for s, a, _, _ in kept])
    y_ref = np.array([s2[0] for *_, s2 in kept])
    assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)


def test_memory_rejects_zero_capacity():
    with pytest.raises(ValueError):
        SampleMemory(0)


def test_config_rejects_capacity_below_min_train_samples():
    with pytest.raises(ValueError, match="memory_capacity"):
        MbrlConfig(memory_capacity=10, min_train_samples=24)
    MbrlConfig(memory_capacity=24, min_train_samples=24)


def test_config_rejects_non_positive_or_non_finite_learning_rate():
    for rate in (float("nan"), -1e-3, 0.0, float("inf"), 1.5, 1e300):
        with pytest.raises(ValueError, match=r"learning_rate must be in \(0, 1\]"):
            MbrlConfig(learning_rate=rate)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", -1), ("epochs_per_update", 0), ("epochs_per_update", -1),
])
def test_config_rejects_non_positive_batch_size_and_epochs(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        MbrlConfig(**{field: value})


@pytest.mark.parametrize("hidden", [(0,), (32, -1)])
def test_config_rejects_hidden_layers_below_one_unit(hidden):
    with pytest.raises(ValueError, match=r"hidden must be in \[1, 1024\]"):
        MbrlConfig(hidden=hidden)


@pytest.mark.parametrize("cfg", [MbrlConfig(), MfrlConfig()], ids=["mbrl", "mfrl"])
def test_exploration_rate_values(cfg):
    # before the first daily update and after it, the rate is that of day 1
    assert exploration_rate(cfg, 0) == exploration_rate(cfg, 1) == 0.5
    assert exploration_rate(cfg, 2) == pytest.approx(0.5 / 2 ** 0.7)
    assert exploration_rate(cfg, 2) < 0.5


def test_exploration_rate_monotone_and_positive():
    values = [exploration_rate(MbrlConfig(), day) for day in range(1, 201)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.0


def test_exploration_rate_overflows_where_validate_expects():
    cfg = MbrlConfig(epsilon_exponent=2000.0)
    assert exploration_rate(cfg, 1) == cfg.epsilon_initial
    with pytest.raises(OverflowError):
        exploration_rate(cfg, 2)
    # three days after a 24 h warm-up hold two controlled day starts
    with pytest.raises(ValueError, match="overflows by day 2"):
        Scenario(days=3, agent="mbrl", mbrl=cfg)
    Scenario(days=2, agent="mbrl", mbrl=cfg)


def test_train_skips_on_insufficient_samples():
    cfg = MbrlConfig()
    mem = SampleMemory(64)
    model = TransitionModel.create(6, cfg, seed=0)
    same, mae = train_transition_model(mem, model, GRID, cfg, np.random.default_rng(0))
    assert mae is None
    assert same is model


def test_train_learns_constant_trajectory():
    cfg = MbrlConfig()
    mem = SampleMemory(128)
    for _ in range(48):
        _add(mem, *_transition(t=20.0))
    model = TransitionModel.create(6, cfg, seed=0)
    model, mae = train_transition_model(mem, model, GRID, cfg, np.random.default_rng(0))
    assert mae is not None and mae < 0.05


def test_untrained_model_predicts_room_scale_constant():
    model = TransitionModel.create(6, MbrlConfig(), seed=0)
    learned = LearnedDynamicsModel(model)
    obs = encode_state((20.0,) * 4, 5.0, 3)
    temps = learned.rollout_temps(obs, np.array([[0.0, 2000.0, 800.0]]), np.full(3, 5.0))
    assert np.all((15.0 < temps) & (temps < 27.0))


def test_learned_batch_rollout_matches_per_step():
    cfg = MbrlConfig()
    mem = SampleMemory(128)
    rng = np.random.default_rng(0)
    for _ in range(64):
        # a varied ambient keeps that feature's scale from collapsing to the
        # 1e-6 floor, which would saturate the network and hide the window
        t = rng.uniform(17.0, 24.0)
        _add(mem, *_transition(t=t, a=int(rng.integers(6)), t_next=t + rng.uniform(-1, 1),
                               ambient=rng.uniform(-5.0, 15.0)))
    model = TransitionModel.create(6, cfg, seed=0)
    model, _ = train_transition_model(mem, model, GRID, cfg, rng)
    learned = LearnedDynamicsModel(model)

    obs = encode_state((20.0, 20.2, 20.4, 20.6), 5.0, 3)
    actions = np.array([[1, 5, 0]])
    ambient = np.array([5.0, 4.0, 3.0])
    temps = learned.rollout_temps(obs, np.asarray(GRID.levels_w)[actions], ambient)
    history = tuple(obs[:-1].tolist())
    for k, a in enumerate(actions[0]):
        features = np.array(history + (ambient[k], GRID.levels_w[a]))
        # per-hour predictions of the folded network that the rollout runs on
        t_next = float(forward_batch(learned.mlp, features[None, :])[0, 0])
        assert temps[0, k] == pytest.approx(t_next, abs=1e-9)
        history = (t_next,) + history[:-1]



def _column_stack_rollout(predict, start, actions, ambient_window):
    """Reference rollout that rebuilds the feature matrix every hour and
    predicts each hour's temperatures from it with `predict`."""
    n_seq, horizon = actions.shape
    levels = np.asarray(GRID.levels_w)
    hist = np.tile(start[:-1], (n_seq, 1))
    out = np.empty((n_seq, horizon))
    for k in range(horizon):
        features = np.column_stack([hist, np.full(n_seq, ambient_window[k]),
                                    levels[actions[:, k]]])
        t_next = predict(features)
        out[:, k] = t_next
        hist = np.column_stack([t_next, hist[:, :-1]])
    return out


def _trained_model(history_length, rng, ambient=None):
    """A model trained on random transitions, at one fixed ambient if `ambient` is set."""
    cfg = MbrlConfig()
    n = history_length + 1
    mem = SampleMemory(128)
    for _ in range(64):
        t = rng.uniform(17.0, 24.0, size=n + 1)
        a_c = rng.uniform(-5.0, 10.0) if ambient is None else ambient
        mem.add(np.append(t[1:], a_c), int(rng.integers(6)), -0.05, np.append(t[:-1], a_c))
    model = TransitionModel.create(n + 2, cfg, seed=1)
    return train_transition_model(mem, model, GRID, cfg, rng)[0]


def _float64(model):
    """The same weights and scaling, evaluated unfolded in float64."""
    return TransitionModel(MlpParams(model.mlp.spec, model.mlp.theta.astype(float)),
                           model.in_norm, model.out_shift, model.out_scale)


@pytest.mark.parametrize("history_length", [0, 1, 3])
def test_learned_rollout_equals_column_stack_reference(history_length):
    rng = np.random.default_rng(history_length)
    model = _trained_model(history_length, rng)

    obs = encode_state(rng.uniform(18.0, 22.0, size=history_length + 1), 4.0, history_length)
    actions = rng.integers(len(GRID), size=(16, 24))
    ambient = rng.uniform(-5.0, 10.0, size=24)
    learned = LearnedDynamicsModel(model)
    temps = learned.rollout_temps(obs, np.asarray(GRID.levels_w)[actions], ambient)
    # the reference predicts with the folded network that the rollout runs on
    reference = _column_stack_rollout(lambda x: forward_batch(learned.mlp, x)[:, 0], obs,
                                      actions, ambient)
    assert np.array_equal(temps, reference)


@pytest.mark.parametrize("history_length, fixed_ambient", [(0, None), (1, None), (3, None),
                                                           (3, 5.0)])
def test_float32_planning_rollout_stays_within_1e4_of_the_float64_model(history_length,
                                                                         fixed_ambient):
    """The folded float32 network's 24 h rollouts stay within 1e-4 degC of the
    same weights evaluated unfolded in float64; over 20 trained models per
    history length in 0, 1, 3, 6 and 12, the largest gap measured was 1.7e-5.

    With `fixed_ambient`, the ambient feature is fitted at the 1e-6 scale
    floor, so |shift| / scale is 5e6: the folded network stays float64, and
    there the gap measured 6e-10."""
    rng = np.random.default_rng(10 + history_length)
    model = _trained_model(history_length, rng, fixed_ambient)
    if fixed_ambient is not None:
        assert model.in_norm.scale[history_length + 1] == 1e-6

    obs = encode_state(rng.uniform(18.0, 22.0, size=history_length + 1),
                       fixed_ambient or 4.0, history_length)
    actions = rng.integers(len(GRID), size=(64, 24))
    ambient = (rng.uniform(-5.0, 10.0, size=24) if fixed_ambient is None
               else np.full(24, fixed_ambient))
    learned = LearnedDynamicsModel(model)
    assert learned.mlp.theta.dtype == (np.float32 if fixed_ambient is None else np.float64)
    temps = learned.rollout_temps(obs, np.asarray(GRID.levels_w)[actions], ambient)
    exact = _column_stack_rollout(_float64(model).predict_batch, obs, actions, ambient)
    assert exact.dtype == np.float64
    assert np.max(np.abs(temps - exact)) < 1e-4


def test_transition_model_trains_and_plans_in_float32():
    model = TransitionModel.create(6, MbrlConfig(), seed=0)
    assert model.mlp.theta.dtype == np.float32
    assert LearnedDynamicsModel(model).mlp.theta.dtype == np.float32  # untrained: no in_norm
    model = _trained_model(3, np.random.default_rng(0))
    x = np.array([[20.0, 20.5, 21.0, 21.5, 4.0, 800.0]])
    assert model.mlp.theta.dtype == np.float32 and model.predict_batch(x).dtype == np.float32
    assert LearnedDynamicsModel(model).mlp.theta.dtype == np.float32
    mem = SampleMemory(64)
    for t in np.linspace(18.0, 23.0, 30):
        _add(mem, *_transition(t=t, a=int(t) % 6, ambient=t - 15.0))
    model, mae = train_transition_model(mem, model, GRID, MbrlConfig(), np.random.default_rng(1))
    assert type(mae) is float and model.mlp.theta.dtype == np.float32


def _agent(seed=0, **overrides):
    cfg = MbrlConfig(**overrides)
    return ModelBasedAgent(cfg, GRID, np.random.default_rng(seed), seed=seed,
                           history_length=3, cem=CemConfig(), ga=GaConfig())


def _act(agent, t):
    """The agent's action at hour t; MB-RL reads only the hour."""
    return agent.act(t, None, None, None, None, None)


def test_act_uniform_when_forced_to_explore():
    agent = _agent(epsilon_initial=1.0)
    draws = np.array([_act(agent, 0) for _ in range(10_000)])
    counts = np.bincount(draws, minlength=len(GRID))
    chi2 = ((counts - len(draws) / 6) ** 2 / (len(draws) / 6)).sum()
    assert stats.chi2.sf(chi2, df=5) > 0.01


def test_act_follows_plan_when_greedy():
    agent = _agent(epsilon_initial=1e-9)
    agent._plan = tuple(range(6)) + (0,) * 18
    for hour in range(6):
        assert _act(agent, hour) == hour


def test_daily_update_deterministic():
    obs = encode_state((20.0,) * 4, 5.0, 3)
    tariff = np.full(24, 0.24)
    ambient = np.full(24, 5.0)
    plans = []
    for _ in range(2):
        agent = _agent(seed=3)
        rng = np.random.default_rng(9)
        for _ in range(48):
            agent.observe(*_transition(t=float(rng.uniform(18, 23)),
                                       a=int(rng.integers(6))))
        agent.daily_update(obs, tariff, ambient, BAND)
        plans.append(agent._plan)
    assert plans[0] == plans[1]


def test_daily_update_advances_epsilon_after_first_day():
    agent = _agent()
    obs = encode_state((20.0,) * 4, 5.0, 3)
    tariff = np.full(24, 0.24)
    ambient = np.full(24, 5.0)
    assert agent.day == 0
    agent.daily_update(obs, tariff, ambient, BAND)
    assert agent.day == 1  # first planning day keeps the day-1 rate
    assert exploration_rate(agent.cfg, agent.day) == 0.5
    agent.daily_update(obs, tariff, ambient, BAND)
    assert agent.day == 2
    assert exploration_rate(agent.cfg, agent.day) < 0.5


def test_exact_model_injection_reduces_to_mpc_plan(monkeypatch):
    params = BuildingParams()
    state = BuildingState(19.5, 20.5, 0)
    exact = ExactDynamicsModel(params, state)
    monkeypatch.setattr(model_based, "LearnedDynamicsModel", lambda model: exact)
    plans = []  # what the agent's one call of the planner returns
    monkeypatch.setattr(model_based, "plan",
                        lambda *args: plans.append(planners.plan(*args)) or plans[-1])
    agent = ModelBasedAgent(MbrlConfig(), GRID, np.random.default_rng(123),
                            seed=0, history_length=3, cem=CemConfig(), ga=GaConfig())
    obs = encode_state((19.5,) * 4, 2.0, 3)
    tariff = np.full(24, 0.24)
    ambient = np.linspace(2.0, 4.0, 24)

    agent.daily_update(obs, tariff, ambient, BAND)  # an empty memory: no training
    [plan_agent] = plans
    plan_mpc = plan_cem(ExactDynamicsModel(params, state), obs, 24, GRID,
                        tariff, ambient, BAND, CemConfig(),
                        np.random.default_rng(123))
    assert agent._plan == plan_agent.actions == plan_mpc.actions
    assert plan_agent.expected_return == pytest.approx(plan_mpc.expected_return)


def test_observe_fills_memory():
    agent = _agent()
    for i in range(5):
        agent.observe(*_transition(t=20.0 + i))
    assert len(agent.memory) == 5
