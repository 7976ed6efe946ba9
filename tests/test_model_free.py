import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from heatbench import model_free
from heatbench.harness import Scenario, build_traces, simulate
from heatbench.mdp import ActionGrid, encode_state
from heatbench.model_based import exploration_rate
from heatbench.model_free import (MfrlConfig, ModelFreeAgent, PrioritizedReplay,
                                  QPair, compute_priority, q_target, replay_sample,
                                  soft_update)
from heatbench.neural import (AdamOptimizer, MlpParams, MlpSpec, forward, forward_batch,
                              train_minibatch)

GRID = ActionGrid()


def _bias_net(biases, n_inputs=1):
    """Network whose output is a constant vector regardless of input."""
    spec = MlpSpec((n_inputs, len(biases)))
    params = MlpParams.init(spec)
    params.weights[0][...] = 0.0
    params.biases[0][...] = np.asarray(biases, dtype=float)
    return params


S0, S1 = encode_state((0.0,), 0.0, 0), encode_state((1.0,), 0.0, 0)


def _add(mem, priority, a=0, r=-1.0):
    """File the transition S0 -a-> S1 with reward r."""
    return mem.add(S0, a, r, S1, priority)


def _target(pair, r):
    """q_target of the one transition into S1 with reward r (unnormalised)."""
    return q_target(S1[None, :], np.array([r]), pair)[0]


def test_q_target_gamma_zero_is_reward():
    pair = QPair(_bias_net([3.0, 7.0], 2), _bias_net([9.0, 2.0], 2), gamma=0.0)
    assert _target(pair, -1.0) == pytest.approx(-1.0)


def test_q_target_double_q_selection():
    # online prefers action 1, the target values it at 0: the double-Q
    # target is 0 where a plain max over the target net would give 9
    online = _bias_net([1.0, 2.0], 2)
    target = _bias_net([10.0, 0.0], 2)
    pair = QPair(online, target, gamma=0.9)
    x_next, rewards = S1[None, :], np.array([0.0])
    plain_max = rewards + pair.gamma * forward_batch(pair.target, x_next).max(axis=1)
    assert _target(pair, 0.0) == pytest.approx(0.0)
    assert plain_max[0] == pytest.approx(9.0)


@settings(max_examples=50)
@given(q_on=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       q_tg=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       r=st.floats(-5, 0))
def test_double_q_never_exceeds_plain_max(q_on, q_tg, r):
    pair = QPair(_bias_net(q_on, 2), _bias_net(q_tg, 2), gamma=0.9)
    double = _target(pair, r)
    plain = r + 0.9 * max(q_tg)
    assert double <= plain + 1e-12


def test_compute_priority():
    assert compute_priority(1.0, 0.5, 0.001) == pytest.approx(0.501)
    assert compute_priority(0.7, 0.7, 0.001) == pytest.approx(0.001)
    assert compute_priority(1.0, 0.5, 0.001) == compute_priority(0.5, 1.0, 0.001)
    batch = compute_priority(np.array([1.0, 0.7]), np.array([0.5, 0.7]), 0.001)
    assert batch.tolist() == [compute_priority(1.0, 0.5, 0.001), 0.001]
    with pytest.raises(ValueError):
        compute_priority(1.0, 0.5, 0.0)


def test_replay_proportional_sampling_chi_square():
    mem = PrioritizedReplay(capacity=8, alpha=1.0)
    _add(mem, 3.0, a=0)
    _add(mem, 1.0, a=1)
    rng = np.random.default_rng(0)
    counts = np.zeros(2)
    for _ in range(10_000):
        idx = replay_sample(mem, 1, rng)
        counts[idx[0]] += 1
    expected = np.array([7500.0, 2500.0])
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, df=1) > 0.01


def test_replay_alpha_zero_is_uniform():
    mem = PrioritizedReplay(capacity=8, alpha=0.0)
    _add(mem, 100.0, a=0)
    _add(mem, 0.01, a=1)
    probs = mem.probabilities()
    assert probs == pytest.approx([0.5, 0.5])


def test_replay_equal_priorities_is_uniform():
    mem = PrioritizedReplay(capacity=8, alpha=0.6)
    for i in range(4):
        _add(mem, 2.5, a=i % 2)
    assert mem.probabilities() == pytest.approx([0.25] * 4)


def test_replay_full_batch_is_permutation():
    mem = PrioritizedReplay(capacity=8, alpha=0.6)
    for i in range(5):
        _add(mem, float(i + 1), a=i % 2)
    idx = replay_sample(mem, 5, np.random.default_rng(1))
    assert sorted(idx) == list(range(5))


def test_replay_undersized_memory_rejected():
    mem = PrioritizedReplay(capacity=8)
    _add(mem, 1.0)
    with pytest.raises(ValueError):
        replay_sample(mem, 2, np.random.default_rng(0))


def test_replay_ring_eviction_and_priority_floor():
    mem = PrioritizedReplay(capacity=2, alpha=0.6)
    for i in range(5):
        _add(mem, compute_priority(0.0, 0.0, 1e-3), a=i % 2)
    assert len(mem) == 2
    assert mem.rows(mem.a).tolist() == [1, 0]  # samples 3 and 4, oldest first
    assert all(mem.weights[:2] >= np.asarray(1e-3) ** 0.6)
    with pytest.raises(ValueError):
        _add(mem, 0.0)


def _filled(priorities, alpha):
    mem = PrioritizedReplay(capacity=len(priorities), alpha=alpha)
    for p in priorities:
        _add(mem, p)
    return mem


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4096), batch_share=st.floats(0.0, 1.0),
       kind=st.sampled_from(["equal", "floor", "spread"]),
       alpha=st.sampled_from([0.0, 0.6, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_replay_sample_is_numpys_weighted_draw_bit_for_bit(n, batch_share, kind, alpha, seed):
    batch = max(1, round(batch_share * n))
    data = np.random.default_rng(seed)
    if kind == "equal":
        priorities = np.full(n, 2.5)
    elif kind == "floor":  # most TD errors zero: the priority_offset floor
        td = np.where(data.random(n) < 0.8, 0.0, data.exponential(size=n))
        priorities = compute_priority(td, 0.0, 1e-3)
    else:
        priorities = 10.0 ** data.uniform(0.0, 6.0, size=n)
    mem = _filled(priorities, alpha)
    mine, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    idx = replay_sample(mem, batch, mine)
    expected = numpys.choice(n, size=batch, replace=False, p=mem.probabilities())
    assert idx.dtype == expected.dtype
    assert np.array_equal(idx, expected)
    assert mine.bit_generator.state == numpys.bit_generator.state


def test_replay_weights_follow_priority_writes():
    mem = _filled([1.0, 3.0, 0.25], alpha=0.6)
    mem.update_priorities(np.array([2, 0]), np.array([5.0, 0.5]))
    _add(mem, 7.0)  # evicts slot 0
    priorities = np.array([7.0, 3.0, 5.0])
    assert np.array_equal(mem.probabilities(),
                          priorities ** 0.6 / (priorities ** 0.6).sum())


def test_replay_sample_raises_when_too_few_slots_can_be_drawn():
    # the small slot's probability underflows to 0: numpy's choice rejects
    # this, and the draw must not loop for ever looking for a second slot
    mem = _filled([1e300, 1e-300], alpha=1.0)
    assert mem.probabilities().tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="weight > 0"):
        replay_sample(mem, 2, np.random.default_rng(0))


def test_replay_rejects_non_finite_alpha_and_priorities():
    for alpha in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            PrioritizedReplay(8, alpha=alpha)
        with pytest.raises(ValueError, match=r"priority_alpha must be in \[0, 1\]"):
            MfrlConfig(priority_alpha=alpha)
    mem = _filled([1.0, 2.0], alpha=0.6)
    for bad in (float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="priority must be finite and > 0"):
            _add(mem, bad)
        with pytest.raises(ValueError, match="priority must be finite and > 0"):
            mem.update_priorities(np.array([0, 1]), np.array([1.0, bad]))
    assert len(mem) == 2
    assert np.array_equal(mem.weights, _filled([1.0, 2.0], alpha=0.6).weights)


def test_config_rejects_non_positive_or_non_finite_learning_rate():
    for rate in (float("nan"), -1e-3, 0.0, float("inf"), 1.5, 1e300):
        with pytest.raises(ValueError, match=r"learning_rate must be in \(0, 1\]"):
            MfrlConfig(learning_rate=rate)


def test_soft_update_tau_one_copies():
    pair = QPair(_bias_net([1.0, 2.0], 2), _bias_net([5.0, 6.0], 2), tau=1.0)
    soft_update(pair)
    assert np.array_equal(pair.target.theta, pair.online.theta)


def test_soft_update_tau_zero_is_identity():
    pair = QPair(_bias_net([1.0, 2.0], 2), _bias_net([5.0, 6.0], 2), tau=0.5)
    pair.tau = 0.0  # boundary value, disallowed by the constructor
    before = pair.target.theta.copy()
    soft_update(pair)
    assert np.array_equal(pair.target.theta, before)
    with pytest.raises(ValueError):
        QPair(_bias_net([1.0], 1), _bias_net([1.0], 1), tau=0.0)


def test_soft_update_fixed_point_when_equal():
    pair = QPair(_bias_net([1.0, 2.0], 2), _bias_net([1.0, 2.0], 2), tau=0.3)
    soft_update(pair)
    assert np.array_equal(pair.target.theta, pair.online.theta)


def test_soft_update_gap_shrinks_by_one_minus_tau():
    pair = QPair.create(MlpSpec((2, 8, 2), init_seed=0), tau=0.25)
    pair.online.biases[-1][...] = 4.0  # open a gap while online stays fixed
    gap0 = np.linalg.norm(pair.online.theta - pair.target.theta)
    soft_update(pair)
    gap1 = np.linalg.norm(pair.online.theta - pair.target.theta)
    assert gap1 == pytest.approx(0.75 * gap0)


def _per_tensor(vec, sizes):
    """Per-layer copies of a parameter-layout vector: the weights, then the biases."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(vec[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out).copy())
        pos += fan_in * fan_out
        biases.append(vec[pos:pos + fan_out].copy())
        pos += fan_out
    return weights + biases


class _PerTensorAdam:
    """Reference: Adam as one loop over the per-layer tensors."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.m = self.v = None
        self.t = 0

    def step(self, tensors, grads):
        if self.m is None:
            self.m = [np.zeros_like(g) for g in grads]
            self.v = [np.zeros_like(g) for g in grads]
        self.t += 1
        lr_t = self.lr * (np.sqrt(1.0 - self.beta2 ** self.t) / (1.0 - self.beta1 ** self.t))
        for tensor, g, m, v in zip(tensors, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            tensor -= lr_t * m / (np.sqrt(v) + self.eps)


def test_flat_adam_and_soft_update_match_per_tensor_loops():
    spec = MlpSpec((5, 16, 16, 6), "relu", init_seed=3)
    sizes = spec.layer_sizes
    pair = QPair.create(spec, tau=0.1)
    grads = []

    class RecordingAdam(AdamOptimizer):
        def step(self, params, grad):
            grads.append(grad.copy())
            super().step(params, grad)

    optimizer, reference = RecordingAdam(0.01), _PerTensorAdam(0.01)
    online, target = _per_tensor(pair.online.theta, sizes), _per_tensor(pair.target.theta, sizes)
    rng = np.random.default_rng(0)
    for _ in range(25):
        train_minibatch(pair.online, rng.normal(size=(8, 5)), rng.normal(size=(8, 6)),
                        optimizer)
        soft_update(pair)
        reference.step(online, _per_tensor(grads[-1], sizes))
        for t_tensor, o_tensor in zip(target, online):
            t_tensor *= 1.0 - pair.tau
            t_tensor += pair.tau * o_tensor
    for flat, tensors in ((pair.online, online), (pair.target, target)):
        for mine, ref in zip(_per_tensor(flat.theta, sizes), tensors):
            assert np.array_equal(mine, ref)
    assert not np.array_equal(pair.online.theta, pair.target.theta)


def _agent(seed=0, **overrides):
    defaults = dict(warmup_samples=4, batch_size=4, capacity=64)
    defaults.update(overrides)
    return ModelFreeAgent(MfrlConfig(**defaults), GRID,
                          np.random.default_rng(seed), seed=seed, history_length=0)


def _act(agent, obs, t=0):
    """The agent's action at hour t; MF-RL reads only the hour and the observation."""
    return agent.act(t, None, obs, None, None, None)


def _warm_agent(**overrides):
    """Agent past warm-up: normalizer fitted, replay filled with raw rows.

    A tiny `epsilon_initial` makes its choices greedy; 1.0 makes them random."""
    agent = _agent(**overrides)
    states = [encode_state((float(i),), 0.5 * i, 0) for i in range(6)]
    for i in range(5):
        agent.observe(states[i], i % 2, -float(i), states[i + 1])
    assert agent.normalizer is not None
    return agent


def _greedy_agent():
    return _warm_agent(epsilon_initial=1e-9)


def test_act_argmax_and_tie_break():
    agent = _greedy_agent()
    agent.pair.online = _bias_net([0.0, 1.0, 5.0, 2.0, 2.0, 1.0], 2)
    agent.pair.target = _bias_net([0.0, 1.0, 5.0, 2.0, 2.0, 1.0], 2)
    obs = encode_state((20.0,), 5.0, 0)
    assert _act(agent, obs) == 2

    agent.pair.online = _bias_net([1.0] * 6, 2)
    assert _act(agent, obs) == 0  # ties resolve to lowest power


def test_act_greedy_invariant_under_constant_shift():
    agent = _greedy_agent()
    obs = encode_state((20.0,), 5.0, 0)
    agent.pair.online = _bias_net([0.0, 1.0, 5.0, 2.0, 2.0, 1.0], 2)
    base = _act(agent, obs)
    agent.pair.online = _bias_net([7.0, 8.0, 12.0, 9.0, 9.0, 8.0], 2)
    assert _act(agent, obs) == base


def test_act_uniform_at_full_exploration():
    agent = _warm_agent(epsilon_initial=1.0)
    obs = encode_state((20.0,), 5.0, 0)
    draws = np.array([_act(agent, obs) for _ in range(10_000)])
    counts = np.bincount(draws, minlength=6)
    chi2 = ((counts - len(draws) / 6) ** 2 / (len(draws) / 6)).sum()
    assert stats.chi2.sf(chi2, df=5) > 0.01


def test_config_rejects_non_positive_priority_offset():
    for offset in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="priority_offset"):
            MfrlConfig(priority_offset=offset)


def test_config_rejects_non_positive_batch_size():
    for size in (0, -1):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            MfrlConfig(batch_size=size)


@pytest.mark.parametrize("hidden", [(0,), (64, -1)])
def test_config_rejects_hidden_layers_below_one_unit(hidden):
    with pytest.raises(ValueError, match=r"hidden must be in \[1, 1024\]"):
        MfrlConfig(hidden=hidden)


def test_config_rejects_capacity_below_warmup():
    with pytest.raises(ValueError, match="capacity"):
        MfrlConfig(capacity=50, warmup_samples=96)
    MfrlConfig(capacity=96, warmup_samples=96)


def test_observe_stores_with_td_priority():
    agent = _agent()
    agent.observe(S0, 0, -2.0, S1)
    assert len(agent.replay) == 1
    assert agent.replay.weights[0] >= _weight(agent, agent.cfg.priority_offset)


def _weight(agent, priority):
    """The replay weight priority**alpha, with the replay's numpy power."""
    return np.asarray(priority, dtype=float) ** agent.cfg.priority_alpha


def _expected_weight(agent, obs, action, reward, obs_next):
    """The replay weight of a fresh forward on the current online network."""
    q_sa = forward(agent.pair.online, agent.normalizer.apply(obs))[action]
    target = q_target(agent.normalizer.apply(obs_next[None, :]),
                      np.array([reward]), agent.pair)[0]
    return _weight(agent, compute_priority(float(target), float(q_sa),
                                           agent.cfg.priority_offset))


def test_observe_after_act_scores_like_a_fresh_forward():
    agent = _greedy_agent()
    obs, obs_next = encode_state((2.5,), 1.0, 0), encode_state((3.0,), 1.5, 0)
    action = _act(agent, obs)
    agent.observe(obs, action, -1.0, obs_next)
    slot = len(agent.replay) - 1
    assert agent.replay.weights[slot] == _expected_weight(agent, obs, action, -1.0, obs_next)
    assert np.array_equal(agent.replay.s[slot], obs)
    assert np.array_equal(agent.replay.s_next[slot], obs_next)


@pytest.mark.parametrize("between", ["train_cycle", "daily_update", "other_obs",
                                     "in_place_edit"])
def test_observe_does_not_reuse_q_values_across_training(between, monkeypatch):
    agent = _greedy_agent()
    obs, obs_next = encode_state((2.5,), 1.0, 0), encode_state((3.0,), 1.5, 0)
    stale = forward(agent.pair.online, agent.normalizer.apply(obs))
    _act(agent, obs)
    if between == "train_cycle":
        assert agent.train_cycle()
    elif between == "daily_update":
        cycles = _cycle_results(monkeypatch, agent)
        agent.daily_update(obs, None, None, None)
        assert cycles == [True] * agent.cfg.train_cycles_per_update
    elif between == "other_obs":  # an equal but distinct observation
        obs = encode_state((2.5,), 1.0, 0)
        agent.pair.online.biases[-1][...] += 1.0
    else:  # the same observation, valued by a network changed in place since
        agent.pair.online.biases[-1][...] += 1.0
    agent.observe(obs, 3, -1.0, obs_next)
    slot = len(agent.replay) - 1
    assert agent.replay.weights[slot] == _expected_weight(agent, obs, 3, -1.0, obs_next)
    fresh = forward(agent.pair.online, agent.normalizer.apply(obs))
    assert fresh[3] != stale[3]


def _count_calls(monkeypatch, owner, name):
    """Count the calls of `owner.name`, which keeps working as before."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or original(*args))
    return calls


def test_act_encodes_and_values_its_observation_afresh(monkeypatch):
    agent = _greedy_agent()
    obs, obs_next = encode_state((2.5,), 1.0, 0), encode_state((3.0,), 1.5, 0)
    agent.observe(obs, 3, -1.0, obs_next)
    agent.pair.online.biases[-1][...] += 1.0  # changed in place, by no training cycle
    fresh = forward(agent.pair.online, agent.normalizer.apply(obs_next))
    forwards = _count_calls(monkeypatch, model_free, "forward")
    encodes = _count_calls(monkeypatch, agent, "encode")
    action = _act(agent, obs_next, t=7)
    assert (len(forwards), len(encodes)) == (1, 1)
    assert action == int(np.argmax(fresh))
    assert agent.q_trace[-1] == (7, tuple(float(v) for v in fresh), action)


def test_mfrl_run_encodes_and_values_each_use(monkeypatch):
    # seed 7, 20 flat days, 456 controlled hours: each act encodes and
    # forwards its observation, each observe encodes both of its own and
    # values its transition, and each useful training cycle encodes its batch
    # and its next states and values the batch for the priority write-back
    scenario = Scenario(days=20, agent="mfrl", seed=7)
    traces = build_traces(scenario)
    forwards = _count_calls(monkeypatch, model_free, "forward")
    encodes = _count_calls(monkeypatch, ModelFreeAgent, "encode")
    valuations = _count_calls(monkeypatch, model_free, "compute_priority")
    cycles = []
    cycle = ModelFreeAgent.train_cycle
    monkeypatch.setattr(ModelFreeAgent, "train_cycle",
                        lambda self: cycles.append(cycle(self)) or cycles[-1])
    simulate(scenario, "mfrl", *traces)
    assert sum(cycles) == 15 * scenario.mfrl.train_cycles_per_update
    assert (len(forwards), len(encodes)) == (456, 3 * 456 + 2 * sum(cycles))
    assert len(valuations) == 456 + sum(cycles)


def test_act_after_the_normalizer_fit_encodes_afresh():
    agent = _agent()
    states = [encode_state((float(i),), 0.5 * i, 0) for i in range(5)]
    for i in range(4):
        agent.observe(states[i], 0, -1.0, states[i + 1])
    assert agent.normalizer is not None  # fitted by the fourth observe
    _act(agent, states[4])
    assert agent.q_trace[-1][1] == tuple(
        forward(agent.pair.online, agent.normalizer.apply(states[4])).tolist())


def test_train_cycle_skips_before_warmup_bit_identical():
    agent = _agent(warmup_samples=8, batch_size=4)
    for _ in range(3):
        agent.observe(S0, 0, -1.0, S1)
    before = agent.pair.online.theta.copy()
    assert agent.train_cycle() is False
    assert np.array_equal(agent.pair.online.theta, before)


def test_train_cycle_updates_priorities_in_place():
    agent = _agent()
    for i in range(6):
        agent.observe(S0, 0, -float(i), S1)
    weights_before = agent.replay.weights[:6].tolist()
    assert agent.train_cycle() is True
    weights_after = agent.replay.weights[:6].tolist()
    assert weights_before != weights_after
    assert all(w >= _weight(agent, agent.cfg.priority_offset) for w in weights_after)


def test_toy_mdp_converges_to_value_iteration():
    s0 = encode_state((0.0,), 0.0, 0)
    s1 = encode_state((1.0,), 0.0, 0)
    transitions = [
        (s0, 0, s0, -1.0), (s0, 1, s1, -2.0),
        (s1, 0, s1, -0.5), (s1, 1, s0, -1.5),
    ]
    gamma = 0.9
    # value-iteration oracle on the exact two-state chain
    q = np.zeros((2, 2))
    nxt = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    rew = {(0, 0): -1.0, (0, 1): -2.0, (1, 0): -0.5, (1, 1): -1.5}
    for _ in range(600):
        v = q.max(axis=1)
        q = np.array([[rew[(s, a)] + gamma * v[nxt[(s, a)]] for a in (0, 1)]
                      for s in (0, 1)])
    assert q[1, 0] == pytest.approx(-5.0, abs=1e-9)

    grid2 = ActionGrid((0.0, 400.0))
    cfg = MfrlConfig(hidden=(32, 32), activation="tanh",
                     learning_rate=3e-3, gamma=gamma, tau=0.05, batch_size=8,
                     capacity=64, warmup_samples=8, train_cycles_per_update=1)
    agent = ModelFreeAgent(cfg, grid2, np.random.default_rng(0), seed=0, history_length=0)
    for _ in range(4):
        for s, a, s2, r in transitions:
            agent.observe(s, a, r, s2)
    for _ in range(4000):
        agent.train_cycle()
    learned = np.array([forward(agent.pair.online, agent.encode(s)) for s in (s0, s1)])
    assert np.abs(learned - q).max() < 1e-2


def _cycle_results(monkeypatch, agent):
    """What each of the agent's training cycles from now on returns, in order."""
    results, cycle = [], agent.train_cycle
    monkeypatch.setattr(agent, "train_cycle", lambda: results.append(cycle()) or results[-1])
    return results


def test_daily_update_runs_cycles_and_decays_epsilon(monkeypatch):
    agent = _agent(train_cycles_per_update=3)
    for _ in range(8):
        agent.observe(S0, 0, -1.0, S1)
    cycles = _cycle_results(monkeypatch, agent)
    assert agent.day == 0
    agent.daily_update(S0, None, None, None)
    assert cycles == [True] * 3
    assert agent.day == 1
    agent.daily_update(S0, None, None, None)
    assert agent.day == 2
    assert exploration_rate(agent.cfg, agent.day) < exploration_rate(agent.cfg, 1)


def test_qpair_validation():
    with pytest.raises(ValueError):
        QPair(_bias_net([1.0], 1), _bias_net([1.0, 2.0], 2))
    with pytest.raises(ValueError):
        QPair(_bias_net([1.0], 1), _bias_net([1.0], 1), gamma=1.0)
