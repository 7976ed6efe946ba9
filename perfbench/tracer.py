"""Per-layer tracing of heatbench, installed from outside the package.

The tracer wraps public functions and methods of heatbench's modules.  Every
wrapped call pushes a frame on one stack, so a function's self time is its
duration minus the duration of the wrapped calls made inside it.  Calls to the
functions marked SPAN are also kept as spans (id, parent span id, name, start,
end, run id) in memory and written out at the end; the frequent leaf calls are
only aggregated into their function's counters, which keeps the self-time
arithmetic of their parents right without storing a million spans.

Module-level functions are replaced in every heatbench module that holds them,
because harness, model_based and model_free bind `step`, `forward`,
`forward_batch` and the like by name at import time.  Methods are replaced on
their class.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

SPAN, LEAF = True, False


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    work: int = 0  # rows, candidate-hours or useful cycles, as the probe counts them
    fill: float = 0.0
    durations_ns: list = field(default_factory=list)  # SPAN functions only


def _rows(stat, args, result):
    stat.work += len(args[1])


def _candidate_hours(stat, args, result):
    rows, hours = args[2].shape  # rollout_temps(self, start, actions, ambient)
    stat.work += rows * hours


def _useful_cycle(stat, args, result):
    stat.work += bool(result)


def _replay_fill(stat, args, result):
    replay = args[0].replay
    stat.fill = len(replay) / replay.capacity


# traced name -> (heatbench module, attribute, kept as spans?, work probe)
TARGETS = {
    "harness.run_scenario": ("harness", "run_scenario", SPAN, None),
    "baselines.MpcController.decide": ("baselines", "MpcController.decide", SPAN, None),
    "baselines.rbc_action": ("baselines", "rbc_action", LEAF, None),
    "planners.plan_cem": ("planners", "plan_cem", SPAN, None),
    "planners.evaluate_sequences": ("planners", "evaluate_sequences", SPAN, None),
    "planners.ExactDynamicsModel.rollout_temps":
        ("planners", "ExactDynamicsModel.rollout_temps", SPAN, _candidate_hours),
    "neural.forward_batch": ("neural", "forward_batch", LEAF, _rows),
    "neural.forward": ("neural", "forward", LEAF, None),
    "neural.train_minibatch": ("neural", "train_minibatch", LEAF, _rows),
    "neural.Normalizer.apply": ("neural", "Normalizer.apply", LEAF, None),
    "model_based.train_transition_model":
        ("model_based", "train_transition_model", SPAN, None),
    "model_based.LearnedDynamicsModel.rollout_temps":
        ("model_based", "LearnedDynamicsModel.rollout_temps", SPAN, _candidate_hours),
    "model_based.ModelBasedAgent.daily_update":
        ("model_based", "ModelBasedAgent.daily_update", SPAN, None),
    "model_based.ModelBasedAgent.act": ("model_based", "ModelBasedAgent.act", LEAF, None),
    "model_based.ModelBasedAgent.observe":
        ("model_based", "ModelBasedAgent.observe", LEAF, None),
    "model_free.replay_sample": ("model_free", "replay_sample", SPAN, None),
    "model_free.ModelFreeAgent.train_cycle":
        ("model_free", "ModelFreeAgent.train_cycle", SPAN, _useful_cycle),
    "model_free.ModelFreeAgent.encode": ("model_free", "ModelFreeAgent.encode", LEAF, None),
    "model_free.ModelFreeAgent.observe":
        ("model_free", "ModelFreeAgent.observe", SPAN, _replay_fill),
    "model_free.ModelFreeAgent.act": ("model_free", "ModelFreeAgent.act", SPAN, None),
    "emulator.step": ("emulator", "step", LEAF, None),
    "emulator.make_synthetic_ambient": ("emulator", "make_synthetic_ambient", SPAN, None),
    "mdp.comfort_reward_batch": ("mdp", "comfort_reward_batch", LEAF, None),
    "mdp.encode_state": ("mdp", "encode_state", LEAF, None),
    "mdp.EpisodeLog.write_csv": ("mdp", "EpisodeLog.write_csv", SPAN, None),
    "mdp.log_metrics": ("mdp", "log_metrics", SPAN, None),
    "mdp.make_tariff": ("mdp", "make_tariff", SPAN, None),
}

# traced name -> the per-layer metrics reported for it
LAYER_METRICS = {
    "planners.plan_cem": ("calls", "self_s", "ms_p50", "ms_tail"),
    "planners.evaluate_sequences": ("calls", "self_s"),
    "planners.ExactDynamicsModel.rollout_temps":
        ("candidate_hours", "self_s", "ns_per_cand_hour"),
    "baselines.MpcController.decide": ("calls", "ms_p50", "ms_tail"),
    "baselines.rbc_action": ("calls", "self_s"),
    "neural.forward_batch": ("calls", "rows", "self_s", "us_per_row"),
    "neural.forward": ("calls", "self_s"),
    "neural.train_minibatch": ("calls", "rows", "self_s"),
    "neural.Normalizer.apply": ("calls", "self_s"),
    "model_based.train_transition_model": ("calls", "self_s", "ms_p50", "ms_tail"),
    "model_based.LearnedDynamicsModel.rollout_temps":
        ("candidate_hours", "self_s", "ns_per_cand_hour"),
    "model_based.ModelBasedAgent.daily_update": ("self_s",),
    "model_based.ModelBasedAgent.act": ("self_s",),
    "model_based.ModelBasedAgent.observe": ("self_s",),
    "model_free.replay_sample": ("calls", "self_s", "us_p50", "us_tail"),
    "model_free.ModelFreeAgent.train_cycle": ("calls", "useful_ratio", "self_s"),
    "model_free.ModelFreeAgent.encode": ("calls", "self_s"),
    "model_free.ModelFreeAgent.observe": ("calls", "self_s"),
    "model_free.ModelFreeAgent.act": ("calls", "self_s"),
    "emulator.step": ("calls", "self_s"),
    "emulator.make_synthetic_ambient": ("s",),
    "mdp.comfort_reward_batch": ("calls", "self_s"),
    "mdp.encode_state": ("calls", "self_s"),
    "mdp.EpisodeLog.write_csv": ("s",),
    "mdp.log_metrics": ("s",),
    "mdp.make_tariff": ("s",),
    "harness.run_scenario": ("self_s",),
}

_UNITS = {"calls": "count", "rows": "count", "candidate_hours": "count",
          "self_s": "s", "s": "s", "ms_p50": "ms", "ms_tail": "ms",
          "us_p50": "us", "us_tail": "us", "us_per_row": "us",
          "ns_per_cand_hour": "ns", "useful_ratio": "ratio"}
_HIGHER_IS_BETTER = {"useful_ratio", "replay_fill"}

# metrics outside LAYER_METRICS: the replay's occupancy and the tracing overhead
EXTRA_METRICS = {
    "model_free.replay_fill": "ratio",
    "trace.ms_per_sim_hour_untraced": "ms",
    "trace.ms_per_sim_hour_traced": "ms",
    "trace.overhead_pct": "%",
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it: name, unit, better."""
    named = [(f"{target}.{m}", _UNITS[m], m) for target, ms in LAYER_METRICS.items()
             for m in ms]
    named += [(name, unit, name.rpartition(".")[2]) for name, unit in EXTRA_METRICS.items()]
    return [{"name": name, "unit": unit,
             "better": "higher" if key in _HIGHER_IS_BETTER else "lower"}
            for name, unit, key in named]


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles that has at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return None


def _percentile(durations, p: float | None) -> tuple[float, str]:
    """(nanoseconds, label) of the p-th percentile; the maximum when p is None."""
    n = len(durations)
    if n == 0:
        return 0.0, "no calls"
    ordered = sorted(durations)
    if p is None:
        return float(ordered[-1]), f"max of {n} calls"
    return float(ordered[max(0, math.ceil(p / 100.0 * n) - 1)]), f"p{p:g} of {n} calls"


class Tracer:
    """Wraps heatbench's layer functions while installed; one tracer per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats = {name: Stat() for name in TARGETS}
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stack = [[0, 0]]  # frames of [child ns, span id]; span 0 is the caller
        self._undo: list[tuple] = []

    def install(self, modules: dict) -> None:
        """Wrap every target; `modules` maps short names to heatbench modules,
        with "" for the package itself."""
        for name, (module, attr, keep, probe) in TARGETS.items():
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(modules[module], owner_name) if owner_name else modules[module]
            original = getattr(owner, fn_name)
            wrapper = self._wrap(name, original, keep, probe)
            if owner_name:
                self._replace(owner, fn_name, wrapper)
                continue
            for holder in modules.values():
                for key in [k for k, v in vars(holder).items() if v is original]:
                    self._replace(holder, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _replace(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, keep, probe):
        stat, stack, spans, ids = self.stats[name], self._stack, self.spans, self._ids
        clock = time.perf_counter_ns
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0, next(ids) if keep else parent[1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            duration = end - start
            parent[0] += duration
            stat.calls += 1
            stat.total_ns += duration
            stat.self_ns += duration - frame[0]
            if keep:
                stat.durations_ns.append(duration)
                spans.append((frame[1], parent[1], name, start, end, run_id))
            if probe is not None:
                probe(stat, args, result)
            return result

        return traced

    def metrics(self) -> tuple[dict[str, float], dict[str, str]]:
        """(per-layer metric values, which percentile each tail metric is)."""
        values, tails = {}, {}
        for target, wanted in LAYER_METRICS.items():
            s = self.stats[target]
            per_work_ns = s.self_ns / s.work if s.work else 0.0
            direct = {"calls": s.calls, "self_s": s.self_ns / 1e9, "s": s.total_ns / 1e9,
                      "rows": s.work, "candidate_hours": s.work,
                      "us_per_row": per_work_ns / 1e3, "ns_per_cand_hour": per_work_ns,
                      "useful_ratio": s.work / s.calls if s.calls else 0.0}
            for m in wanted:
                name = f"{target}.{m}"
                if m in direct:
                    values[name] = direct[m]
                    continue
                unit, _, which = m.partition("_")  # ms_p50, ms_tail, us_p50, us_tail
                p = 50.0 if which == "p50" else tail_percentile(len(s.durations_ns))
                ns, label = _percentile(s.durations_ns, p)
                values[name] = ns / (1e6 if unit == "ms" else 1e3)
                if which == "tail":
                    tails[name] = label
        values["model_free.replay_fill"] = self.stats["model_free.ModelFreeAgent.observe"].fill
        return values, tails

    def record(self) -> dict:
        """Spans and per-function counters of this run, ready for JSON."""
        return {
            "run_id": self.run_id,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "run_id"],
            "spans": self.spans,
            "counters": {name: {"calls": s.calls, "self_ns": s.self_ns,
                                "total_ns": s.total_ns, "work": s.work}
                         for name, s in self.stats.items()},
        }
